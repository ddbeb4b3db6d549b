//===- perfbench/src/Check.h - Independent reference and output checks ----===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The benchmark's own Matrix Market reader, scalar CSR loop and checkers.
// None of it calls into the program, so a fault in the program's reader,
// converter or comparison helpers cannot hide a wrong result. Every check
// treats NaN and Inf as failures: comparisons are written so that a
// non-finite value fails them (no std::max folding, which scores NaN as 0).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECK_H
#define PERFBENCH_CHECK_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Reference matrix in CSR form, built from the .mtx file's triplets.
struct RefMatrix {
  std::int32_t Rows = 0, Cols = 0;
  std::vector<std::int64_t> Ptr;
  std::vector<std::int32_t> Col;
  std::vector<double> Val;
  std::int64_t nnz() const { return static_cast<std::int64_t>(Val.size()); }
};

/// Parses a "coordinate real general" Matrix Market file; duplicates are
/// summed. Returns false with \p Err set on any malformed input.
bool readRefMatrix(const std::string &Path, RefMatrix &Out, std::string &Err);

/// y = A x with the scalar loop.
void refSpmv(const RefMatrix &A, const double *X, double *Y);

/// A reference product and the per-row error scale sum_j |a_ij x_j| that
/// bounds any summation order's rounding.
struct RefProduct {
  std::vector<double> Y;
  std::vector<double> Scale;
};
RefProduct refProduct(const RefMatrix &A, const double *X);

/// True when every Y[i] is finite and within 1e-12 * Scale[i] of the
/// reference (plus a tiny absolute floor for all-zero rows).
bool matchesProduct(const double *Y, const RefProduct &Ref);

/// CG check: the true relative residual ||b - A x|| / ||b||, recomputed
/// with the scalar loop, must be <= Tol, and the relative error against
/// the manufactured solution must be <= ErrTol.
bool checkLinearSolve(const RefMatrix &A, const std::vector<double> &B,
                      const std::vector<double> &X,
                      const std::vector<double> &XStar, double Tol,
                      double ErrTol, std::string *Why = nullptr);

/// PageRank check: ranks finite and non-negative, summing to 1, and a
/// fixed point of r = d M r + (1 - d)/n (+ uniform dangling leak) within
/// \p Tol in the L1 norm, evaluated with the scalar loop.
bool checkPageRank(const RefMatrix &M, const std::vector<double> &R,
                   double Damping, double Tol, std::string *Why = nullptr);

/// Feeds every checker a perturbed, an all-NaN and an unconverged result
/// on a small matrix and returns true when each one is rejected (and the
/// correct results are accepted).
bool checkerSelfTest();

} // namespace perfbench

#endif // PERFBENCH_CHECK_H
