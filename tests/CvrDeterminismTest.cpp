//===- tests/CvrDeterminismTest.cpp - Bit-identical CVR reruns ------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// For a fixed plan and thread count every CVR kernel must return the same
// bits on every call, whatever order the dynamic schedule ran the chunks
// in. The matrices are shaped so that order would show: more chunks than
// threads (dynamic scheduling), rows split across several chunks, and
// column bands that add into rows already holding the previous band's sum.
// Results are compared with memcmp, which also catches a NaN that a
// max-difference helper would score as a match. The fused solvers are held
// to the same standard: their post-SpMV sweeps reduce in fixed blocks
// merged in block order, so a whole solve reruns bit for bit, at any
// OpenMP team size.
//
//===----------------------------------------------------------------------===//

#include "core/CvrSpmm.h"
#include "core/CvrSpmv.h"
#include "formats/BatchEpilogue.h"
#include "formats/FusedEpilogue.h"
#include "gen/Generators.h"
#include "matrix/Coo.h"
#include "parallel/Partition.h"
#include "solvers/Solvers.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace cvr {
namespace {

constexpr int Calls = 50;
constexpr int K = 8;

/// The blocked, over-decomposed plan of
/// CvrSerialize.RoundTripPreservesBlockedOverDecomposedStructure: R-MAT
/// 11/7, 3 threads x 2 chunks per band, 256-column bands.
CvrMatrix blockedOverDecomposed(const CsrMatrix &A) {
  CvrOptions Opts;
  Opts.NumThreads = 3;
  Opts.ChunkMultiplier = 2;
  Opts.ColBlockBytes = 2048;
  return CvrMatrix::fromCsr(A, Opts);
}

/// Four dense rows over 16 chunks: each row is split across about four
/// chunks, so its sum combines several chunks' partials.
CvrMatrix denseRowsOverDecomposed(const CsrMatrix &A) {
  CvrOptions Opts;
  Opts.NumThreads = 4;
  Opts.ChunkMultiplier = 4;
  return CvrMatrix::fromCsr(A, Opts);
}

bool allFinite(const std::vector<double> &V) {
  return std::all_of(V.begin(), V.end(),
                     [](double D) { return std::isfinite(D); });
}

bool sameBits(const std::vector<double> &A, const std::vector<double> &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0;
}

/// Runs \p Run (which fills its argument) Calls times and expects every
/// result to carry the first call's bits.
template <class Fn>
void expectRerunsBitIdentical(std::size_t Len, const char *What, Fn Run) {
  std::vector<double> First(Len, -3.0);
  Run(First);
  ASSERT_TRUE(allFinite(First)) << What;
  std::vector<double> Y(Len);
  for (int Call = 1; Call < Calls; ++Call) {
    std::fill(Y.begin(), Y.end(), -3.0);
    Run(Y);
    ASSERT_TRUE(sameBits(First, Y)) << What << ": call " << Call
                                    << " differs from the first";
  }
}

void expectSpmvDeterministic(const CsrMatrix &A, const CvrMatrix &M) {
  std::vector<double> X = test::randomVector(A.numCols(), 13);
  std::vector<double> Ref = referenceSpmv(A, X);
  std::vector<double> Y(static_cast<std::size_t>(A.numRows()));
  cvrSpmv(M, X.data(), Y.data());
  ASSERT_TRUE(allFinite(Y));
  EXPECT_LE(maxRelDiff(Ref, Y), test::SpmvTolerance);

  expectRerunsBitIdentical(Y.size(), "cvrSpmv", [&](std::vector<double> &O) {
    cvrSpmv(M, X.data(), O.data());
  });
  // The fused path's accumulator reads every boundary row, so it is part
  // of the result; the rerun check covers y and then y.y.
  expectRerunsBitIdentical(
      Y.size() + 1, "cvrSpmvFused", [&](std::vector<double> &O) {
        FusedEpilogue E = FusedEpilogue::dot(/*XDotY=*/false,
                                             /*YDotY=*/true);
        cvrSpmvFused(M, X.data(), O.data(), E);
        O.back() = E.Acc1;
      });
}

void expectSpmmDeterministic(const CsrMatrix &A, const CvrMatrix &M) {
  const std::size_t Rows = static_cast<std::size_t>(A.numRows());
  const std::size_t Cols = static_cast<std::size_t>(A.numCols());
  std::vector<double> X = test::randomVector(Cols * K, 17);
  std::vector<double> Y(Rows * K);
  ASSERT_TRUE(cvrSpmm(M, X.data(), K, Y.data(), K, K).ok());
  ASSERT_TRUE(allFinite(Y));
  std::vector<double> Xc(Cols), Yc(Rows);
  for (int J = 0; J < K; ++J) {
    for (std::size_t I = 0; I < Cols; ++I)
      Xc[I] = X[I * K + J];
    std::vector<double> Ref = referenceSpmv(A, Xc);
    for (std::size_t I = 0; I < Rows; ++I)
      Yc[I] = Y[I * K + J];
    EXPECT_LE(maxRelDiff(Ref, Yc), test::SpmvTolerance) << "column " << J;
  }

  expectRerunsBitIdentical(Y.size(), "cvrSpmm", [&](std::vector<double> &O) {
    ASSERT_TRUE(cvrSpmm(M, X.data(), K, O.data(), K, K).ok());
  });
  expectRerunsBitIdentical(
      Y.size() + K, "cvrSpmmFused", [&](std::vector<double> &O) {
        FusedBatchEpilogue E = FusedBatchEpilogue::dot(
            K, /*YDotY=*/true, O.data() + Rows * K);
        ASSERT_TRUE(cvrSpmmFused(M, X.data(), K, O.data(), K, K, E).ok());
      });
}

TEST(CvrDeterminism, BlockedOverDecomposedRerunsBitIdentically) {
  CsrMatrix A = genRmat(11, 7, 77);
  CvrMatrix M = blockedOverDecomposed(A);
  ASSERT_TRUE(M.isBlocked());
  ASSERT_GT(M.numChunks(), M.runThreads());
  expectSpmvDeterministic(A, M);
  expectSpmmDeterministic(A, M);
}

TEST(CvrDeterminism, DenseRowSplitAcrossChunksRerunsBitIdentically) {
  CsrMatrix A = genDense(4, 4000, 5);
  CvrMatrix M = denseRowsOverDecomposed(A);
  ASSERT_FALSE(M.isBlocked());
  ASSERT_GT(M.numChunks(), M.runThreads());
  expectSpmvDeterministic(A, M);
  expectSpmmDeterministic(A, M);
}

/// One fused solve's full outcome: the solution bits, the iteration count
/// and the residual bits.
struct SolveOutcome {
  std::vector<double> X;
  SolveResult R;

  bool sameAs(const SolveOutcome &O) const {
    return sameBits(X, O.X) && R.Iterations == O.R.Iterations &&
           R.Converged == O.R.Converged &&
           std::memcmp(&R.Residual, &O.R.Residual, sizeof(double)) == 0;
  }
};

/// Runs \p Solve (which returns a fresh outcome) 20 times at the default
/// team size and once on a single-thread team; every outcome must carry
/// the first one's bits.
template <class Fn> void expectSolveRerunsBitIdentical(const char *What,
                                                       Fn Solve) {
  SolveOutcome First = Solve();
  ASSERT_TRUE(First.R.Converged) << What;
  ASSERT_TRUE(allFinite(First.X)) << What;
  for (int Call = 1; Call < 20; ++Call)
    ASSERT_TRUE(Solve().sameAs(First))
        << What << ": rerun " << Call << " differs from the first";
#ifdef _OPENMP
  const int Team = omp_get_max_threads();
  omp_set_num_threads(1);
  SolveOutcome Single = Solve();
  omp_set_num_threads(Team);
  EXPECT_TRUE(Single.sameAs(First)) << What << ": one-thread sweeps differ";
#endif
}

/// Over-decomposed plan at the full team size: more chunks than threads,
/// so the SpMV runs under the dynamic schedule.
CvrOptions overDecomposedPlan() {
  CvrOptions Opts;
  Opts.NumThreads = std::max(2, defaultThreadCount());
  Opts.ChunkMultiplier = 3;
  return Opts;
}

TEST(CvrDeterminism, FusedSolversRerunBitIdentically) {
  // CG on a 90 x 100 Laplacian: 9000 rows, so the sweeps cover several
  // 4096-element blocks and end on a partial one.
  {
    CsrMatrix A = genStencil5(90, 100);
    CvrKernel K(overDecomposedPlan());
    K.prepare(A);
    ASSERT_GT(K.matrix().numChunks(), K.matrix().runThreads());
    std::vector<double> XStar =
        test::randomVector(static_cast<std::size_t>(A.numRows()), 404);
    std::vector<double> B = referenceSpmv(A, XStar);
    expectSolveRerunsBitIdentical("cg", [&] {
      SolveOutcome O{std::vector<double>(B.size(), 0.0), {}};
      O.R = conjugateGradient(K, B, O.X, {1000, 1e-10});
      return O;
    });
  }
  // PageRank on an R-MAT 13/6 transition matrix.
  {
    CsrMatrix G = genRmat(13, 6, 91);
    CooMatrix Coo(G.numCols(), G.numRows());
    for (std::int32_t U = 0; U < G.numRows(); ++U)
      for (std::int64_t I = G.rowPtr()[U]; I < G.rowPtr()[U + 1]; ++I)
        Coo.add(G.colIdx()[I], U, 1.0 / G.rowLength(U));
    CsrMatrix T = CsrMatrix::fromCoo(Coo);
    CvrKernel K(overDecomposedPlan());
    K.prepare(T);
    ASSERT_GT(K.matrix().numChunks(), K.matrix().runThreads());
    expectSolveRerunsBitIdentical("pagerank", [&] {
      SolveOutcome O{std::vector<double>(
                         static_cast<std::size_t>(T.numRows()), 0.0),
                     {}};
      O.R = pageRank(K, O.X, 0.85, {500, 1e-10});
      return O;
    });
  }
}

} // namespace
} // namespace cvr
