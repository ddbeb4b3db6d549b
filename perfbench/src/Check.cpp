//===- perfbench/src/Check.cpp - Independent reference and output checks --===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Check.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

namespace perfbench {

namespace {

struct Triplet {
  std::int32_t R, C;
  double V;
};

void setWhy(std::string *Why, const std::string &S) {
  if (Why)
    *Why = S;
}

double refNorm2(const std::vector<double> &V) {
  double S = 0.0;
  for (double E : V)
    S += E * E;
  return std::sqrt(S);
}

} // namespace

bool readRefMatrix(const std::string &Path, RefMatrix &Out, std::string &Err) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS) {
    Err = "cannot open '" + Path + "'";
    return false;
  }
  std::ostringstream SS;
  SS << IS.rdbuf();
  const std::string Text = SS.str();
  const char *P = Text.c_str();
  const char *End = P + Text.size();

  auto NextLine = [&](const char *Q) {
    const char *NL = static_cast<const char *>(std::memchr(Q, '\n', End - Q));
    return NL ? NL + 1 : End;
  };
  if (std::strncmp(P, "%%MatrixMarket", 14) != 0) {
    Err = "'" + Path + "': missing %%MatrixMarket banner";
    return false;
  }
  std::string Banner(P, NextLine(P));
  const bool Symmetric = Banner.find("symmetric") != std::string::npos;
  if (Banner.find("coordinate") == std::string::npos ||
      Banner.find("complex") != std::string::npos ||
      Banner.find("pattern") != std::string::npos) {
    Err = "'" + Path + "': only coordinate real/integer matrices";
    return false;
  }
  P = NextLine(P);
  while (P < End && *P == '%')
    P = NextLine(P);

  char *Q = nullptr;
  long long Rows = std::strtoll(P, &Q, 10);
  long long Cols = std::strtoll(Q, &Q, 10);
  long long Entries = std::strtoll(Q, &Q, 10);
  if (Rows <= 0 || Cols <= 0 || Entries < 0 || Rows > INT32_MAX ||
      Cols > INT32_MAX) {
    Err = "'" + Path + "': bad size line";
    return false;
  }
  std::vector<Triplet> T;
  T.reserve(static_cast<std::size_t>(Symmetric ? 2 * Entries : Entries));
  for (long long I = 0; I < Entries; ++I) {
    long long R = std::strtoll(Q, &Q, 10);
    long long C = std::strtoll(Q, &Q, 10);
    double V = std::strtod(Q, &Q);
    if (R < 1 || R > Rows || C < 1 || C > Cols || !std::isfinite(V)) {
      Err = "'" + Path + "': bad entry " + std::to_string(I + 1);
      return false;
    }
    T.push_back({static_cast<std::int32_t>(R - 1),
                 static_cast<std::int32_t>(C - 1), V});
    if (Symmetric && R != C)
      T.push_back({static_cast<std::int32_t>(C - 1),
                   static_cast<std::int32_t>(R - 1), V});
  }
  std::sort(T.begin(), T.end(), [](const Triplet &A, const Triplet &B) {
    return A.R != B.R ? A.R < B.R : A.C < B.C;
  });

  Out = RefMatrix{};
  Out.Rows = static_cast<std::int32_t>(Rows);
  Out.Cols = static_cast<std::int32_t>(Cols);
  Out.Ptr.assign(static_cast<std::size_t>(Rows) + 1, 0);
  for (std::size_t I = 0; I < T.size(); ++I) {
    if (I > 0 && T[I].R == T[I - 1].R && T[I].C == T[I - 1].C) {
      Out.Val.back() += T[I].V; // Duplicate coordinates sum.
      continue;
    }
    Out.Col.push_back(T[I].C);
    Out.Val.push_back(T[I].V);
    ++Out.Ptr[static_cast<std::size_t>(T[I].R) + 1];
  }
  for (std::size_t R = 0; R < static_cast<std::size_t>(Rows); ++R)
    Out.Ptr[R + 1] += Out.Ptr[R];
  return true;
}

void refSpmv(const RefMatrix &A, const double *X, double *Y) {
  for (std::int32_t R = 0; R < A.Rows; ++R) {
    double S = 0.0;
    for (std::int64_t I = A.Ptr[R]; I < A.Ptr[R + 1]; ++I)
      S += A.Val[I] * X[A.Col[I]];
    Y[R] = S;
  }
}

RefProduct refProduct(const RefMatrix &A, const double *X) {
  RefProduct P;
  P.Y.resize(static_cast<std::size_t>(A.Rows));
  P.Scale.resize(static_cast<std::size_t>(A.Rows));
  for (std::int32_t R = 0; R < A.Rows; ++R) {
    double S = 0.0, Abs = 0.0;
    for (std::int64_t I = A.Ptr[R]; I < A.Ptr[R + 1]; ++I) {
      S += A.Val[I] * X[A.Col[I]];
      Abs += std::fabs(A.Val[I] * X[A.Col[I]]);
    }
    P.Y[R] = S;
    P.Scale[R] = Abs;
  }
  return P;
}

bool matchesProduct(const double *Y, const RefProduct &Ref) {
  for (std::size_t I = 0; I < Ref.Y.size(); ++I) {
    // Written so NaN fails: !(a <= b) is true for NaN.
    if (!(std::fabs(Y[I] - Ref.Y[I]) <= 1e-12 * Ref.Scale[I] + 1e-300))
      return false;
  }
  return true;
}

bool checkLinearSolve(const RefMatrix &A, const std::vector<double> &B,
                      const std::vector<double> &X,
                      const std::vector<double> &XStar, double Tol,
                      double ErrTol, std::string *Why) {
  if (X.size() != static_cast<std::size_t>(A.Cols) ||
      B.size() != static_cast<std::size_t>(A.Rows)) {
    setWhy(Why, "solution has the wrong length");
    return false;
  }
  std::vector<double> R(B.size());
  refSpmv(A, X.data(), R.data());
  for (std::size_t I = 0; I < R.size(); ++I)
    R[I] = B[I] - R[I];
  double Rel = refNorm2(R) / refNorm2(B);
  std::vector<double> E(X.size());
  for (std::size_t I = 0; I < X.size(); ++I)
    E[I] = X[I] - XStar[I];
  double Err = refNorm2(E) / refNorm2(XStar);
  if (!(Rel <= Tol) || !(Err <= ErrTol)) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "true relative residual %.3e (tol %.1e), relative error "
                  "%.3e (tol %.1e)",
                  Rel, Tol, Err, ErrTol);
    setWhy(Why, Buf);
    return false;
  }
  return true;
}

bool checkPageRank(const RefMatrix &M, const std::vector<double> &R,
                   double Damping, double Tol, std::string *Why) {
  const std::size_t N = static_cast<std::size_t>(M.Rows);
  if (R.size() != N || M.Rows != M.Cols) {
    setWhy(Why, "rank vector has the wrong length");
    return false;
  }
  double Sum = 0.0;
  for (double V : R) {
    if (!(V >= 0.0) || !std::isfinite(V)) {
      setWhy(Why, "rank not finite and non-negative");
      return false;
    }
    Sum += V;
  }
  if (!(std::fabs(Sum - 1.0) <= 1e-9)) {
    setWhy(Why, "ranks sum to " + std::to_string(Sum));
    return false;
  }
  std::vector<double> Z(N);
  refSpmv(M, R.data(), Z.data());
  const double Teleport = (1.0 - Damping) / static_cast<double>(N);
  double ZSum = 0.0;
  for (double &V : Z) {
    V = Damping * V + Teleport;
    ZSum += V;
  }
  const double Leak = (1.0 - ZSum) / static_cast<double>(N);
  double L1 = 0.0;
  for (std::size_t I = 0; I < N; ++I)
    L1 += std::fabs(Z[I] + Leak - R[I]);
  if (!(L1 <= Tol)) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "fixed-point residual %.3e (tol %.1e)",
                  L1, Tol);
    setWhy(Why, Buf);
    return false;
  }
  return true;
}

namespace {

/// 5-point Laplacian (+ a diagonal shift) on a Side x Side grid: SPD.
RefMatrix smallSpd(int Side) {
  RefMatrix A;
  A.Rows = A.Cols = Side * Side;
  A.Ptr.push_back(0);
  for (int Y = 0; Y < Side; ++Y)
    for (int X = 0; X < Side; ++X) {
      const int Nbr[5][2] = {{0, -1}, {-1, 0}, {0, 0}, {1, 0}, {0, 1}};
      for (const auto &D : Nbr) {
        int NX = X + D[0], NY = Y + D[1];
        if (NX < 0 || NX >= Side || NY < 0 || NY >= Side)
          continue;
        A.Col.push_back(NY * Side + NX);
        A.Val.push_back(D[0] == 0 && D[1] == 0 ? 4.5 : -1.0);
      }
      A.Ptr.push_back(static_cast<std::int64_t>(A.Val.size()));
    }
  return A;
}

/// Plain scalar CG to machine precision, for the self-test's known-good
/// solution.
std::vector<double> refCg(const RefMatrix &A, const std::vector<double> &B) {
  const std::size_t N = B.size();
  std::vector<double> X(N, 0.0), R = B, P = B, Q(N);
  double RR = 0.0;
  for (double V : R)
    RR += V * V;
  for (int It = 0; It < 10 * static_cast<int>(N) && RR > 1e-30; ++It) {
    refSpmv(A, P.data(), Q.data());
    double PQ = 0.0;
    for (std::size_t I = 0; I < N; ++I)
      PQ += P[I] * Q[I];
    double Alpha = RR / PQ, RRNew = 0.0;
    for (std::size_t I = 0; I < N; ++I) {
      X[I] += Alpha * P[I];
      R[I] -= Alpha * Q[I];
      RRNew += R[I] * R[I];
    }
    for (std::size_t I = 0; I < N; ++I)
      P[I] = R[I] + RRNew / RR * P[I];
    RR = RRNew;
  }
  return X;
}

/// Column-stochastic transition matrix of a small ring-with-chords graph
/// that has one dangling vertex.
RefMatrix smallTransition(int N) {
  std::vector<std::vector<int>> Out(static_cast<std::size_t>(N));
  for (int U = 0; U + 1 < N; ++U) { // Vertex N-1 is dangling.
    Out[U].push_back((U + 1) % N);
    if (U % 3 == 0)
      Out[U].push_back((U * 7 + 2) % N);
  }
  std::vector<Triplet> T;
  for (int U = 0; U < N; ++U)
    for (int V : Out[U])
      T.push_back({V, U, 1.0 / static_cast<double>(Out[U].size())});
  std::sort(T.begin(), T.end(), [](const Triplet &A, const Triplet &B) {
    return A.R != B.R ? A.R < B.R : A.C < B.C;
  });
  RefMatrix M;
  M.Rows = M.Cols = N;
  M.Ptr.assign(static_cast<std::size_t>(N) + 1, 0);
  for (const Triplet &E : T) {
    M.Col.push_back(E.C);
    M.Val.push_back(E.V);
    ++M.Ptr[static_cast<std::size_t>(E.R) + 1];
  }
  for (int R = 0; R < N; ++R)
    M.Ptr[R + 1] += M.Ptr[R];
  return M;
}

std::vector<double> refPageRank(const RefMatrix &M, double D, int Iters) {
  const std::size_t N = static_cast<std::size_t>(M.Rows);
  std::vector<double> R(N, 1.0 / static_cast<double>(N)), Z(N);
  for (int It = 0; It < Iters; ++It) {
    refSpmv(M, R.data(), Z.data());
    double Sum = 0.0;
    for (double &V : Z) {
      V = D * V + (1.0 - D) / static_cast<double>(N);
      Sum += V;
    }
    for (double &V : Z)
      V += (1.0 - Sum) / static_cast<double>(N);
    R.swap(Z);
  }
  return R;
}

bool expect(bool Cond, const char *What) {
  std::printf("  selftest %-44s %s\n", What, Cond ? "ok" : "FAILED");
  return Cond;
}

} // namespace

bool checkerSelfTest() {
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  bool Ok = true;

  // SpMV / SpMM-column checker.
  RefMatrix A = smallSpd(8);
  std::vector<double> X(static_cast<std::size_t>(A.Cols));
  for (std::size_t I = 0; I < X.size(); ++I)
    X[I] = 0.25 + 0.01 * static_cast<double>(I);
  RefProduct P = refProduct(A, X.data());
  std::vector<double> Y = P.Y;
  Ok &= expect(matchesProduct(Y.data(), P), "spmv: exact y accepted");
  Y[5] *= 1.0 + 1e-9;
  Ok &= expect(!matchesProduct(Y.data(), P), "spmv: perturbed y rejected");
  std::vector<double> AllNaN(Y.size(), NaN);
  Ok &= expect(!matchesProduct(AllNaN.data(), P), "spmv: all-NaN y rejected");

  // CG checker.
  std::vector<double> XStar = X, B(XStar.size());
  refSpmv(A, XStar.data(), B.data());
  std::vector<double> Sol = refCg(A, B);
  Ok &= expect(checkLinearSolve(A, B, Sol, XStar, 1e-8, 1e-6),
               "cg: converged solution accepted");
  std::vector<double> Pert = Sol;
  Pert[7] += 1e-4;
  Ok &= expect(!checkLinearSolve(A, B, Pert, XStar, 1e-8, 1e-6),
               "cg: perturbed solution rejected");
  Ok &= expect(!checkLinearSolve(A, B, std::vector<double>(Sol.size(), NaN),
                                 XStar, 1e-8, 1e-6),
               "cg: all-NaN solution rejected");
  Ok &= expect(!checkLinearSolve(A, B, std::vector<double>(Sol.size(), 0.0),
                                 XStar, 1e-8, 1e-6),
               "cg: unconverged (x = x0) rejected");

  // PageRank checker.
  RefMatrix M = smallTransition(40);
  std::vector<double> R = refPageRank(M, 0.85, 400);
  Ok &= expect(checkPageRank(M, R, 0.85, 1e-8), "pagerank: fixed point accepted");
  std::vector<double> RP = R;
  RP[3] += 1e-6;
  RP[4] -= 1e-6;
  Ok &= expect(!checkPageRank(M, RP, 0.85, 1e-8),
               "pagerank: perturbed ranks rejected");
  Ok &= expect(!checkPageRank(M, std::vector<double>(R.size(), NaN), 0.85, 1e-8),
               "pagerank: all-NaN ranks rejected");
  Ok &= expect(!checkPageRank(M, refPageRank(M, 0.85, 2), 0.85, 1e-8),
               "pagerank: unconverged (2 sweeps) rejected");
  return Ok;
}

} // namespace perfbench
