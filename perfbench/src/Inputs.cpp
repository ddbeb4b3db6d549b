//===- perfbench/src/Inputs.cpp - Seeded input generation -----------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
// Writes the files one (workload, seed) pair is measured on. Generation is
// its own process (`perfbench gen`), so neither its time nor its memory
// shows in the measured run's setup_s or peak_rss_mb. Seeded vectors (the
// manufactured CG solution, the SpMV inputs, the request mix) are derived
// from the same seed inside the measured run; see Inputs.h.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "core/CvrFormat.h"
#include "gen/Generators.h"
#include "io/MatrixMarket.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

using namespace cvr;

namespace {

CooMatrix toCoo(const CsrMatrix &A) {
  CooMatrix Coo(A.numRows(), A.numCols());
  Coo.reserve(static_cast<std::size_t>(A.numNonZeros()));
  for (std::int32_t R = 0; R < A.numRows(); ++R)
    for (std::int64_t I = A.rowPtr()[R]; I < A.rowPtr()[R + 1]; ++I)
      Coo.add(R, A.colIdx()[I], A.vals()[I]);
  return Coo;
}

/// Column-stochastic PageRank transition matrix of the link graph whose
/// edge u -> v is each stored (u, v) of \p G: M[v][u] = 1 / outdeg(u).
CooMatrix transitionOf(const CsrMatrix &G) {
  CooMatrix Coo(G.numCols(), G.numRows());
  Coo.reserve(static_cast<std::size_t>(G.numNonZeros()));
  for (std::int32_t U = 0; U < G.numRows(); ++U)
    for (std::int64_t I = G.rowPtr()[U]; I < G.rowPtr()[U + 1]; ++I)
      Coo.add(G.colIdx()[I], U, 1.0 / static_cast<double>(G.rowLength(U)));
  Coo.canonicalize();
  return Coo;
}

bool writeMtx(const std::string &Path, const CooMatrix &Coo) {
  Status S = writeMatrixMarketFile(Path, Coo);
  if (!S.ok())
    std::fprintf(stderr, "perfbench gen: %s\n", S.toString().c_str());
  return S.ok();
}

/// Converts the matrix read back from \p MtxPath (the exact values the
/// reference checker will parse) and writes it as a v4 mapped blob.
bool writeMappedBlob(const std::string &MtxPath, const std::string &Path,
                     int Threads) {
  StatusOr<CooMatrix> Coo = readMatrixMarketFile(MtxPath);
  if (!Coo.ok()) {
    std::fprintf(stderr, "perfbench gen: %s\n",
                 Coo.status().toString().c_str());
    return false;
  }
  CvrOptions Opts;
  Opts.NumThreads = Threads;
  StatusOr<CvrMatrix> M = CvrMatrix::tryFromCsr(CsrMatrix::fromCoo(*Coo), Opts);
  if (!M.ok()) {
    std::fprintf(stderr, "perfbench gen: %s\n", M.status().toString().c_str());
    return false;
  }
  std::ofstream OS(Path, std::ios::binary);
  Status S = M->writeBlob(OS, BlobLayout::Mapped);
  OS.flush();
  if (!S.ok() || !OS) {
    std::fprintf(stderr, "perfbench gen: writing '%s' failed\n", Path.c_str());
    return false;
  }
  return true;
}

} // namespace

const WorkloadSpec *findWorkload(const std::string &Name) {
  static const WorkloadSpec Specs[] = {
      {"cg-stencil", SolveKind::Cg, false},
      {"pagerank-rmat", SolveKind::PageRank, false},
      {"serve-mixed", SolveKind::Cg, true},
  };
  for (const WorkloadSpec &S : Specs)
    if (Name == S.Name)
      return &S;
  return nullptr;
}

WorkloadFiles filesIn(const std::string &Dir, const WorkloadSpec &W) {
  WorkloadFiles F;
  F.Matrix = Dir + "/matrix.mtx";
  F.Blob = Dir + "/blob.cvr";
  F.BlobMtx = W.Serve ? Dir + "/rmat.mtx" : F.Matrix;
  return F;
}

int generateInputs(const std::string &Workload, std::uint64_t Seed,
                   const std::string &Dir, int Threads) {
  const WorkloadSpec *W = findWorkload(Workload);
  if (!W) {
    std::fprintf(stderr, "perfbench gen: unknown workload '%s'\n",
                 Workload.c_str());
    return 2;
  }
  WorkloadFiles F = filesIn(Dir, *W);
  bool Ok = true;
  if (W->Name == std::string("cg-stencil")) {
    Ok = writeMtx(F.Matrix, toCoo(genStencil27(StencilSide, StencilSide,
                                               StencilSide)));
  } else if (W->Name == std::string("pagerank-rmat")) {
    CsrMatrix G = genRmat(RmatScale, RmatEdgeFactor, Seed);
    Ok = writeMtx(F.Matrix, transitionOf(G));
  } else {
    Ok = writeMtx(F.Matrix, toCoo(genStencil27(ServeStencilSide,
                                               ServeStencilSide,
                                               ServeStencilSide))) &&
         writeMtx(F.BlobMtx,
                  toCoo(genRmat(ServeRmatScale, RmatEdgeFactor, Seed)));
  }
  Ok = Ok && writeMappedBlob(F.BlobMtx, F.Blob, Threads);
  return Ok ? 0 : 1;
}

} // namespace perfbench
