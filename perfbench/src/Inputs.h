//===- perfbench/src/Inputs.h - Workloads and their generated inputs ------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <string>

namespace perfbench {

// Input make-up (README.md "Inputs"). The stencils do not depend on the
// seed; the R-MAT graphs and every seeded vector do.
constexpr int StencilSide = 40;      ///< cg-stencil: 64,000 rows, ~1.7 M nnz.
constexpr int RmatScale = 17;        ///< pagerank-rmat: 131,072 vertices.
constexpr int RmatEdgeFactor = 16;
constexpr int ServeStencilSide = 24; ///< serve-mixed CG solves.
constexpr int ServeRmatScale = 15;   ///< serve-mixed multiply / SpMM.
constexpr double PageRankDamping = 0.85;
constexpr double CgTolerance = 1e-8;
constexpr double PageRankTolerance = 1e-10;
constexpr int SpmmWidth = 8;

enum class SolveKind { Cg, PageRank };

struct WorkloadSpec {
  const char *Name;
  SolveKind Solve; ///< Solver run on Matrix.
  bool Serve;      ///< Measured through the cvr_served stack.
};

/// nullptr for an unknown name.
const WorkloadSpec *findWorkload(const std::string &Name);

/// Files of one (workload, seed) input directory.
struct WorkloadFiles {
  std::string Matrix;  ///< Solved / kernel-layer matrix (.mtx).
  std::string Blob;    ///< v4 mapped blob served zero-copy.
  std::string BlobMtx; ///< The .mtx the blob was converted from.
};
WorkloadFiles filesIn(const std::string &Dir, const WorkloadSpec &W);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
