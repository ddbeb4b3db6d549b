//===- tests/RaceStressTest.cpp - TSan targets for partitioned SpMV -------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Stress tests shaped for the thread-sanitized build (CVR_SANITIZE=thread):
// matrices engineered so nearly every chunk boundary splits a row, forcing
// the partial-sum combination path — the one place the partitioned kernels
// write y from more than one thread. Each kernel is run many times with the
// thread count far above the row count so boundary collisions are constant.
// Under TSan an unsynchronized write on those accumulations (a missing
// atomic, or a merge that ran before the join) reports as a data race;
// under the plain build the tests still verify numeric correctness.
//
//===----------------------------------------------------------------------===//

#include "core/CvrSpmv.h"
#include "parallel/Partition.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

namespace cvr {
namespace {

/// A few long rows: with NumThreads >> rows, every chunk boundary lands
/// strictly inside a row, so every chunk's first/last row is shared.
CsrMatrix longRowMatrix(std::int32_t Rows, std::int32_t Cols,
                        std::int32_t RowLen, std::uint64_t Seed) {
  Xoshiro256 Rng(Seed);
  CooMatrix Coo(Rows, Cols);
  for (std::int32_t R = 0; R < Rows; ++R) {
    // Distinct sorted columns per row.
    std::int32_t Stride = Cols / RowLen;
    for (std::int32_t J = 0; J < RowLen; ++J)
      Coo.add(R, J * Stride + static_cast<std::int32_t>(Rng.next() % Stride),
              Rng.nextDouble(-1.0, 1.0));
  }
  return CsrMatrix::fromCoo(Coo);
}

TEST(RaceStress, PartitionedSpmvSharedRows) {
  CsrMatrix A = longRowMatrix(6, 4096, 512, 99);
  const int NumThreads = 16; // >> rows: every boundary splits a row.
  std::vector<NnzChunk> Chunks = partitionByNnz(A, NumThreads);
  std::vector<std::uint8_t> Shared = findSharedRows(A, Chunks);
  ASSERT_GT(std::count(Shared.begin(), Shared.end(), 1), 0);

  std::vector<double> X = test::randomVector(A.numCols(), 1);
  std::vector<double> Ref(A.numRows(), 0.0);
  referenceSpmv(A, X.data(), Ref.data());

  std::vector<double> Y(A.numRows());
  for (int Iter = 0; Iter < 50; ++Iter) {
    std::fill(Y.begin(), Y.end(), -3.0);
    spmvPartitioned(A, Chunks, Shared, X.data(), Y.data());
    ASSERT_LE(maxRelDiff(Ref, Y), test::SpmvTolerance) << "iter " << Iter;
  }
}

TEST(RaceStress, PartitionedSpmvFuzzedShapes) {
  for (std::uint64_t Seed : {7ULL, 8ULL, 9ULL}) {
    CsrMatrix A = test::randomCsr(40, 64, 0.2, Seed);
    for (int NumThreads : {3, 8, 32}) {
      std::vector<NnzChunk> Chunks = partitionByNnz(A, NumThreads);
      std::vector<std::uint8_t> Shared = findSharedRows(A, Chunks);
      std::vector<double> X = test::randomVector(A.numCols(), Seed);
      std::vector<double> Ref(A.numRows(), 0.0);
      referenceSpmv(A, X.data(), Ref.data());
      std::vector<double> Y(A.numRows(), 0.0);
      for (int Iter = 0; Iter < 10; ++Iter) {
        spmvPartitioned(A, Chunks, Shared, X.data(), Y.data());
        ASSERT_LE(maxRelDiff(Ref, Y), test::SpmvTolerance)
            << "seed " << Seed << ", threads " << NumThreads;
      }
    }
  }
}

TEST(RaceStress, CvrSpmvBoundaryRows) {
  CsrMatrix A = longRowMatrix(6, 4096, 512, 123);
  CvrOptions Opts;
  Opts.NumThreads = 16; // Shared boundary rows in every chunk.
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);

  std::vector<double> X = test::randomVector(A.numCols(), 2);
  std::vector<double> Ref(A.numRows(), 0.0);
  referenceSpmv(A, X.data(), Ref.data());

  std::vector<double> Y(A.numRows(), 0.0);
  for (int Iter = 0; Iter < 50; ++Iter) {
    cvrSpmv(M, X.data(), Y.data());
    ASSERT_LE(maxRelDiff(Ref, Y), test::SpmvTolerance) << "iter " << Iter;
  }
}

TEST(RaceStress, CvrOverDecomposedBlockedSpmv) {
  // The execution engine's worst case for write-write collisions: chunk
  // over-decomposition multiplies the shared boundary rows, column
  // blocking makes every band accumulate into the same y through the
  // read-modify-write path, and dynamic scheduling lets any thread run any
  // chunk. Under TSan an unsynchronized y write anywhere in that chain is
  // a race.
  CsrMatrix A = longRowMatrix(6, 4096, 512, 321);
  CvrOptions Opts;
  Opts.NumThreads = 8;
  Opts.ChunkMultiplier = 4;  // 32 chunks over 6 rows.
  Opts.ColBlockBytes = 8192; // 1024-column bands over 4096 columns.
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
  ASSERT_TRUE(M.isBlocked());
  ASSERT_EQ(M.runThreads(), 8);

  std::vector<double> X = test::randomVector(A.numCols(), 5);
  std::vector<double> Ref(A.numRows(), 0.0);
  referenceSpmv(A, X.data(), Ref.data());

  std::vector<double> Y(A.numRows(), 0.0);
  for (int Iter = 0; Iter < 50; ++Iter) {
    cvrSpmv(M, X.data(), Y.data(), /*PrefetchDistance=*/4);
    ASSERT_LE(maxRelDiff(Ref, Y), test::SpmvTolerance) << "iter " << Iter;
  }
}

TEST(RaceStress, CvrConversionParallel) {
  // The converter itself runs chunks in parallel; hammer it for races on
  // the shared output arrays.
  CsrMatrix A = test::randomCsr(80, 120, 0.1, 44);
  std::vector<double> X = test::randomVector(A.numCols(), 3);
  std::vector<double> Ref(A.numRows(), 0.0);
  referenceSpmv(A, X.data(), Ref.data());

  for (int Iter = 0; Iter < 10; ++Iter) {
    CvrOptions Opts;
    Opts.NumThreads = 2 + (Iter % 7);
    CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
    std::vector<double> Y(A.numRows(), 0.0);
    cvrSpmv(M, X.data(), Y.data());
    ASSERT_LE(maxRelDiff(Ref, Y), test::SpmvTolerance)
        << "threads " << Opts.NumThreads;
  }
}

} // namespace
} // namespace cvr
