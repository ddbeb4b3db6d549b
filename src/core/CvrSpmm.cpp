//===- core/CvrSpmm.cpp - Batched multi-RHS SpMM over CVR -----------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The chunk kernels are templated on a panel-operations policy (8-wide,
// 4-wide, or masked tail) and on accumulate mode, mirroring the SpMV
// kernel's structure: the per-step stream consumption is identical, but
// the per-lane accumulator is a panel-row vector instead of a scalar, and
// every record/tail write-back moves a whole register of columns. Rows
// split across chunks take per-chunk partials merged in chunk order, as in
// SpMV: each chunk sums its two boundary panel rows in registers, stores
// them once into its own slot, and a sequential pass after the join adds
// the slots into Y in chunk index order, so Y is bit-identical run to run.
//
//===----------------------------------------------------------------------===//

#include "core/CvrSpmm.h"

#include "core/CvrSpmv.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "simd/Simd.h"
#include "support/Annotations.h"
#include "support/ChunkSlots.h"
#include "support/ParallelFor.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace cvr {

namespace {

/// Full-width panel policy: one VecD8 of columns per lane.
struct Panel8 {
  using Vec = simd::VecD8;
  int width() const { return 8; }
  Vec zero() const { return simd::VecD8::zero(); }
  Vec load(const double *P) const { return simd::VecD8::loadu(P); }
  void store(Vec V, double *P) const { V.storeu(P); }
  Vec fmadd(Vec Acc, double S, const double *P) const {
    return Acc.fmadd(simd::VecD8::broadcast(S), load(P));
  }
  void spill(Vec V, double *Buf8) const { V.toArray(Buf8); }
};

/// Half-width panel policy for K ≡ 4 (mod 8) passes.
struct Panel4 {
  using Vec = simd::VecD4;
  int width() const { return 4; }
  Vec zero() const { return simd::VecD4::zero(); }
  Vec load(const double *P) const { return simd::VecD4::loadu(P); }
  void store(Vec V, double *P) const { V.storeu(P); }
  Vec fmadd(Vec Acc, double S, const double *P) const {
    return Acc.fmadd(simd::VecD4::broadcast(S), load(P));
  }
  void spill(Vec V, double *Buf8) const { V.toArray(Buf8); }
};

/// Masked-tail panel policy: any remainder width 1..7 in one masked pass,
/// so a degenerate K (say 7) never re-streams the matrix per column.
struct PanelTail {
  int Bw;
  unsigned Mask;
  using Vec = simd::VecD8;
  explicit PanelTail(int Bw) : Bw(Bw), Mask((1U << Bw) - 1U) {}
  int width() const { return Bw; }
  Vec zero() const { return simd::VecD8::zero(); }
  Vec load(const double *P) const { return simd::VecD8::maskLoadu(P, Mask); }
  void store(Vec V, double *P) const { V.maskStoreu(P, Mask); }
  Vec fmadd(Vec Acc, double S, const double *P) const {
    return Acc.fmadd(simd::VecD8::broadcast(S), load(P));
  }
  void spill(Vec V, double *Buf8) const { V.toArray(Buf8); }
};

/// A chunk's partial panel rows for its boundary rows, C.FirstRow and
/// C.LastRow (the same row when it spans the whole chunk): at most 8
/// columns each per pass. Each slot owns its two cache lines, and a chunk
/// writes it once, at its end. Trivial on purpose: ChunkSlots leaves the
/// slot array uninitialized.
struct PanelBoundary {
  alignas(64) double First[8];
  double Last[8];
};

/// Stack slots per pass before ChunkSlots spills to the heap (32 KiB of
/// PanelBoundary).
constexpr int MaxStackChunks = 256;
using PanelBoundarySlots = ChunkSlots<PanelBoundary, MaxStackChunks>;

/// Adds the boundary panel rows of chunks [Begin, End) into the pass's Bw
/// columns of Y in chunk index order (Slots[I] belongs to chunk
/// Begin + I). Runs after the join.
void mergeBoundaryPanels(const CvrMatrix &M, int Begin, int End,
                         const PanelBoundary *Slots, double *Y,
                         std::size_t LdY, int Bw) {
  const std::vector<CvrChunk> &Chunks = M.chunks();
  for (int I = Begin; I < End; ++I) {
    const CvrChunk &C = Chunks[I];
    if (C.FirstRow < 0)
      continue;
    const PanelBoundary &S = Slots[I - Begin];
    double *YFirst = Y + static_cast<std::size_t>(C.FirstRow) * LdY;
    for (int J = 0; J < Bw; ++J)
      YFirst[J] += S.First[J];
    if (C.LastRow == C.FirstRow)
      continue;
    double *YLast = Y + static_cast<std::size_t>(C.LastRow) * LdY;
    for (int J = 0; J < Bw; ++J)
      YLast[J] += S.Last[J];
  }
}

/// One chunk of the register-blocked SpMM kernel: lane k accumulates a
/// whole panel row in a vector register, fed by one contiguous load of
/// X[Cols[step*8+k] * LdX .. +width) per element — no gathers. Structure
/// (records, stealing, tails) mirrors runChunkAvx with scalar write-backs
/// widened to panel rows.
template <class Panel, bool Accumulate>
CVR_HOT PanelBoundary runChunkSpmm(const CvrMatrix &M, const CvrChunk &C,
                                   const double *X, std::size_t LdX,
                                   double *Y, std::size_t LdY, Panel P,
                                   int PfDist) {
  constexpr int W = 8;
  const double *Vals = M.vals() + C.ElemBase;
  const std::int32_t *Cols = M.colIdx() + C.ElemBase;
  const CvrRecord *Recs = M.recs();
  std::int64_t RecIdx = C.RecBase;
  const std::int64_t RecEnd = C.RecEnd;

  typename Panel::Vec VOut[W], TRes[W];
  for (int K = 0; K < W; ++K) {
    VOut[K] = P.zero();
    TRes[K] = P.zero();
  }
  typename Panel::Vec BFirst = P.zero(), BLast = P.zero();

  // Finishes one row's panel block: exclusive rows store (or add, in
  // accumulate mode) a whole register; chunk-boundary rows add into the
  // chunk's boundary registers because the neighbouring chunk writes them
  // too.
  auto Finish = [&](std::int32_t Row, typename Panel::Vec V, bool Shared) {
    double *YRow = Y + static_cast<std::size_t>(Row) * LdY;
    if (Shared) {
      if (Row == C.FirstRow)
        BFirst = BFirst.add(V);
      else
        BLast = BLast.add(V);
    } else if (Accumulate) {
      P.store(P.load(YRow).add(V), YRow);
    } else {
      P.store(V, YRow);
    }
  };

  auto ApplyRecords = [&](std::int64_t Limit) {
    do {
      const CvrRecord &R = Recs[RecIdx];
      int Off = static_cast<int>(R.Pos & (W - 1));
      if (R.Steal)
        TRes[R.Wb] = TRes[R.Wb].add(VOut[Off]);
      else
        Finish(R.Wb, VOut[Off], R.Shared != 0);
      VOut[Off] = P.zero();
      ++RecIdx;
    } while (RecIdx < RecEnd && Recs[RecIdx].Pos < Limit);
  };

  for (std::int64_t I = 0; I < C.NumSteps; ++I) {
    if (RecIdx < RecEnd && Recs[RecIdx].Pos < (I + 1) * W)
      ApplyRecords((I + 1) * W);

    if (PfDist > 0 && I + PfDist < C.NumSteps) {
      // Touch the panel rows the pass consumes PfDist steps ahead (their
      // first line; a row is at most RhsBlock doubles) and stream the
      // matching value line. The index stream is sequential and short per
      // step, so the hardware prefetcher covers it.
      const std::int32_t *Pc = Cols + (I + PfDist) * W;
      for (int K = 0; K < W; ++K)
        __builtin_prefetch(X + static_cast<std::size_t>(Pc[K]) * LdX, 0, 1);
      __builtin_prefetch(Vals + (I + PfDist) * W, 0, 0);
    }

    for (int K = 0; K < W; ++K) {
      const double *XRow =
          X + static_cast<std::size_t>(Cols[I * W + K]) * LdX;
      VOut[K] = P.fmadd(VOut[K], Vals[I * W + K], XRow);
    }
  }

  if (RecIdx < RecEnd)
    ApplyRecords(std::numeric_limits<std::int64_t>::max());

  const std::int32_t *Tails = M.tails() + C.TailBase;
  for (int K = 0; K < W; ++K) {
    std::int32_t Row = Tails[K];
    if (Row < 0)
      continue;
    Finish(Row, TRes[K], Row == C.FirstRow || Row == C.LastRow);
  }
  PanelBoundary Out;
  P.spill(BFirst, Out.First);
  P.spill(BLast, Out.Last);
  return Out;
}

/// Generic any-lane-width SpMM chunk (lane-count ablation / forced-generic
/// matrices). Runtime lane and block widths; not performance-critical.
PanelBoundary runChunkSpmmGeneric(const CvrMatrix &M, const CvrChunk &C,
                                  const double *X, std::size_t LdX, double *Y,
                                  std::size_t LdY, int Bw, int PfDist,
                                  bool Accumulate) {
  const int W = M.lanes();
  const double *Vals = M.vals() + C.ElemBase;
  const std::int32_t *Cols = M.colIdx() + C.ElemBase;
  const CvrRecord *Recs = M.recs();
  std::int64_t RecIdx = C.RecBase;
  const std::int64_t RecEnd = C.RecEnd;

  // Lane k's panel block lives at [k * Bw, (k + 1) * Bw).
  std::vector<double> VOut(static_cast<std::size_t>(W) * Bw, 0.0);
  std::vector<double> TRes(static_cast<std::size_t>(W) * Bw, 0.0);
  PanelBoundary BP{};

  auto Finish = [&](std::int32_t Row, const double *V, bool Shared) {
    double *YRow = Y + static_cast<std::size_t>(Row) * LdY;
    if (Shared) {
      double *B = Row == C.FirstRow ? BP.First : BP.Last;
      for (int J = 0; J < Bw; ++J)
        B[J] += V[J];
    } else if (Accumulate) {
      for (int J = 0; J < Bw; ++J)
        YRow[J] += V[J];
    } else {
      for (int J = 0; J < Bw; ++J)
        YRow[J] = V[J];
    }
  };

  auto ApplyRecord = [&](const CvrRecord &R) {
    int Off = static_cast<int>(R.Pos % W);
    double *V = VOut.data() + static_cast<std::size_t>(Off) * Bw;
    if (R.Steal) {
      double *T = TRes.data() + static_cast<std::size_t>(R.Wb) * Bw;
      for (int J = 0; J < Bw; ++J)
        T[J] += V[J];
    } else {
      Finish(R.Wb, V, R.Shared != 0);
    }
    std::fill_n(V, Bw, 0.0);
  };

  for (std::int64_t I = 0; I < C.NumSteps; ++I) {
    while (RecIdx < RecEnd && Recs[RecIdx].Pos < (I + 1) * W)
      ApplyRecord(Recs[RecIdx++]);
    if (PfDist > 0 && I + PfDist < C.NumSteps) {
      const std::int32_t *Pc = Cols + (I + PfDist) * W;
      for (int K = 0; K < W; ++K)
        __builtin_prefetch(X + static_cast<std::size_t>(Pc[K]) * LdX, 0, 1);
    }
    for (int K = 0; K < W; ++K) {
      const double *XRow =
          X + static_cast<std::size_t>(Cols[I * W + K]) * LdX;
      double V = Vals[I * W + K];
      double *Acc = VOut.data() + static_cast<std::size_t>(K) * Bw;
      for (int J = 0; J < Bw; ++J)
        Acc[J] += V * XRow[J];
    }
  }
  while (RecIdx < RecEnd)
    ApplyRecord(Recs[RecIdx++]);

  const std::int32_t *Tails = M.tails() + C.TailBase;
  for (int K = 0; K < W; ++K) {
    std::int32_t Row = Tails[K];
    if (Row < 0)
      continue;
    Finish(Row, TRes.data() + static_cast<std::size_t>(K) * Bw,
           Row == C.FirstRow || Row == C.LastRow);
  }
  return BP;
}

/// What one chunk of the fused SpMM pass hands back: its per-column
/// epilogue partials and its boundary panel rows. Built in the kernel's
/// locals and returned by value, so chunks running side by side never
/// write a shared cache line; the caller stores each into its slot once.
struct FusedPanelResult {
  BatchEpilogueAccum Acc;
  PanelBoundary Bounds;
};

/// Fused twin of runChunkSpmm (no accumulate mode: blocked matrices
/// compose). Exclusive finalize sites spill the register block, apply the
/// per-column epilogue on the spilled row, and store the (possibly
/// transformed) values; shared rows collect raw partials for the ordered
/// merge, and the sequential cleanup pass applies their epilogue.
template <class Panel>
CVR_HOT FusedPanelResult runChunkSpmmFused(const CvrMatrix &M,
                                           const CvrChunk &C, const double *X,
                                           std::size_t LdX, double *Y,
                                           std::size_t LdY, Panel P,
                                           int PfDist,
                                           const FusedBatchEpilogue &E,
                                           int J0) {
  constexpr int W = 8;
  const double *Vals = M.vals() + C.ElemBase;
  const std::int32_t *Cols = M.colIdx() + C.ElemBase;
  const CvrRecord *Recs = M.recs();
  std::int64_t RecIdx = C.RecBase;
  const std::int64_t RecEnd = C.RecEnd;

  typename Panel::Vec VOut[W], TRes[W];
  for (int K = 0; K < W; ++K) {
    VOut[K] = P.zero();
    TRes[K] = P.zero();
  }
  typename Panel::Vec BFirst = P.zero(), BLast = P.zero();
  BatchEpilogueAccum Acc;

  auto Finish = [&](std::int32_t Row, typename Panel::Vec V, bool Shared) {
    if (Shared) {
      if (Row == C.FirstRow)
        BFirst = BFirst.add(V);
      else
        BLast = BLast.add(V);
      return;
    }
    double *YRow = Y + static_cast<std::size_t>(Row) * LdY;
    alignas(64) double Buf[W];
    P.spill(V, Buf);
    batchRowApply(E, Row, J0, P.width(), Buf, Acc);
    for (int J = 0; J < P.width(); ++J)
      YRow[J] = Buf[J];
  };

  auto ApplyRecords = [&](std::int64_t Limit) {
    do {
      const CvrRecord &R = Recs[RecIdx];
      int Off = static_cast<int>(R.Pos & (W - 1));
      if (R.Steal)
        TRes[R.Wb] = TRes[R.Wb].add(VOut[Off]);
      else
        Finish(R.Wb, VOut[Off], R.Shared != 0);
      VOut[Off] = P.zero();
      ++RecIdx;
    } while (RecIdx < RecEnd && Recs[RecIdx].Pos < Limit);
  };

  for (std::int64_t I = 0; I < C.NumSteps; ++I) {
    if (RecIdx < RecEnd && Recs[RecIdx].Pos < (I + 1) * W)
      ApplyRecords((I + 1) * W);

    if (PfDist > 0 && I + PfDist < C.NumSteps) {
      const std::int32_t *Pc = Cols + (I + PfDist) * W;
      for (int K = 0; K < W; ++K)
        __builtin_prefetch(X + static_cast<std::size_t>(Pc[K]) * LdX, 0, 1);
      __builtin_prefetch(Vals + (I + PfDist) * W, 0, 0);
    }

    for (int K = 0; K < W; ++K) {
      const double *XRow =
          X + static_cast<std::size_t>(Cols[I * W + K]) * LdX;
      VOut[K] = P.fmadd(VOut[K], Vals[I * W + K], XRow);
    }
  }

  if (RecIdx < RecEnd)
    ApplyRecords(std::numeric_limits<std::int64_t>::max());

  const std::int32_t *Tails = M.tails() + C.TailBase;
  for (int K = 0; K < W; ++K) {
    std::int32_t Row = Tails[K];
    if (Row < 0)
      continue;
    Finish(Row, TRes[K], Row == C.FirstRow || Row == C.LastRow);
  }
  FusedPanelResult Out;
  Out.Acc = Acc;
  P.spill(BFirst, Out.Bounds.First);
  P.spill(BLast, Out.Bounds.Last);
  return Out;
}

/// Zeroes the Bw-wide slice of the rows the chunk sweep never plain-stores
/// (chunk-boundary rows accumulate, empty rows are never written).
void zeroRowsSlice(const CvrMatrix &M, double *Y, std::size_t LdY, int Bw) {
  for (std::int32_t R : M.zeroRows())
    std::fill_n(Y + static_cast<std::size_t>(R) * LdY, Bw, 0.0);
}

/// Runs chunks [Begin, End) of one pass across M.runThreads() threads,
/// dynamic schedule under over-decomposition (same policy as SpMV), then
/// merges their boundary panel rows in chunk order.
template <bool Accumulate>
void runSpmmChunkRange(const CvrMatrix &M, int Begin, int End,
                       const double *X, std::size_t LdX, double *Y,
                       std::size_t LdY, int Bw, int PfDist) {
  const std::vector<CvrChunk> &Chunks = M.chunks();
  int N = End - Begin;
  int Threads = std::min(M.runThreads(), N);
  bool UseAvx = M.lanes() == simd::DoubleLanes && !M.forcesGenericKernel();
  PanelBoundarySlots Slots(N);

  auto Body = [&](int T) {
    const CvrChunk &C = Chunks[Begin + T];
    if (!UseAvx)
      Slots[T] = runChunkSpmmGeneric(M, C, X, LdX, Y, LdY, Bw, PfDist,
                                     Accumulate);
    else if (Bw == 8)
      Slots[T] = runChunkSpmm<Panel8, Accumulate>(M, C, X, LdX, Y, LdY,
                                                  Panel8{}, PfDist);
    else if (Bw == 4)
      Slots[T] = runChunkSpmm<Panel4, Accumulate>(M, C, X, LdX, Y, LdY,
                                                  Panel4{}, PfDist);
    else
      Slots[T] = runChunkSpmm<PanelTail, Accumulate>(M, C, X, LdX, Y, LdY,
                                                     PanelTail(Bw), PfDist);
  };
  if (N > Threads)
    ompParallelForDynamic(N, Threads, Body);
  else
    ompParallelFor(N, Threads, Body);
  mergeBoundaryPanels(M, Begin, End, Slots.data(), Y, LdY, Bw);
}

/// One pass over the whole matrix covering Bw panel columns starting at
/// the (already offset) X / Y pointers.
void runSpmmPass(const CvrMatrix &M, const double *X, std::size_t LdX,
                 double *Y, std::size_t LdY, int Bw, int PfDist) {
  if (M.isBlocked()) {
    // Accumulate mode: clear the pass's column slice of all rows once,
    // then add each band's partial products; bands run sequentially.
    for (std::int32_t R = 0; R < M.numRows(); ++R)
      std::fill_n(Y + static_cast<std::size_t>(R) * LdY, Bw, 0.0);
    for (const CvrBand &B : M.bands())
      runSpmmChunkRange<true>(M, B.ChunkBegin, B.ChunkEnd, X, LdX, Y, LdY,
                              Bw, PfDist);
    return;
  }
  zeroRowsSlice(M, Y, LdY, Bw);
  runSpmmChunkRange<false>(M, 0, M.numChunks(), X, LdX, Y, LdY, Bw, PfDist);
}

/// Validates one SpMM panel request; the release-build replacement for the
/// old leading-dimension asserts.
[[nodiscard]] Status validateSpmmArgs(const double *X, std::size_t LdX,
                                      const double *Y, std::size_t LdY,
                                      int NumVectors) {
  if (NumVectors < 1)
    return Status::invalidArgument("SpMM needs NumVectors >= 1, got " +
                                   std::to_string(NumVectors));
  if (!X || !Y)
    return Status::invalidArgument("SpMM panels must be non-null");
  if (LdX < static_cast<std::size_t>(NumVectors))
    return Status::invalidArgument(
        "row-major X panel stride LdX=" + std::to_string(LdX) +
        " must cover NumVectors=" + std::to_string(NumVectors));
  if (LdY < static_cast<std::size_t>(NumVectors))
    return Status::invalidArgument(
        "row-major Y panel stride LdY=" + std::to_string(LdY) +
        " must cover NumVectors=" + std::to_string(NumVectors));
  return Status::okStatus();
}

/// Per-call SpMM counters: one structural sweep, never inside the hot
/// loops. Passes == 0 marks a composed fused call whose unfused half
/// already counted the run.
void recordCvrSpmmTelemetry(int NumVectors, int Passes, bool Fused) {
  if (!obs::telemetryEnabled())
    return;
  static obs::Counter &Runs = obs::counter("spmv.cvr.spmm_runs");
  static obs::Counter &Cols = obs::counter("spmv.cvr.spmm_cols");
  static obs::Counter &PassCount = obs::counter("spmv.cvr.spmm_passes");
  static obs::Counter &FusedRuns = obs::counter("spmv.cvr.spmm_fused_runs");
  if (Passes > 0) {
    Runs.inc();
    Cols.add(NumVectors);
    PassCount.add(Passes);
  }
  if (Fused)
    FusedRuns.inc();
}

/// Compressed-stream matrices (F32x64 values / U16Band indices) compose
/// SpMM from per-column SpMV runs through contiguous scratch: the
/// register-blocked panel kernels read the uncompressed streams directly,
/// and rewriting them per kind would triple their instantiation count for
/// a path whose payoff is amortizing *matrix* traffic — which compression
/// already shrinks. DESIGN.md section 17 records this scope gate.
[[nodiscard]] Status cvrSpmmComposed(const CvrMatrix &M, const double *X, std::size_t LdX,
                       double *Y, std::size_t LdY, int NumVectors,
                       const CvrSpmmOptions &Opts) try {
  const int Pf = snapPrefetchDistance(Opts.PrefetchDistance);
  std::vector<double> Xc(static_cast<std::size_t>(M.numCols()));
  std::vector<double> Yc(static_cast<std::size_t>(M.numRows()));
  for (int J = 0; J < NumVectors; ++J) {
    for (std::int32_t I = 0; I < M.numCols(); ++I)
      Xc[static_cast<std::size_t>(I)] =
          X[static_cast<std::size_t>(I) * LdX + J];
    cvrSpmv(M, Xc.data(), Yc.data(), Pf);
    for (std::int32_t I = 0; I < M.numRows(); ++I)
      Y[static_cast<std::size_t>(I) * LdY + J] =
          Yc[static_cast<std::size_t>(I)];
  }
  recordCvrSpmmTelemetry(NumVectors, NumVectors, /*Fused=*/false);
  return Status::okStatus();
} catch (const std::bad_alloc &) {
  return Status::resourceExhausted("composed SpMM: scratch allocation failed");
}

} // namespace

int snapRhsBlock(int B) {
  if (B <= 0)
    return 8;
  return B <= 4 ? 4 : 8;
}

Status cvrSpmm(const CvrMatrix &M, const double *X, std::size_t LdX,
               double *Y, std::size_t LdY, int NumVectors,
               const CvrSpmmOptions &Opts) {
  Status S = validateSpmmArgs(X, LdX, Y, LdY, NumVectors);
  if (!S.ok())
    return S;
  obs::TraceSpan Span("execute/spmm", "execute");
  Span.arg("cols", NumVectors);
  if (M.valueKind() != ValueKind::F64 ||
      M.colIndexKind() != ColIndexKind::U32)
    return cvrSpmmComposed(M, X, LdX, Y, LdY, NumVectors, Opts);
  const int Rhs = snapRhsBlock(Opts.RhsBlock);
  const int Pf = snapPrefetchDistance(Opts.PrefetchDistance);
  int Passes = 0;
  for (int J0 = 0; J0 < NumVectors;) {
    int Bw = std::min(Rhs, NumVectors - J0);
    runSpmmPass(M, X + J0, LdX, Y + J0, LdY, Bw, Pf);
    J0 += Bw;
    ++Passes;
  }
  recordCvrSpmmTelemetry(NumVectors, Passes, /*Fused=*/false);
  return Status::okStatus();
}

Status cvrSpmmFused(const CvrMatrix &M, const double *X, std::size_t LdX,
                    double *Y, std::size_t LdY, int NumVectors,
                    FusedBatchEpilogue &E, const CvrSpmmOptions &Opts) {
  Status S = validateSpmmArgs(X, LdX, Y, LdY, NumVectors);
  if (!S.ok())
    return S;
  if (E.Op != EpilogueOp::None && E.NumVectors != NumVectors)
    return Status::invalidArgument(
        "batch epilogue covers " + std::to_string(E.NumVectors) +
        " columns but the SpMM call has " + std::to_string(NumVectors));
  if (E.Op == EpilogueOp::None) {
    for (int J = 0; J < NumVectors; ++J) {
      if (E.Acc1)
        E.Acc1[J] = 0.0;
      if (E.Acc2)
        E.Acc2[J] = 0.0;
    }
    return cvrSpmm(M, X, LdX, Y, LdY, NumVectors, Opts);
  }

  bool UseAvx = M.lanes() == simd::DoubleLanes && !M.forcesGenericKernel();
  if (M.isBlocked() || !UseAvx || M.valueKind() != ValueKind::F64 ||
      M.colIndexKind() != ColIndexKind::U32) {
    // Accumulate mode finishes no row until the last band (the generic
    // kernel has no fused finalize sites, and compressed streams take the
    // composed path throughout); compose.
    S = cvrSpmm(M, X, LdX, Y, LdY, NumVectors, Opts);
    if (!S.ok())
      return S;
    obs::TraceSpan Span("execute/fused-epilogue", "execute");
    applyBatchEpilogueScalar(E, Y, LdY, M.numRows());
    recordCvrSpmmTelemetry(NumVectors, /*Passes=*/0, /*Fused=*/true);
    return Status::okStatus();
  }

  obs::TraceSpan Span("execute/spmm-fused", "execute");
  Span.arg("cols", NumVectors);
  const int Rhs = snapRhsBlock(Opts.RhsBlock);
  const int Pf = snapPrefetchDistance(Opts.PrefetchDistance);

  const std::vector<CvrChunk> &Chunks = M.chunks();
  const int N = static_cast<int>(Chunks.size());
  const int Threads = std::min(M.runThreads(), std::max(N, 1));

  // Per-chunk partial accumulators and boundary panel rows, merged in
  // chunk index order per pass. Each chunk kernel returns its own and the
  // slots take one store per chunk.
  ChunkSlots<BatchEpilogueAccum, MaxStackChunks> Accs(N);
  PanelBoundarySlots Bounds(N);

  int Passes = 0;
  for (int J0 = 0; J0 < NumVectors;) {
    const int Bw = std::min(Rhs, NumVectors - J0);
    const double *Xp = X + J0;
    double *Yp = Y + J0;
    zeroRowsSlice(M, Yp, LdY, Bw);

    auto Body = [&](int T) {
      const CvrChunk &C = Chunks[T];
      FusedPanelResult R =
          Bw == 8   ? runChunkSpmmFused<Panel8>(M, C, Xp, LdX, Yp, LdY,
                                                Panel8{}, Pf, E, J0)
          : Bw == 4 ? runChunkSpmmFused<Panel4>(M, C, Xp, LdX, Yp, LdY,
                                                Panel4{}, Pf, E, J0)
                    : runChunkSpmmFused<PanelTail>(M, C, Xp, LdX, Yp, LdY,
                                                   PanelTail(Bw), Pf, E, J0);
      Accs[T] = R.Acc;
      Bounds[T] = R.Bounds;
    };
    if (N > Threads)
      ompParallelForDynamic(N, Threads, Body);
    else
      ompParallelFor(N, Threads, Body);
    mergeBoundaryPanels(M, 0, N, Bounds.data(), Yp, LdY, Bw);

    BatchEpilogueAccum Total;
    for (int T = 0; T < N; ++T)
      mergeBatchAccum(E, Total, Accs[T]);

    // Sequential cleanup: boundary + empty rows in zero-row order, merged
    // last; their panel rows hold raw partial sums at this point.
    BatchEpilogueAccum Cleanup;
    for (std::int32_t R : M.zeroRows())
      batchRowApply(E, R, J0, Bw, Yp + static_cast<std::size_t>(R) * LdY,
                    Cleanup);
    mergeBatchAccum(E, Total, Cleanup);
    storeBatchAccum(E, Total, J0, Bw);

    J0 += Bw;
    ++Passes;
  }
  recordCvrSpmmTelemetry(NumVectors, Passes, /*Fused=*/true);
  return Status::okStatus();
}

Status CvrKernel::runBatch(const double *X, std::size_t LdX, double *Y,
                           std::size_t LdY, int NumVectors) const {
  CvrSpmmOptions SOpts;
  SOpts.RhsBlock = options().RhsBlock;
  SOpts.PrefetchDistance = options().PrefetchDistance;
  return cvrSpmm(matrix(), X, LdX, Y, LdY, NumVectors, SOpts);
}

Status CvrKernel::runBatchFused(const double *X, std::size_t LdX, double *Y,
                                std::size_t LdY, int NumVectors,
                                FusedBatchEpilogue &E) const {
  CvrSpmmOptions SOpts;
  SOpts.RhsBlock = options().RhsBlock;
  SOpts.PrefetchDistance = options().PrefetchDistance;
  return cvrSpmmFused(matrix(), X, LdX, Y, LdY, NumVectors, E, SOpts);
}

} // namespace cvr
