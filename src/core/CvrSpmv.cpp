//===- core/CvrSpmv.cpp - SpMV over the CVR format ------------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Execution-engine variants: the chunk kernels are templated on the
// software-prefetch distance (steps ahead at which x gather targets are
// touched) and on accumulate mode (column-blocked matrices add each band's
// partial products into y instead of storing finished rows). Chunk
// over-decomposition runs more chunks than threads under a dynamic
// schedule. All variants compute the same y; the autotuner in src/engine
// picks among them per matrix.
//
// Rows split across chunks take per-chunk partials merged in chunk order:
// each chunk sums its contributions to its two boundary rows in locals,
// stores them once into its own slot, and a sequential pass after the join
// adds the slots into y in chunk index order. For a fixed plan and thread
// count y is therefore bit-identical run to run, however the dynamic
// schedule ordered the chunks.
//
//===----------------------------------------------------------------------===//

#include "core/CvrSpmv.h"

#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "simd/Simd.h"
#include "support/Annotations.h"
#include "support/ChunkSlots.h"
#include "support/ParallelFor.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace cvr {

namespace {

/// A chunk's partial sums for its boundary rows, C.FirstRow and C.LastRow:
/// the only rows a neighbouring chunk also writes (one row when it spans
/// the whole chunk). A chunk kernel adds into a local copy in the order it
/// produces the partials and stores it into the chunk's slot once, at the
/// end, so the hot loop writes no shared cache line. Trivial on purpose:
/// ChunkSlots leaves the slot array uninitialized.
struct BoundaryPartials {
  std::int32_t FirstRow;
  double First;
  double Last;

  static BoundaryPartials of(const CvrChunk &C) {
    return {C.FirstRow, 0.0, 0.0};
  }
  void add(std::int32_t Row, double V) {
    (Row == FirstRow ? First : Last) += V;
  }
};

/// Stack slots per parallel pass before ChunkSlots spills to the heap.
constexpr int MaxStackChunks = 512;
using BoundarySlots = ChunkSlots<BoundaryPartials, MaxStackChunks>;

/// Adds the boundary partials of chunks [Begin, End) into y in chunk index
/// order (Slots[I] belongs to chunk Begin + I). Runs after the join, so the
/// sum a split row receives does not depend on the schedule.
void mergeBoundaryRows(const CvrMatrix &M, int Begin, int End,
                       const BoundaryPartials *Slots, double *Y) {
  const std::vector<CvrChunk> &Chunks = M.chunks();
  for (int I = Begin; I < End; ++I) {
    const CvrChunk &C = Chunks[I];
    if (C.FirstRow < 0)
      continue;
    const BoundaryPartials &P = Slots[I - Begin];
    Y[C.FirstRow] += P.First;
    if (C.LastRow != C.FirstRow)
      Y[C.LastRow] += P.Last;
  }
}

/// Scatters a finished lane value to y (feed records and tail flushes).
/// Chunk-boundary rows go to the chunk's BoundaryPartials, because the
/// neighbouring chunk contributes to them too; every other row has exactly
/// one writer within a band, so a plain store (or plain add, in accumulate
/// mode — bands run sequentially) suffices.
template <bool Accumulate>
CVR_HOT inline void writeBack(double *Y, std::int32_t Row, double V,
                              bool Shared, BoundaryPartials &BP) {
  if (Shared)
    BP.add(Row, V);
  else if (Accumulate)
    Y[Row] += V;
  else
    Y[Row] = V;
}

/// Applies every record with Pos < Limit: feed records scatter the lane's
/// finished dot product straight into y (one masked scatter for the common
/// exclusive-row case; accumulate mode turns it into gather+add+scatter),
/// boundary-row feeds add into \p BP, steal records accumulate into the
/// chunk's t_result slots, and the applied lanes are zeroed. Returns the
/// updated v_out.
template <bool Accumulate>
CVR_HOT inline simd::VecD8 applyRecords(simd::VecD8 VOut,
                                        const CvrRecord *Recs,
                                std::int64_t &RecIdx, std::int64_t RecEnd,
                                std::int64_t Limit, double *Y,
                                double *TResult, BoundaryPartials &BP) {
#if CVR_SIMD_AVX512
  alignas(32) std::int32_t WbBuf[8];
  __mmask8 FeedMask = 0, ClearMask = 0;
  do {
    const CvrRecord &R = Recs[RecIdx];
    int Off = static_cast<int>(R.Pos & 7);
    auto Bit = static_cast<__mmask8>(1U << Off);
    if (!R.Steal && !R.Shared) {
      WbBuf[Off] = R.Wb;
      FeedMask |= Bit;
    } else {
      // Single-lane extraction via a masked horizontal add.
      double V = _mm512_mask_reduce_add_pd(Bit, VOut.Reg);
      if (R.Steal)
        TResult[R.Wb] += V;
      else
        BP.add(R.Wb, V);
    }
    ClearMask |= Bit;
    ++RecIdx;
  } while (RecIdx < RecEnd && Recs[RecIdx].Pos < Limit);
  if (FeedMask) {
    __m256i Idx =
        _mm256_load_si256(reinterpret_cast<const __m256i *>(WbBuf));
    __m512d Out = VOut.Reg;
    if constexpr (Accumulate) {
      // Distinct rows per batch (a row finishes once per chunk), so the
      // gather+add+scatter never self-conflicts.
      __m512d Old = _mm512_mask_i32gather_pd(_mm512_setzero_pd(), FeedMask,
                                             Idx, Y, 8);
      Out = _mm512_add_pd(Old, VOut.Reg);
    }
    _mm512_mask_i32scatter_pd(Y, FeedMask, Idx, Out, 8);
  }
  VOut.Reg = _mm512_maskz_mov_pd(static_cast<__mmask8>(~ClearMask),
                                 VOut.Reg);
  return VOut;
#else
  alignas(64) double Buf[8];
  VOut.toArray(Buf);
  do {
    const CvrRecord &R = Recs[RecIdx];
    int Off = static_cast<int>(R.Pos & 7);
    if (R.Steal)
      TResult[R.Wb] += Buf[Off];
    else
      writeBack<Accumulate>(Y, R.Wb, Buf[Off], R.Shared, BP);
    Buf[Off] = 0.0;
    ++RecIdx;
  } while (RecIdx < RecEnd && Recs[RecIdx].Pos < Limit);
  return simd::VecD8::fromArray(Buf);
#endif
}

/// One chunk of the vectorized 8-lane kernel (Algorithm 4). PfDist > 0
/// issues software prefetches of the x gather targets (and the vals/cols
/// streams) PfDist steps ahead, using the already-streamed column indices;
/// the host has no AVX-512PF, so the prefetches are scalar.
///
/// NarrowIdx streams band-local uint16 deltas (widened + rebased onto
/// \p ColBase at load time) and NarrowVal streams fp32 values (widened to
/// fp64 before the FMA) — the stream-compression axes. The loop structure
/// — one index load per two steps, one value load and one gather per step
/// — is identical across all four combinations; only the load width
/// changes.
template <int PfDist, bool Accumulate, bool NarrowIdx, bool NarrowVal>
CVR_HOT void runChunkAvx(const CvrMatrix &M, const CvrChunk &C,
                         const double *X,
                 double *Y, std::int32_t ColBase, BoundaryPartials &Out) {
  static_assert(PfDist % 2 == 0, "prefetch pairs with the double-pumped "
                                 "column loads, so the distance stays even");
  constexpr int W = 8;
  const double *Vals = NarrowVal ? nullptr : M.vals() + C.ElemBase;
  const float *Vals32 = NarrowVal ? M.vals32() + C.ElemBase : nullptr;
  const std::int32_t *Cols = NarrowIdx ? nullptr : M.colIdx() + C.ElemBase;
  const std::uint16_t *ColsN =
      NarrowIdx ? M.colIdx16() + C.ElemBase : nullptr;
  const CvrRecord *Recs = M.recs();
  std::int64_t RecIdx = C.RecBase;
  const std::int64_t RecEnd = C.RecEnd;

  alignas(64) double TResult[W] = {0};
  BoundaryPartials BP = BoundaryPartials::of(C);
  simd::VecD8 VOut = simd::VecD8::zero();
  simd::VecI16 Cols16{};

  for (std::int64_t I = 0; I < C.NumSteps; ++I) {
    // Write-back records that fall into this step (the lane's dot product
    // is complete just before the step's elements are consumed).
    if (RecIdx < RecEnd && Recs[RecIdx].Pos < (I + 1) * W)
      VOut = applyRecords<Accumulate>(VOut, Recs, RecIdx, RecEnd,
                                      (I + 1) * W, Y, TResult, BP);

    if constexpr (PfDist > 0) {
      if ((I & 1) == 0 && I + PfDist + 1 < C.NumSteps) {
        // Pull the index line two prefetch windows out so the window at
        // PfDist reads cached indices, then touch the 16 x targets for
        // the step pair at PfDist and stream the matching value lines.
        if constexpr (NarrowIdx) {
          __builtin_prefetch(ColsN + (I + 2 * PfDist) * W, 0, 0);
          const std::uint16_t *Pc = ColsN + (I + PfDist) * W;
          for (int K = 0; K < 2 * W; ++K)
            __builtin_prefetch(X + ColBase + Pc[K], 0, 1);
        } else {
          __builtin_prefetch(Cols + (I + 2 * PfDist) * W, 0, 0);
          const std::int32_t *Pc = Cols + (I + PfDist) * W;
          for (int K = 0; K < 2 * W; ++K)
            __builtin_prefetch(X + Pc[K], 0, 1);
        }
        if constexpr (NarrowVal) {
          __builtin_prefetch(Vals32 + (I + PfDist) * W, 0, 0);
          __builtin_prefetch(Vals32 + (I + PfDist + 1) * W, 0, 0);
        } else {
          __builtin_prefetch(Vals + (I + PfDist) * W, 0, 0);
          __builtin_prefetch(Vals + (I + PfDist + 1) * W, 0, 0);
        }
      }
    }

    // Column-index double pumping: one 16-wide load per two steps (int32
    // direct, or uint16 widened + rebased onto the band).
    if ((I & 1) == 0) {
      if constexpr (NarrowIdx)
        Cols16 = simd::VecI16::loadU16Widen(ColsN + I * W, ColBase);
      else
        Cols16 = simd::VecI16::loadAligned(Cols + I * W);
    }
    simd::VecI8 Idx = (I & 1) ? Cols16.hi() : Cols16.lo();

    simd::VecD8 Xs = simd::VecD8::gather(X, Idx);
    simd::VecD8 Vs = NarrowVal ? simd::VecD8::loadF32Widen(Vals32 + I * W)
                               : simd::VecD8::loadAligned(Vals + I * W);
    VOut = VOut.fmadd(Vs, Xs);
  }

  // Trailing records (pieces that finish exactly at the stream end).
  if (RecIdx < RecEnd)
    applyRecords<Accumulate>(VOut, Recs, RecIdx, RecEnd,
                             std::numeric_limits<std::int64_t>::max(), Y,
                             TResult, BP);

  // Tail flush: t_result slots back to their rows (Algorithm 4 l.31-33).
  const std::int32_t *Tails = M.tails() + C.TailBase;
  for (int K = 0; K < W; ++K) {
    std::int32_t Row = Tails[K];
    if (Row < 0)
      continue;
    bool Shared = Row == C.FirstRow || Row == C.LastRow;
    writeBack<Accumulate>(Y, Row, TResult[K], Shared, BP);
  }
  Out = BP;
}

/// Generic any-width kernel (lane-count ablation / non-AVX hosts).
/// Accumulate, the prefetch distance, and the stream kinds are runtime
/// parameters here: this path is not performance-critical. The compressed
/// streams decode per element — scalar widening of uint16 deltas (plus
/// the chunk's band base) and fp32 values, with fp64 accumulation.
void runChunkGeneric(const CvrMatrix &M, const CvrChunk &C, const double *X,
                     double *Y, int PfDist, bool Accumulate,
                     BoundaryPartials &Out) {
  const int W = M.lanes();
  const std::int64_t EB = C.ElemBase;
  const std::int32_t Base = M.chunkColBase(
      static_cast<std::size_t>(&C - M.chunks().data()));
  const CvrRecord *Recs = M.recs();
  std::int64_t RecIdx = C.RecBase;
  const std::int64_t RecEnd = C.RecEnd;

  std::vector<double> TResult(W, 0.0);
  std::vector<double> VOut(W, 0.0);
  BoundaryPartials BP = BoundaryPartials::of(C);

  auto Store = [&](std::int32_t Row, double V, bool Shared) {
    if (Accumulate)
      writeBack<true>(Y, Row, V, Shared, BP);
    else
      writeBack<false>(Y, Row, V, Shared, BP);
  };

  for (std::int64_t I = 0; I < C.NumSteps; ++I) {
    while (RecIdx < RecEnd && Recs[RecIdx].Pos < (I + 1) * W) {
      const CvrRecord &R = Recs[RecIdx];
      int Off = static_cast<int>(R.Pos % W);
      if (R.Steal)
        TResult[R.Wb] += VOut[Off];
      else
        Store(R.Wb, VOut[Off], R.Shared);
      VOut[Off] = 0.0;
      ++RecIdx;
    }
    if (PfDist > 0 && I + PfDist < C.NumSteps) {
      for (int K = 0; K < W; ++K)
        __builtin_prefetch(X + M.colAt(EB + (I + PfDist) * W + K, Base), 0,
                           1);
    }
    for (int K = 0; K < W; ++K)
      VOut[K] +=
          M.valueAt(EB + I * W + K) * X[M.colAt(EB + I * W + K, Base)];
  }

  for (; RecIdx < RecEnd; ++RecIdx) {
    const CvrRecord &R = Recs[RecIdx];
    int Off = static_cast<int>(R.Pos % W);
    if (R.Steal)
      TResult[R.Wb] += VOut[Off];
    else
      Store(R.Wb, VOut[Off], R.Shared);
    VOut[Off] = 0.0;
  }

  const std::int32_t *Tails = M.tails() + C.TailBase;
  for (int K = 0; K < W; ++K) {
    std::int32_t Row = Tails[K];
    if (Row < 0)
      continue;
    bool Shared = Row == C.FirstRow || Row == C.LastRow;
    Store(Row, TResult[K], Shared);
  }
  Out = BP;
}

/// Fused-path record application. Exclusive feed records apply the epilogue
/// to the lane's finished dot product and store the result; shared feeds
/// add the raw partial into \p BP (the epilogue for boundary rows runs in
/// cvrSpmvFused's sequential cleanup pass, after the ordered merge); steal
/// records spill to t_result as usual. Scalar spill instead of the
/// masked-scatter batching: the epilogue is a per-row scalar op anyway, and
/// records are rare relative to steps.
CVR_HOT inline simd::VecD8 applyRecordsFused(simd::VecD8 VOut,
                                             const CvrRecord *Recs,
                                     std::int64_t &RecIdx,
                                     std::int64_t RecEnd, std::int64_t Limit,
                                     double *Y, double *TResult,
                                     const FusedEpilogue &E, const double *X,
                                     EpilogueAccum &Acc,
                                     BoundaryPartials &BP) {
  alignas(64) double Buf[8];
  VOut.toArray(Buf);
  do {
    const CvrRecord &R = Recs[RecIdx];
    int Off = static_cast<int>(R.Pos & 7);
    if (R.Steal) {
      TResult[R.Wb] += Buf[Off];
    } else if (R.Shared) {
      BP.add(R.Wb, Buf[Off]);
    } else {
      Y[R.Wb] = fusedRowApply(E, X, R.Wb, Buf[Off], Acc);
    }
    Buf[Off] = 0.0;
    ++RecIdx;
  } while (RecIdx < RecEnd && Recs[RecIdx].Pos < Limit);
  return simd::VecD8::fromArray(Buf);
}

/// Fused twin of runChunkAvx (no accumulate mode: blocked matrices compose
/// instead). The streaming loop is identical; only the finalize sites
/// differ. NarrowIdx/NarrowVal mirror runChunkAvx's compressed-stream
/// loads.
template <int PfDist, bool NarrowIdx, bool NarrowVal>
CVR_HOT void runChunkAvxFused(const CvrMatrix &M, const CvrChunk &C,
                              const double *X,
                      double *Y, const FusedEpilogue &E, EpilogueAccum &Acc,
                      std::int32_t ColBase, BoundaryPartials &Out) {
  static_assert(PfDist % 2 == 0, "prefetch pairs with the double-pumped "
                                 "column loads, so the distance stays even");
  constexpr int W = 8;
  const double *Vals = NarrowVal ? nullptr : M.vals() + C.ElemBase;
  const float *Vals32 = NarrowVal ? M.vals32() + C.ElemBase : nullptr;
  const std::int32_t *Cols = NarrowIdx ? nullptr : M.colIdx() + C.ElemBase;
  const std::uint16_t *ColsN =
      NarrowIdx ? M.colIdx16() + C.ElemBase : nullptr;
  const CvrRecord *Recs = M.recs();
  std::int64_t RecIdx = C.RecBase;
  const std::int64_t RecEnd = C.RecEnd;

  alignas(64) double TResult[W] = {0};
  BoundaryPartials BP = BoundaryPartials::of(C);
  simd::VecD8 VOut = simd::VecD8::zero();
  simd::VecI16 Cols16{};

  for (std::int64_t I = 0; I < C.NumSteps; ++I) {
    if (RecIdx < RecEnd && Recs[RecIdx].Pos < (I + 1) * W)
      VOut = applyRecordsFused(VOut, Recs, RecIdx, RecEnd, (I + 1) * W, Y,
                               TResult, E, X, Acc, BP);

    if constexpr (PfDist > 0) {
      if ((I & 1) == 0 && I + PfDist + 1 < C.NumSteps) {
        if constexpr (NarrowIdx) {
          __builtin_prefetch(ColsN + (I + 2 * PfDist) * W, 0, 0);
          const std::uint16_t *Pc = ColsN + (I + PfDist) * W;
          for (int K = 0; K < 2 * W; ++K)
            __builtin_prefetch(X + ColBase + Pc[K], 0, 1);
        } else {
          __builtin_prefetch(Cols + (I + 2 * PfDist) * W, 0, 0);
          const std::int32_t *Pc = Cols + (I + PfDist) * W;
          for (int K = 0; K < 2 * W; ++K)
            __builtin_prefetch(X + Pc[K], 0, 1);
        }
        if constexpr (NarrowVal) {
          __builtin_prefetch(Vals32 + (I + PfDist) * W, 0, 0);
          __builtin_prefetch(Vals32 + (I + PfDist + 1) * W, 0, 0);
        } else {
          __builtin_prefetch(Vals + (I + PfDist) * W, 0, 0);
          __builtin_prefetch(Vals + (I + PfDist + 1) * W, 0, 0);
        }
      }
    }

    if ((I & 1) == 0) {
      if constexpr (NarrowIdx)
        Cols16 = simd::VecI16::loadU16Widen(ColsN + I * W, ColBase);
      else
        Cols16 = simd::VecI16::loadAligned(Cols + I * W);
    }
    simd::VecI8 Idx = (I & 1) ? Cols16.hi() : Cols16.lo();

    simd::VecD8 Xs = simd::VecD8::gather(X, Idx);
    simd::VecD8 Vs = NarrowVal ? simd::VecD8::loadF32Widen(Vals32 + I * W)
                               : simd::VecD8::loadAligned(Vals + I * W);
    VOut = VOut.fmadd(Vs, Xs);
  }

  if (RecIdx < RecEnd)
    applyRecordsFused(VOut, Recs, RecIdx, RecEnd,
                      std::numeric_limits<std::int64_t>::max(), Y, TResult,
                      E, X, Acc, BP);

  const std::int32_t *Tails = M.tails() + C.TailBase;
  for (int K = 0; K < W; ++K) {
    std::int32_t Row = Tails[K];
    if (Row < 0)
      continue;
    if (Row == C.FirstRow || Row == C.LastRow)
      BP.add(Row, TResult[K]);
    else
      Y[Row] = fusedRowApply(E, X, Row, TResult[K], Acc);
  }
  Out = BP;
}

/// Fused twin of runChunkGeneric (any lane width, runtime prefetch, and
/// runtime stream-kind decode like runChunkGeneric).
void runChunkGenericFused(const CvrMatrix &M, const CvrChunk &C,
                          const double *X, double *Y, int PfDist,
                          const FusedEpilogue &E, EpilogueAccum &Acc,
                          BoundaryPartials &Out) {
  const int W = M.lanes();
  const std::int64_t EB = C.ElemBase;
  const std::int32_t Base = M.chunkColBase(
      static_cast<std::size_t>(&C - M.chunks().data()));
  const CvrRecord *Recs = M.recs();
  std::int64_t RecIdx = C.RecBase;
  const std::int64_t RecEnd = C.RecEnd;

  std::vector<double> TResult(W, 0.0);
  std::vector<double> VOut(W, 0.0);
  BoundaryPartials BP = BoundaryPartials::of(C);

  auto Finish = [&](std::int32_t Row, double V, bool Shared) {
    if (Shared)
      BP.add(Row, V);
    else
      Y[Row] = fusedRowApply(E, X, Row, V, Acc);
  };

  for (std::int64_t I = 0; I < C.NumSteps; ++I) {
    while (RecIdx < RecEnd && Recs[RecIdx].Pos < (I + 1) * W) {
      const CvrRecord &R = Recs[RecIdx];
      int Off = static_cast<int>(R.Pos % W);
      if (R.Steal)
        TResult[R.Wb] += VOut[Off];
      else
        Finish(R.Wb, VOut[Off], R.Shared);
      VOut[Off] = 0.0;
      ++RecIdx;
    }
    if (PfDist > 0 && I + PfDist < C.NumSteps) {
      for (int K = 0; K < W; ++K)
        __builtin_prefetch(X + M.colAt(EB + (I + PfDist) * W + K, Base), 0,
                           1);
    }
    for (int K = 0; K < W; ++K)
      VOut[K] +=
          M.valueAt(EB + I * W + K) * X[M.colAt(EB + I * W + K, Base)];
  }

  for (; RecIdx < RecEnd; ++RecIdx) {
    const CvrRecord &R = Recs[RecIdx];
    int Off = static_cast<int>(R.Pos % W);
    if (R.Steal)
      TResult[R.Wb] += VOut[Off];
    else
      Finish(R.Wb, VOut[Off], R.Shared);
    VOut[Off] = 0.0;
  }

  const std::int32_t *Tails = M.tails() + C.TailBase;
  for (int K = 0; K < W; ++K) {
    std::int32_t Row = Tails[K];
    if (Row < 0)
      continue;
    Finish(Row, TResult[K], Row == C.FirstRow || Row == C.LastRow);
  }
  Out = BP;
}

/// Band base of \p C, for the narrow-index kernels (0 otherwise).
std::int32_t chunkBase(const CvrMatrix &M, const CvrChunk &C) {
  return M.chunkColBase(static_cast<std::size_t>(&C - M.chunks().data()));
}

/// Prefetch-distance dispatch for one fused (kind-resolved) instantiation.
template <bool NarrowIdx, bool NarrowVal>
void runChunkAvxFusedPf(const CvrMatrix &M, const CvrChunk &C,
                        const double *X, double *Y, const FusedEpilogue &E,
                        EpilogueAccum &Acc, int PfDist, std::int32_t Base,
                        BoundaryPartials &Out) {
  switch (PfDist) {
  case 2:
    runChunkAvxFused<2, NarrowIdx, NarrowVal>(M, C, X, Y, E, Acc, Base, Out);
    break;
  case 4:
    runChunkAvxFused<4, NarrowIdx, NarrowVal>(M, C, X, Y, E, Acc, Base, Out);
    break;
  case 8:
    runChunkAvxFused<8, NarrowIdx, NarrowVal>(M, C, X, Y, E, Acc, Base, Out);
    break;
  default:
    runChunkAvxFused<0, NarrowIdx, NarrowVal>(M, C, X, Y, E, Acc, Base, Out);
    break;
  }
}

/// Dispatches one chunk of the fused path.
void runChunkFused(const CvrMatrix &M, const CvrChunk &C, const double *X,
                   double *Y, const FusedEpilogue &E, EpilogueAccum &Acc,
                   int PfDist, bool UseAvx, BoundaryPartials &Out) {
  if (!UseAvx) {
    runChunkGenericFused(M, C, X, Y, PfDist, E, Acc, Out);
    return;
  }
  const std::int32_t Base = chunkBase(M, C);
  const bool NI = M.colIndexKind() == ColIndexKind::U16Band;
  const bool NV = M.valueKind() == ValueKind::F32x64;
  if (NI) {
    if (NV)
      runChunkAvxFusedPf<true, true>(M, C, X, Y, E, Acc, PfDist, Base, Out);
    else
      runChunkAvxFusedPf<true, false>(M, C, X, Y, E, Acc, PfDist, Base, Out);
  } else {
    if (NV)
      runChunkAvxFusedPf<false, true>(M, C, X, Y, E, Acc, PfDist, Base, Out);
    else
      runChunkAvxFusedPf<false, false>(M, C, X, Y, E, Acc, PfDist, Base,
                                       Out);
  }
}

/// Prefetch-distance dispatch for one unfused (kind-resolved)
/// instantiation.
template <bool Accumulate, bool NarrowIdx, bool NarrowVal>
void runChunkAvxPf(const CvrMatrix &M, const CvrChunk &C, const double *X,
                   double *Y, int PfDist, std::int32_t Base,
                   BoundaryPartials &Out) {
  switch (PfDist) {
  case 2:
    runChunkAvx<2, Accumulate, NarrowIdx, NarrowVal>(M, C, X, Y, Base, Out);
    break;
  case 4:
    runChunkAvx<4, Accumulate, NarrowIdx, NarrowVal>(M, C, X, Y, Base, Out);
    break;
  case 8:
    runChunkAvx<8, Accumulate, NarrowIdx, NarrowVal>(M, C, X, Y, Base, Out);
    break;
  default:
    runChunkAvx<0, Accumulate, NarrowIdx, NarrowVal>(M, C, X, Y, Base, Out);
    break;
  }
}

/// Dispatches one chunk to the right kernel instantiation. The prefetch
/// distance is snapped to the supported set by cvrSpmv.
template <bool Accumulate>
void runChunk(const CvrMatrix &M, const CvrChunk &C, const double *X,
              double *Y, int PfDist, bool UseAvx, BoundaryPartials &Out) {
  if (!UseAvx) {
    runChunkGeneric(M, C, X, Y, PfDist, Accumulate, Out);
    return;
  }
  const std::int32_t Base = chunkBase(M, C);
  const bool NI = M.colIndexKind() == ColIndexKind::U16Band;
  const bool NV = M.valueKind() == ValueKind::F32x64;
  if (NI) {
    if (NV)
      runChunkAvxPf<Accumulate, true, true>(M, C, X, Y, PfDist, Base, Out);
    else
      runChunkAvxPf<Accumulate, true, false>(M, C, X, Y, PfDist, Base, Out);
  } else {
    if (NV)
      runChunkAvxPf<Accumulate, false, true>(M, C, X, Y, PfDist, Base, Out);
    else
      runChunkAvxPf<Accumulate, false, false>(M, C, X, Y, PfDist, Base, Out);
  }
}

/// Runs the chunks [Begin, End) across M.runThreads() threads, then merges
/// their boundary partials in chunk order. With more chunks than threads
/// (over-decomposition) the schedule turns dynamic so a thread that drew a
/// light chunk picks up the next one.
void runChunkRange(const CvrMatrix &M, int Begin, int End, const double *X,
                   double *Y, int PfDist, bool Accumulate) {
  const std::vector<CvrChunk> &Chunks = M.chunks();
  int N = End - Begin;
  int Threads = std::min(M.runThreads(), N);
  bool UseAvx = M.lanes() == simd::DoubleLanes && !M.forcesGenericKernel();
  BoundarySlots Slots(N);

  auto Body = [&](int T) {
    const CvrChunk &C = Chunks[Begin + T];
    if (Accumulate)
      runChunk<true>(M, C, X, Y, PfDist, UseAvx, Slots[T]);
    else
      runChunk<false>(M, C, X, Y, PfDist, UseAvx, Slots[T]);
  };
  if (N > Threads)
    ompParallelForDynamic(N, Threads, Body);
  else
    ompParallelFor(N, Threads, Body);
  mergeBoundaryRows(M, Begin, End, Slots.data(), Y);
}

} // namespace

int snapPrefetchDistance(int D) {
  if (D <= 0)
    return 0;
  if (D <= 2)
    return 2;
  if (D <= 4)
    return 4;
  return 8;
}

namespace {

/// Per-run execution counters, derived from the chunk table rather than
/// the SIMD loops: the step count (and with it the number of gathered x
/// elements) is fixed by the structure, so one O(chunks) sweep per call
/// observes what the hot loops did without touching them.
void recordCvrRunTelemetry(const CvrMatrix &M, bool Fused, bool CountRun) {
  if (!obs::telemetryEnabled())
    return;
  static obs::Counter &Runs = obs::counter("spmv.cvr.runs");
  static obs::Counter &Steps = obs::counter("spmv.cvr.steps");
  static obs::Counter &Gathers = obs::counter("spmv.cvr.gathered_elems");
  static obs::Counter &FusedRuns = obs::counter("spmv.cvr.fused_runs");
  static obs::Counter &FusedRows =
      obs::counter("spmv.cvr.fused_epilogue_rows");
  if (CountRun) {
    std::int64_t TotalSteps = 0;
    for (const CvrChunk &C : M.chunks())
      TotalSteps += C.NumSteps;
    Runs.inc();
    Steps.add(TotalSteps);
    Gathers.add(TotalSteps * M.lanes());
  }
  if (Fused) {
    FusedRuns.inc();
    FusedRows.add(M.numRows());
  }
}

} // namespace

void cvrSpmv(const CvrMatrix &M, const double *X, double *Y,
             int PrefetchDistance) {
  obs::TraceSpan Span("execute/spmv", "execute");
  recordCvrRunTelemetry(M, /*Fused=*/false, /*CountRun=*/true);
  int PfDist = snapPrefetchDistance(PrefetchDistance);

  if (M.isBlocked()) {
    // Accumulate mode: clear all of y once, then add each band's partial
    // products. Bands run sequentially so x's working set stays one band
    // wide; chunks within a band run in parallel.
    std::memset(Y, 0, sizeof(double) * static_cast<std::size_t>(M.numRows()));
    for (const CvrBand &B : M.bands())
      runChunkRange(M, B.ChunkBegin, B.ChunkEnd, X, Y, PfDist,
                    /*Accumulate=*/true);
    return;
  }

  // Pre-zero the rows that accumulate (boundary rows) or are never written
  // (empty rows); all other rows receive exactly one plain store.
  for (std::int32_t R : M.zeroRows())
    Y[R] = 0.0;
  runChunkRange(M, 0, M.numChunks(), X, Y, PfDist, /*Accumulate=*/false);
}

void cvrSpmvFused(const CvrMatrix &M, const double *X, double *Y,
                  FusedEpilogue &E, int PrefetchDistance) {
  if (E.Op == EpilogueOp::None) {
    cvrSpmv(M, X, Y, PrefetchDistance);
    E.Acc1 = E.Acc2 = E.Acc3 = 0.0;
    return;
  }
  if (M.isBlocked()) {
    // Accumulate mode finishes no row until the last band; compose.
    obs::TraceSpan Span("execute/fused-epilogue", "execute");
    recordCvrRunTelemetry(M, /*Fused=*/true, /*CountRun=*/false);
    cvrSpmv(M, X, Y, PrefetchDistance);
    applyEpilogueScalar(E, X, Y, M.numRows());
    return;
  }
  assert((!E.WantXDotY || M.numRows() == M.numCols()) &&
         "x.y fusion gathers the run input at output rows; needs square A");

  obs::TraceSpan Span("execute/fused-epilogue", "execute");
  recordCvrRunTelemetry(M, /*Fused=*/true, /*CountRun=*/true);
  int PfDist = snapPrefetchDistance(PrefetchDistance);
  // Boundary rows collect raw partials during the chunk sweep and take them
  // in chunk order after the join; the cleanup pass below then applies the
  // epilogue to them (and to empty rows) exactly once. zeroRows is
  // precisely that set.
  for (std::int32_t R : M.zeroRows())
    Y[R] = 0.0;

  const std::vector<CvrChunk> &Chunks = M.chunks();
  int N = static_cast<int>(Chunks.size());
  int Threads = std::min(M.runThreads(), N);
  bool UseAvx = M.lanes() == simd::DoubleLanes && !M.forcesGenericKernel();

  // Per-chunk partial accumulators and boundary partials, merged in chunk
  // index order below so the reduction is deterministic however the
  // chunks were scheduled.
  ChunkSlots<EpilogueAccum, MaxStackChunks> Accs(N);
  BoundarySlots Bounds(N);

  auto Body = [&](int T) {
    Accs[T] = EpilogueAccum{};
    runChunkFused(M, Chunks[T], X, Y, E, Accs[T], PfDist, UseAvx, Bounds[T]);
  };
  if (N > Threads)
    ompParallelForDynamic(N, Threads, Body);
  else
    ompParallelFor(N, Threads, Body);
  mergeBoundaryRows(M, 0, N, Bounds.data(), Y);

  EpilogueAccum Total;
  for (int T = 0; T < N; ++T)
    mergeAccum(E, Total, Accs[T]);

  // Sequential cleanup: boundary + empty rows, in zero-row (ascending)
  // order, merged last.
  EpilogueAccum Cleanup;
  for (std::int32_t R : M.zeroRows())
    Y[R] = fusedRowApply(E, X, R, Y[R], Cleanup);
  mergeAccum(E, Total, Cleanup);
  storeAccum(E, Total);
}

CvrKernel::CvrKernel(CvrOptions Opts) : Opts(Opts) {}

void CvrKernel::prepare(const CsrMatrix &A) {
  M = CvrMatrix::fromCsr(A, Opts);
}

Status CvrKernel::prepareStatus(const CsrMatrix &A) {
  StatusOr<CvrMatrix> R = CvrMatrix::tryFromCsr(A, Opts);
  if (!R.ok())
    return R.status().withContext("CVR prepare");
  M = std::move(*R);
  return Status::okStatus();
}

void CvrKernel::run(const double *X, double *Y) const {
  cvrSpmv(M, X, Y, Opts.PrefetchDistance);
}

void CvrKernel::runFused(const double *X, double *Y,
                         FusedEpilogue &E) const {
  cvrSpmvFused(M, X, Y, E, Opts.PrefetchDistance);
}

std::size_t CvrKernel::formatBytes() const { return M.formatBytes(); }

bool CvrKernel::traceRun(MemAccessSink &Sink, const double *X,
                         double *Y) const {
  const int W = M.lanes();
  const bool Accumulate = M.isBlocked();
  if (Accumulate) {
    // The blocked kernel clears all of y before the bands accumulate.
    for (std::int32_t R = 0; R < M.numRows(); ++R) {
      Sink.write(Y + R, sizeof(double));
      Y[R] = 0.0;
    }
  } else {
    for (std::int32_t R : M.zeroRows()) {
      Sink.write(Y + R, sizeof(double));
      Y[R] = 0.0;
    }
  }

  // Stream element widths by kind: the compressed streams read 2-byte
  // index deltas / 4-byte fp32 values, which is exactly the traffic
  // reduction the roofline model predicts.
  const std::size_t IdxB = M.indexBytes();
  const std::size_t ValB = M.valueBytes();
  std::vector<double> TResult(W), VOut(W);
  for (const CvrChunk &C : M.chunks()) {
    std::fill(TResult.begin(), TResult.end(), 0.0);
    std::fill(VOut.begin(), VOut.end(), 0.0);
    const std::int64_t EB = C.ElemBase;
    const std::int32_t Base = M.chunkColBase(
        static_cast<std::size_t>(&C - M.chunks().data()));
    const char *ColsP =
        M.colIndexKind() == ColIndexKind::U16Band
            ? reinterpret_cast<const char *>(M.colIdx16() + EB)
            : reinterpret_cast<const char *>(M.colIdx() + EB);
    const char *ValsP =
        M.valueKind() == ValueKind::F32x64
            ? reinterpret_cast<const char *>(M.vals32() + EB)
            : reinterpret_cast<const char *>(M.vals() + EB);
    std::int64_t RecIdx = C.RecBase;

    // A boundary row's partial is traced as the read-modify-write of y
    // that the kernel's ordered merge performs for it. The serial sweep
    // adds the partials in chunk order, as the merge does, and a chunk
    // finishes each row once (cvr.row.finish-once), so y matches run().
    auto Flush = [&](std::int32_t Row, double V, bool Shared) {
      bool ReadsY = Shared || Accumulate;
      if (ReadsY)
        Sink.read(Y + Row, sizeof(double));
      Sink.write(Y + Row, sizeof(double));
      if (ReadsY)
        Y[Row] += V;
      else
        Y[Row] = V;
    };

    auto ApplyRec = [&](const CvrRecord &R) {
      Sink.read(&R, sizeof(CvrRecord));
      int Off = static_cast<int>(R.Pos % W);
      if (R.Steal)
        TResult[R.Wb] += VOut[Off]; // t_result lives in registers/stack.
      else
        Flush(R.Wb, VOut[Off], R.Shared);
      VOut[Off] = 0.0;
    };

    for (std::int64_t I = 0; I < C.NumSteps; ++I) {
      while (RecIdx < C.RecEnd && M.recs()[RecIdx].Pos < (I + 1) * W)
        ApplyRec(M.recs()[RecIdx++]);
      // Column indices are double-pumped at width 8: one load of 16
      // indices per two steps (the step count is padded even, so both
      // steps exist).
      if (W == 8) {
        if ((I & 1) == 0)
          Sink.read(ColsP + I * W * IdxB, 16 * IdxB);
      } else {
        Sink.read(ColsP + I * W * IdxB, W * IdxB);
      }
      Sink.read(ValsP + I * W * ValB, W * ValB);
      for (int K = 0; K < W; ++K) {
        std::int32_t Col = M.colAt(EB + I * W + K, Base);
        Sink.read(X + Col, sizeof(double));
        VOut[K] += M.valueAt(EB + I * W + K) * X[Col];
      }
    }
    while (RecIdx < C.RecEnd)
      ApplyRec(M.recs()[RecIdx++]);

    const std::int32_t *Tails = M.tails() + C.TailBase;
    for (int K = 0; K < W; ++K) {
      Sink.read(Tails + K, sizeof(std::int32_t));
      std::int32_t Row = Tails[K];
      if (Row < 0)
        continue;
      bool Shared = Row == C.FirstRow || Row == C.LastRow;
      Flush(Row, TResult[K], Shared);
    }
  }
  return true;
}

bool CvrKernel::traceRunFused(MemAccessSink &Sink, const double *X,
                              double *Y, FusedEpilogue &E) const {
  if (E.Op == EpilogueOp::None) {
    E.Acc1 = E.Acc2 = E.Acc3 = 0.0;
    return traceRun(Sink, X, Y);
  }
  if (M.isBlocked()) {
    // Matches runFused's composed path for blocked matrices.
    if (!traceRun(Sink, X, Y))
      return false;
    traceEpilogueScalar(Sink, E, X, Y, M.numRows());
    return true;
  }

  const int W = M.lanes();
  for (std::int32_t R : M.zeroRows()) {
    Sink.write(Y + R, sizeof(double));
    Y[R] = 0.0;
  }

  // Serial sweep in chunk order; per-chunk accumulators merged in the same
  // order cvrSpmvFused uses, so the traced accumulators match runFused bit
  // for bit.
  const std::size_t IdxB = M.indexBytes();
  const std::size_t ValB = M.valueBytes();
  EpilogueAccum Total;
  std::vector<double> TResult(W), VOut(W);
  for (const CvrChunk &C : M.chunks()) {
    EpilogueAccum Acc;
    std::fill(TResult.begin(), TResult.end(), 0.0);
    std::fill(VOut.begin(), VOut.end(), 0.0);
    const std::int64_t EB = C.ElemBase;
    const std::int32_t Base = M.chunkColBase(
        static_cast<std::size_t>(&C - M.chunks().data()));
    const char *ColsP =
        M.colIndexKind() == ColIndexKind::U16Band
            ? reinterpret_cast<const char *>(M.colIdx16() + EB)
            : reinterpret_cast<const char *>(M.colIdx() + EB);
    const char *ValsP =
        M.valueKind() == ValueKind::F32x64
            ? reinterpret_cast<const char *>(M.vals32() + EB)
            : reinterpret_cast<const char *>(M.vals() + EB);
    std::int64_t RecIdx = C.RecBase;

    // Exclusive rows take the epilogue on the register-resident value: one
    // y store plus the operand traffic. Boundary rows take raw partials in
    // chunk order (the ordered merge's read-modify-write) and are finished
    // by the cleanup pass.
    auto Flush = [&](std::int32_t Row, double V, bool Shared) {
      if (Shared) {
        Sink.read(Y + Row, sizeof(double));
        Sink.write(Y + Row, sizeof(double));
        Y[Row] += V;
      } else {
        traceFusedRowOperands(Sink, E, X, Row);
        Sink.write(Y + Row, sizeof(double));
        Y[Row] = fusedRowApply(E, X, Row, V, Acc);
      }
    };

    auto ApplyRec = [&](const CvrRecord &R) {
      Sink.read(&R, sizeof(CvrRecord));
      int Off = static_cast<int>(R.Pos % W);
      if (R.Steal)
        TResult[R.Wb] += VOut[Off];
      else
        Flush(R.Wb, VOut[Off], R.Shared != 0);
      VOut[Off] = 0.0;
    };

    for (std::int64_t I = 0; I < C.NumSteps; ++I) {
      while (RecIdx < C.RecEnd && M.recs()[RecIdx].Pos < (I + 1) * W)
        ApplyRec(M.recs()[RecIdx++]);
      if (W == 8) {
        if ((I & 1) == 0)
          Sink.read(ColsP + I * W * IdxB, 16 * IdxB);
      } else {
        Sink.read(ColsP + I * W * IdxB, W * IdxB);
      }
      Sink.read(ValsP + I * W * ValB, W * ValB);
      for (int K = 0; K < W; ++K) {
        std::int32_t Col = M.colAt(EB + I * W + K, Base);
        Sink.read(X + Col, sizeof(double));
        VOut[K] += M.valueAt(EB + I * W + K) * X[Col];
      }
    }
    while (RecIdx < C.RecEnd)
      ApplyRec(M.recs()[RecIdx++]);

    const std::int32_t *Tails = M.tails() + C.TailBase;
    for (int K = 0; K < W; ++K) {
      Sink.read(Tails + K, sizeof(std::int32_t));
      std::int32_t Row = Tails[K];
      if (Row < 0)
        continue;
      Flush(Row, TResult[K], Row == C.FirstRow || Row == C.LastRow);
    }
    mergeAccum(E, Total, Acc);
  }

  // Cleanup pass: the boundary/empty rows genuinely re-read y (their raw
  // partials left the registers when the chunks finished).
  EpilogueAccum Cleanup;
  for (std::int32_t R : M.zeroRows()) {
    Sink.read(Y + R, sizeof(double));
    traceFusedRowOperands(Sink, E, X, R);
    Sink.write(Y + R, sizeof(double));
    Y[R] = fusedRowApply(E, X, R, Y[R], Cleanup);
  }
  mergeAccum(E, Total, Cleanup);
  storeAccum(E, Total);
  return true;
}

} // namespace cvr
