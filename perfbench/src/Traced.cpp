//===- perfbench/src/Traced.cpp - Traced per-layer run --------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
// The traced run walks the same path as the untraced workload, one layer
// at a time, inside an obs trace session. Every call into a layer is
// wrapped in a LayerSpan from this file; nothing is added to the program.
// Every workload reports the same per-layer metrics: the kernel layers on
// its solved matrix, the serve layer on its blob and matrix served through
// an in-process cvr_served stack. Outputs are checked as in the untraced
// run. After the session stops, the same solves and requests run untraced
// to give the trace overhead.
//
//===----------------------------------------------------------------------===//

#include "Host.h"
#include "Spans.h"
#include "Workload.h"

#include "analysis/Roofline.h"
#include "core/CvrSpmv.h"
#include "engine/Autotune.h"
#include "io/MatrixMarket.h"
#include "obs/PerfCounters.h"
#include "obs/Telemetry.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>

namespace perfbench {

using namespace cvr;
using namespace cvr::serve;

namespace {

/// Runs \p Fn (which returns its own duration in seconds) until \p Budget
/// seconds have passed and at least \p MinN samples exist.
template <typename Fn>
std::vector<double> sampleFor(double Budget, std::size_t MinN, Fn &&F) {
  std::vector<double> S;
  const double End = nowSeconds() + Budget;
  while (S.size() < MinN || nowSeconds() < End)
    S.push_back(F());
  return S;
}

struct Reporter {
  std::vector<Metric> Metrics;
  void add(const char *Name, double Value, const char *Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
};

/// One round of the serve-mixed request mix over the socket; appends every
/// latency and the multiply latencies.
void mixRound(ServeStack &St, const ServeFixture &SF,
              const std::vector<ReqKind> &Mix, int Round, Tally &T,
              int &Degraded, std::vector<double> &All,
              std::vector<double> &Multiply) {
  for (std::size_t I = 0; I < Mix.size(); ++I) {
    double Dt = timedCall(St, SF, Mix[I],
                          Round * static_cast<int>(Mix.size()) +
                              static_cast<int>(I),
                          T, &Degraded);
    All.push_back(Dt);
    if (Mix[I] == ReqKind::Multiply)
      Multiply.push_back(Dt);
  }
}

void writeTelemetry(const std::string &Path) {
  std::ofstream OS(Path);
  OS << "{\n";
  const std::vector<obs::MetricSnapshot> Snap = obs::snapshotTelemetry();
  for (std::size_t I = 0; I < Snap.size(); ++I) {
    const obs::MetricSnapshot &M = Snap[I];
    OS << "  \"" << M.Name << "\": ";
    if (M.Kind == obs::MetricKind::Histogram)
      OS << "{\"count\": " << M.Count << ", \"sum\": " << M.Sum << "}";
    else
      OS << M.Value;
    OS << (I + 1 < Snap.size() ? ",\n" : "\n");
  }
  OS << "}\n";
}

} // namespace

int runTraced(const RunArgs &A) {
  const WorkloadSpec &W = *findWorkload(A.Workload);
  const WorkloadFiles Files = filesIn(A.InputDir, W);
  printHost(A.Threads);
  Tally T;
  Reporter R;
  const double Budget = A.Seconds;

  Fixture F;
  ServeFixture SF;
  SF.Solve = W.Solve;
  if (!loadFixture(Files.Matrix, A.Seed, 2, 1,
                   W.Solve == SolveKind::Cg ? 2 : 0, F))
    return 1;
  SF.Solved = F;
  if (Files.BlobMtx == Files.Matrix)
    SF.Blob = F;
  else if (!loadFixture(Files.BlobMtx, A.Seed, 2, 1, 0, SF.Blob))
    return 1;
  const double Nnz = static_cast<double>(F.Ref.nnz());
  std::vector<double> Y(static_cast<std::size_t>(F.Ref.Rows));
  std::vector<double> YP(Y.size() * SpmmWidth);

  obs::traceStart();
  auto Root = std::make_unique<LayerSpan>("perfbench/traced", "bench");

  // io: Matrix Market read and CSR build.
  CsrMatrix Csr;
  {
    LayerSpan S("io/mtx_read", "io");
    StatusOr<CooMatrix> Coo = readMatrixMarketFile(Files.Matrix);
    T.record(Coo.ok(), "io read");
    if (!Coo.ok())
      return 1;
    Csr = CsrMatrix::fromCoo(*Coo);
    R.add("io.mtx_read_s", S.elapsed(), "s");
  }

  // engine: one cold search.
  clearPlanCache();
  AutotuneOptions AO;
  AO.NumThreads = A.Threads;
  AutotuneResult Tune;
  {
    LayerSpan S("engine/autotune", "engine");
    StatusOr<AutotuneResult> TR = tryAutotuneCvr(Csr, AO);
    T.record(TR.ok(), "autotune");
    if (!TR.ok())
      return 1;
    Tune = *TR;
    R.add("engine.tune_s", S.elapsed(), "s");
  }
  std::printf("tuned plan: %s\n", Tune.Plan.describe().c_str());
  R.add("engine.tune_spmvs", Tune.IterationsUsed, "count");
  R.add("engine.plan_gain", Tune.BaselineSeconds / Tune.BestSeconds, "ratio");

  // core: conversion under the tuned plan.
  {
    LayerSpan S("core/convert", "core");
    StatusOr<CvrMatrix> M =
        CvrMatrix::tryFromCsr(Csr, Tune.Plan.toOptions(A.Threads));
    T.record(M.ok(), "convert");
    if (!M.ok())
      return 1;
    R.add("core.convert_s", S.elapsed(), "s");
    R.add("core.bytes_per_nnz", static_cast<double>(M->formatBytes()) / Nnz,
          "B");
  }

  // formats: the cold degradation ladder.
  clearPlanCache();
  PrepareOptions PO;
  PO.NumThreads = A.Threads;
  PreparedKernel PK;
  {
    LayerSpan S("formats/prepare", "formats");
    StatusOr<PreparedKernel> P = prepareKernel(FormatId::Cvr, Csr, PO);
    T.record(P.ok(), "prepare");
    if (!P.ok())
      return 1;
    PK = std::move(*P);
    R.add("formats.prepare_s", S.elapsed(), "s");
  }
  std::printf("prepared: %s\n", PK.Actual.c_str());
  R.add("formats.downgrades", static_cast<double>(PK.Downgrades.size()),
        "count");
  const SpmvKernel &K = *PK.Kernel;

  // formats: the kernel the SpMM phase runs, prepared for K=8 panels as in
  // the untraced run (see Workload.h KernelSetup).
  clearPlanCache();
  PrepareOptions PanelPO = PO;
  PanelPO.PanelWidth = SpmmWidth;
  PreparedKernel Panel;
  {
    LayerSpan S("formats/prepare_panel", "formats");
    StatusOr<PreparedKernel> P = prepareKernel(FormatId::Cvr, Csr, PanelPO);
    T.record(P.ok(), "prepare for panels");
    if (!P.ok())
      return 1;
    Panel = std::move(*P);
  }

  // core: SpMV, SpMM, 1-thread SpMV, bitwise rerun determinism.
  timedSpmv(K, F, 0, Y, T); // Warm-up.
  const double SpmvS = median(sampleFor(0.1 * Budget, 200, [&] {
    return timedSpmv(K, F, 0, Y, T);
  }));
  const double SpmmS = median(sampleFor(
      0.1 * Budget, 50, [&] { return timedSpmm(*Panel.Kernel, F, 0, YP, T); }));
  const double SpmmDefaultS = median(
      sampleFor(0.05 * Budget, 20, [&] { return timedSpmm(K, F, 0, YP, T); }));
  CvrKernel OneThread(Tune.Plan.toOptions(1));
  T.record(OneThread.prepareStatus(Csr).ok(), "1-thread prepare");
  const double Spmv1S = median(sampleFor(0.05 * Budget, 20, [&] {
    return timedSpmv(OneThread, F, 0, Y, T);
  }));
  std::vector<double> First(Y.size());
  K.run(F.Xs[1].data(), First.data());
  int NonIdentical = 0;
  for (int I = 0; I < 100; ++I) {
    K.run(F.Xs[1].data(), Y.data());
    NonIdentical +=
        std::memcmp(Y.data(), First.data(), Y.size() * sizeof(double)) != 0;
  }
  R.add("core.spmv_ms", SpmvS * 1e3, "ms");
  R.add("core.spmm_k8_ms", SpmmS * 1e3, "ms");
  R.add("core.spmm_k8_default_ms", SpmmDefaultS * 1e3, "ms");
  R.add("core.spmv_1t_ms", Spmv1S * 1e3, "ms");
  R.add("core.thread_speedup", Spmv1S / SpmvS, "ratio");
  R.add("core.spmm_amortization", SpmmWidth * SpmvS / SpmmS, "ratio");
  R.add("core.nonidentical_reruns", NonIdentical, "count");

  // analysis: computed bytes per SpMV against the measured time.
  double Predicted;
  if (const auto *Src = dynamic_cast<const CvrMatrixSource *>(&K))
    Predicted = analysis::predictCvr(Src->cvrMatrix()).TotalBytes;
  else
    Predicted = analysis::predictCsr(Csr).TotalBytes;
  R.add("analysis.predicted_bytes_per_spmv", Predicted, "B");
  R.add("analysis.achieved_gbps", Predicted / SpmvS * 1e-9, "GB/s");

  // obs: hardware LLC misses, only where perf_event is permitted.
  {
    StatusOr<obs::PerfSample> P = obs::measurePerf([&] {
      for (int I = 0; I < 100; ++I)
        K.run(F.Xs[0].data(), Y.data());
    });
    if (P.ok() && P->LlcReferences > 0)
      std::printf("obs.llc_miss_bytes_per_spmv %.6g B\n",
                  static_cast<double>(P->LlcMisses) * 64.0 / 100.0);
    else
      std::printf("obs.llc_miss_bytes_per_spmv omitted: %s\n",
                  P.ok() ? "no LLC events counted"
                         : P.status().toString().c_str());
  }

  // formats: the CSR(I) baseline at the same thread count.
  StatusOr<PreparedKernel> CsrK = prepareKernel(FormatId::CsrI, Csr, PO);
  T.record(CsrK.ok(), "CSR(I) prepare");
  if (!CsrK.ok())
    return 1;
  const double CsrSpmvS = median(sampleFor(0.05 * Budget, 100, [&] {
    return timedSpmv(*CsrK->Kernel, F, 0, Y, T);
  }));
  R.add("formats.csr_spmv_ms", CsrSpmvS * 1e3, "ms");
  R.add("formats.cvr_vs_csr", CsrSpmvS / SpmvS, "ratio");

  // solvers: fused (the default), unfused, and over CSR(I).
  int Iterations = 0;
  const std::vector<double> TracedSolves = sampleFor(0.15 * Budget, 5, [&] {
    return timedSolve(K, F, W.Solve, 0, true, T, &Iterations);
  });
  const double Unfused = median(sampleFor(0.05 * Budget, 3, [&] {
    return timedSolve(K, F, W.Solve, 0, false, T);
  }));
  const double CsrSolve = median(sampleFor(0.05 * Budget, 3, [&] {
    return timedSolve(*CsrK->Kernel, F, W.Solve, 0, true, T);
  }));
  const double IterS = median(TracedSolves) / Iterations;
  R.add("solvers.iterations", Iterations, "count");
  R.add("solvers.iter_ms", IterS * 1e3, "ms");
  R.add("solvers.non_spmv_ms", (IterS - SpmvS) * 1e3, "ms");
  R.add("solvers.unfused_solve_s", Unfused, "s");
  R.add("solvers.csr_solve_s", CsrSolve, "s");

  // serve: one cold stack, the first request of each kind, each kind
  // through Service::handle in-process, the codec alone, and the
  // serve-mixed request mix over the socket.
  ServeStack St;
  {
    LayerSpan S("serve/start", "serve");
    std::string Err;
    bool Ok = St.start(Files, A.Threads, "traced.sock", Err);
    T.record(Ok, "serve start: " + Err);
    if (!Ok)
      return 1;
  }
  R.add("serve.add_blob_s", St.AddBlobSeconds, "s");
  R.add("serve.add_mtx_s", St.AddMtxSeconds, "s");
  int Degraded = 0;
  double Warmup = 0.0;
  for (ReqKind Kind : {ReqKind::Multiply, ReqKind::Spmm, ReqKind::Solve})
    Warmup += timedCall(St, SF, Kind, 0, T, &Degraded);
  R.add("serve.warmup_s", Warmup, "s");

  double HandleMultiply = 0.0;
  for (ReqKind Kind : {ReqKind::Multiply, ReqKind::Spmm, ReqKind::Solve}) {
    int Index = 0;
    const double P50 = median(
        sampleFor(0.03 * Budget, Kind == ReqKind::Solve ? 5 : 50, [&] {
          Request Req = makeRequest(SF, Kind, Index);
          double Dt;
          Response Resp;
          {
            LayerSpan S("serve/handle", "serve");
            Resp = St.service().handle(Req);
            Dt = S.elapsed();
          }
          std::string Why;
          T.record(checkResponse(SF, Kind, Index++, Resp, Why), Why);
          if (!Resp.Downgrades.empty())
            ++Degraded;
          return Dt;
        }));
    if (Kind == ReqKind::Multiply)
      HandleMultiply = P50;
    R.Metrics.push_back(
        {std::string("serve.handle_ms.") + reqKindName(Kind), P50 * 1e3, "ms"});
  }

  const Request CodecReq = makeRequest(SF, ReqKind::Multiply, 0);
  const Response CodecResp = St.service().handle(CodecReq);
  const double Codec = median(sampleFor(0.02 * Budget, 50, [&] {
    LayerSpan S("serve/codec", "serve");
    Request RIn;
    Response ROut;
    const std::string Q = encodeRequest(CodecReq);
    bool Ok = decodeRequest(Q.data(), Q.size(), RIn).ok();
    const std::string P = encodeResponse(CodecResp);
    Ok = Ok && decodeResponse(P.data(), P.size(), ROut).ok() &&
         ROut.Y == CodecResp.Y && RIn.X == CodecReq.X;
    T.record(Ok, "codec round trip");
    return S.elapsed();
  }));
  R.add("serve.codec_ms", Codec * 1e3, "ms");

  const std::vector<ReqKind> Mix = requestMix(A.Seed);
  std::vector<double> TracedMix, Multiply;
  const double MixEnd = nowSeconds() + 0.1 * Budget;
  for (int Round = 0; Round < 4 || nowSeconds() < MixEnd; ++Round)
    mixRound(St, SF, Mix, Round, T, Degraded, TracedMix, Multiply);
  R.add("serve.transport_ms",
        (median(Multiply) - HandleMultiply - Codec) * 1e3, "ms");
  KernelCache &Cache = St.fleet().kernelCache();
  const double Lookups = static_cast<double>(Cache.hits() + Cache.misses());
  R.add("serve.cache_hit_ratio",
        Lookups > 0 ? static_cast<double>(Cache.hits()) / Lookups : 0.0,
        "ratio");
  R.add("serve.shed",
        static_cast<double>(St.service().admission().shedCount()), "count");
  R.add("serve.degraded", Degraded, "count");

  Root.reset();
  const std::string Json = obs::traceStopToJson();
  const Status Valid = obs::validateChromeTrace(Json);
  T.record(Valid.ok(), "chrome trace: " + Valid.toString());
  std::ofstream(A.OutDir + "/trace.json") << Json;
  std::printf("trace.json: %zu bytes, validateChromeTrace %s\n", Json.size(),
              Valid.ok() ? "ok" : Valid.toString().c_str());
  writeTelemetry(A.OutDir + "/telemetry.json");

  // Trace overhead: the same request rounds and solves with the session
  // stopped (LayerSpans record nothing then). The solves run after the
  // stack stops, as the traced ones ran before it started.
  std::vector<double> PlainSolves, PlainMix, PlainMultiply;
  for (int Round = 0; PlainMix.size() < TracedMix.size(); ++Round)
    mixRound(St, SF, Mix, Round, T, Degraded, PlainMix, PlainMultiply);
  St.stop();
  for (std::size_t I = 0; I < TracedSolves.size(); ++I)
    PlainSolves.push_back(timedSolve(K, F, W.Solve, 0, true, T));
  R.add("obs.trace_overhead.solve", median(TracedSolves) / median(PlainSolves),
        "ratio");
  R.add("obs.trace_overhead.request", median(TracedMix) / median(PlainMix),
        "ratio");

  std::printf("\nper-layer spans (self time excludes child spans):\n");
  printSelfTimes();
  std::printf("\nper-layer metrics:\n");
  for (const Metric &M : R.Metrics)
    std::printf("  %-36s %16.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  printResult(T, R.Metrics);
  return 0;
}

} // namespace perfbench
