//===- perfbench/src/ServeWorkload.cpp - serve-mixed ----------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
// The cvr_served stack runs in this process (Fleet, Service, a one-worker
// Server on a Unix socket in the run directory), driven by one closed-loop
// client: the next request goes out only after the previous response is
// back and checked. It builds ServeStacks cold stacks; the rounds of the
// fixed request mix rotate over them, one stack per round.
//
//===----------------------------------------------------------------------===//

#include "Host.h"
#include "Spans.h"
#include "Workload.h"

#include "engine/Autotune.h"
#include "engine/TunedKernel.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

using namespace cvr;
using namespace cvr::serve;

ServeStack::~ServeStack() { stop(); }

bool ServeStack::start(const WorkloadFiles &Files, int Threads,
                       const std::string &Socket, std::string &Err) {
  FleetOptions FO;
  FO.Prepare.NumThreads = Threads;
  F = std::make_unique<Fleet>(FO);
  double T0 = nowSeconds();
  if (Status S = F->addBlob("blob", Files.Blob); !S.ok()) {
    Err = S.toString();
    return false;
  }
  AddBlobSeconds = nowSeconds() - T0;
  T0 = nowSeconds();
  clearPlanCache();
  if (Status S = F->addMatrixMarket("matrix", Files.Matrix); !S.ok()) {
    Err = S.toString();
    return false;
  }
  AddMtxSeconds = nowSeconds() - T0;

  Svc = std::make_unique<Service>(*F);
  ServerOptions SO;
  SO.SocketPath = Socket;
  SO.Workers = 1;
  SO.InstallSignalHandlers = false;
  Srv = std::make_unique<Server>(*Svc, SO);
  ServeThread = std::thread([this] {
    Status S = Srv->serve();
    if (!S.ok())
      std::printf("server: %s\n", S.toString().c_str());
  });
  // The listener binds asynchronously; retry until it accepts.
  for (int Attempt = 0;; ++Attempt) {
    StatusOr<Client> COr = Client::connect(Socket);
    if (COr.ok()) {
      C = std::move(*COr);
      break;
    }
    if (Attempt >= 20000) {
      Err = COr.status().toString();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return true;
}

void ServeStack::stop() {
  C = Client(); // Close the connection so the worker sees EOF.
  if (Srv) {
    Srv->requestStop();
    if (ServeThread.joinable())
      ServeThread.join();
  }
  Srv.reset();
  Svc.reset();
  F.reset();
}

std::string ServeStack::plans() {
  std::string S = "blob ";
  ExecPlan P;
  std::shared_ptr<const ServedMatrix> B = F->find("blob");
  if (B && F->kernelCache().lookup(B->Fingerprint, P))
    S += "pf=" + std::to_string(P.PrefetchDistance);
  else
    S += "untuned";
  std::shared_ptr<const ServedMatrix> M = F->find("matrix");
  const auto *T = M ? dynamic_cast<const TunedCvrKernel *>(
                          M->Prepared.Kernel.get())
                    : nullptr;
  return S + ", matrix " +
         (T ? T->plan().describe() : M ? M->Prepared.Actual : "missing");
}

const char *reqKindName(ReqKind K) {
  switch (K) {
  case ReqKind::Multiply:
    return "multiply";
  case ReqKind::Spmm:
    return "spmm";
  case ReqKind::Solve:
    return "solve";
  }
  return "?";
}

/// Power-iteration sweeps of a served PageRank-matrix solve (the service
/// has no PageRank; the traced serve probe of pagerank-rmat uses power).
constexpr int PowerIterations = 20;

Request makeRequest(const ServeFixture &SF, ReqKind K, int Index) {
  Request R;
  const std::size_t I = static_cast<std::size_t>(Index);
  switch (K) {
  case ReqKind::Multiply:
    R.Kind = Op::Multiply;
    R.Matrix = "blob";
    R.X = SF.Blob.Xs[I % SF.Blob.Xs.size()];
    break;
  case ReqKind::Spmm:
    R.Kind = Op::Spmm;
    R.Matrix = "blob";
    R.NumVectors = SpmmWidth;
    R.X = SF.Blob.Panels[I % SF.Blob.Panels.size()];
    break;
  case ReqKind::Solve:
    R.Kind = Op::Solve;
    R.Matrix = "matrix";
    if (SF.Solve == SolveKind::Cg) {
      R.Solver = SolverKind::Cg;
      R.X = SF.Solved.Bs[I % SF.Solved.Bs.size()];
      R.MaxIterations = 2000;
      R.Tolerance = CgTolerance;
    } else {
      R.Solver = SolverKind::Power;
      R.MaxIterations = PowerIterations;
      R.Tolerance = 1e-300; // Below any residual: runs every sweep.
    }
    break;
  }
  return R;
}

bool checkResponse(const ServeFixture &SF, ReqKind K, int Index,
                   const Response &R, std::string &Why) {
  const std::size_t I = static_cast<std::size_t>(Index);
  if (R.Code != StatusCode::Ok) {
    Why = std::string(reqKindName(K)) + ": status " + R.Message;
    return false;
  }
  switch (K) {
  case ReqKind::Multiply: {
    const RefProduct &Ref = SF.Blob.XRefs[I % SF.Blob.XRefs.size()];
    Why = "multiply: y differs from the reference";
    return R.Y.size() == Ref.Y.size() && matchesProduct(R.Y.data(), Ref);
  }
  case ReqKind::Spmm:
    Why = "spmm: a column differs from the reference";
    return R.NumVectors == SpmmWidth &&
           panelMatches(R.Y, SF.Blob.PanelRefs[I % SF.Blob.PanelRefs.size()]);
  case ReqKind::Solve:
    if (SF.Solve == SolveKind::Cg) {
      const std::size_t S = I % SF.Solved.Bs.size();
      if (!R.Converged) {
        Why = "solve: not converged";
        return false;
      }
      return checkLinearSolve(SF.Solved.Ref, SF.Solved.Bs[S], R.Y,
                              SF.Solved.XStars[S], CgTolerance, 1e-5, &Why);
    } else {
      // Power iteration: the unit-norm eigenvector estimate after a fixed
      // number of sweeps.
      double Norm = 0.0;
      bool Finite = R.Y.size() == static_cast<std::size_t>(SF.Solved.Ref.Rows);
      for (double V : R.Y) {
        Finite = Finite && std::isfinite(V);
        Norm += V * V;
      }
      Why = "solve: power vector not finite and unit-norm";
      return Finite && std::fabs(std::sqrt(Norm) - 1.0) <= 1e-9 &&
             R.Iterations == PowerIterations;
    }
  }
  return false;
}

double timedCall(ServeStack &S, const ServeFixture &SF, ReqKind K, int Index,
                 Tally &T, int *Degraded) {
  Request Req = makeRequest(SF, K, Index);
  Response Resp;
  Status St;
  double Dt;
  {
    LayerSpan Span("serve/request", "serve");
    St = S.client().call(Req, Resp);
    Dt = Span.elapsed();
  }
  std::string Why;
  const bool Ok = St.ok() && checkResponse(SF, K, Index, Resp, Why);
  T.record(Ok, St.ok() ? Why : St.toString());
  if (Degraded && !Resp.Downgrades.empty())
    ++*Degraded;
  return Dt;
}

std::vector<ReqKind> requestMix(std::uint64_t Seed) {
  std::vector<ReqKind> Mix;
  Mix.insert(Mix.end(), 24, ReqKind::Multiply);
  Mix.insert(Mix.end(), 7, ReqKind::Spmm);
  Mix.insert(Mix.end(), 1, ReqKind::Solve);
  Rng R(Seed * 7919 + 17);
  for (std::size_t I = Mix.size() - 1; I > 0; --I)
    std::swap(Mix[I], Mix[R.next() % (I + 1)]);
  return Mix;
}

int runServeWorkload(const RunArgs &A) {
  const WorkloadSpec &W = *findWorkload(A.Workload);
  const WorkloadFiles Files = filesIn(A.InputDir, W);
  printHost(A.Threads);
  Tally T;

  ServeFixture SF;
  SF.Solve = W.Solve;
  if (!loadFixture(Files.BlobMtx, A.Seed, 4, 2, 0, SF.Blob) ||
      !loadFixture(Files.Matrix, A.Seed, 0, 0, 2, SF.Solved))
    return 1;
  const double BlobNnz = static_cast<double>(SF.Blob.Ref.nnz());

  // Cold set-ups: everything until the first response of each kind.
  std::vector<std::unique_ptr<ServeStack>> Stacks;
  std::vector<double> SetupSeconds;
  double PeakRss = 0.0;
  for (int I = 0; I < ServeStacks; ++I) {
    Stacks.push_back(std::make_unique<ServeStack>());
    ServeStack &S = *Stacks.back();
    const double T0 = nowSeconds();
    std::string Err;
    bool Ok = S.start(Files, A.Threads, "serve-" + std::to_string(I) + ".sock",
                      Err);
    T.record(Ok, "serve set-up: " + Err);
    if (!Ok)
      return 1;
    for (ReqKind K : {ReqKind::Multiply, ReqKind::Spmm, ReqKind::Solve})
      timedCall(S, SF, K, 0, T);
    SetupSeconds.push_back(nowSeconds() - T0);
    // peak_rss_mb is the footprint of one cold set-up, as for the kernel
    // workloads; the later stacks only serve the pooled timing.
    if (I == 0)
      PeakRss = peakRssMb();
    std::printf("setup %d: %.3f s (add_blob %.3f s, add_mtx %.3f s)\n", I,
                SetupSeconds.back(), S.AddBlobSeconds, S.AddMtxSeconds);
  }

  // Whole rounds of the mix, one stack per round, until the time is spent
  // and at least 1000 requests were timed (ten beyond the p99).
  const std::vector<ReqKind> Mix = requestMix(A.Seed);
  const int PerRound = static_cast<int>(Mix.size());
  struct StackSamples {
    std::array<std::vector<double>, 3> ByKind;
    std::vector<double> RoundRate; ///< Requests per second of request time.
  };
  std::vector<StackSamples> PerStack(Stacks.size());
  auto RunRound = [&](int Round, bool Keep) {
    const std::size_t Si = static_cast<std::size_t>(Round) % Stacks.size();
    double Busy = 0.0;
    for (int I = 0; I < PerRound; ++I) {
      ReqKind K = Mix[static_cast<std::size_t>(I)];
      double Dt = timedCall(*Stacks[Si], SF, K, Round * PerRound + I, T);
      Busy += Dt;
      if (Keep)
        PerStack[Si].ByKind[static_cast<std::size_t>(K)].push_back(Dt);
    }
    if (Keep)
      PerStack[Si].RoundRate.push_back(PerRound / Busy);
  };
  for (int I = 0; I < ServeStacks; ++I)
    RunRound(I, /*Keep=*/false); // Warm-up.
  stealShareSinceLastCall();
  const double Deadline = nowSeconds() + A.Seconds;
  for (int Round = 0;; ++Round) {
    if (Round % ServeStacks == 0 && nowSeconds() >= Deadline &&
        Round * PerRound >= 1000)
      break;
    RunRound(Round, /*Keep=*/true);
  }
  std::printf("host steal share during the timed phase: %.4f\n",
              stealShareSinceLastCall());

  // As for the kernel workloads: the mean over the stacks of each stack's
  // median (each stack's lazy tuneExec picks its own prefetch distance),
  // and the p99 over every request.
  std::vector<double> ByKind[3], Rate, P50, All;
  for (std::size_t I = 0; I < Stacks.size(); ++I) {
    const StackSamples &S = PerStack[I];
    std::vector<double> Requests;
    for (std::size_t K = 0; K < 3; ++K) {
      ByKind[K].push_back(median(S.ByKind[K]));
      Requests.insert(Requests.end(), S.ByKind[K].begin(), S.ByKind[K].end());
    }
    Rate.push_back(median(S.RoundRate));
    P50.push_back(median(Requests));
    All.insert(All.end(), Requests.begin(), Requests.end());
    std::printf("stack %zu (%s): %zu rounds, multiply p50 %.4f ms, spmm p50 "
                "%.4f ms, solve p50 %.4f ms\n",
                I, Stacks[I]->plans().c_str(), S.RoundRate.size(),
                ByKind[0].back() * 1e3, ByKind[1].back() * 1e3,
                ByKind[2].back() * 1e3);
  }
  Stacks.clear(); // Stops every server thread before the result is printed.
  printResult(T, {
                     {"setup_s", median(SetupSeconds), "s"},
                     {"solve_s", mean(ByKind[2]), "s"},
                     {"spmv_gflops", 2.0 * BlobNnz / mean(ByKind[0]) * 1e-9,
                      "GFLOP/s"},
                     {"spmm_gflops",
                      2.0 * BlobNnz * SpmmWidth / mean(ByKind[1]) * 1e-9,
                      "GFLOP/s"},
                     {"req_per_s", mean(Rate), "1/s"},
                     {"req_p50_ms", mean(P50) * 1e3, "ms"},
                     {"req_p99_ms", quantile(All, 0.99) * 1e3, "ms"},
                     {"peak_rss_mb", PeakRss, "MB"},
                 });
  return 0;
}

} // namespace perfbench
