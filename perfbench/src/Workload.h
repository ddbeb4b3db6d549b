//===- perfbench/src/Workload.h - Pieces shared by the workload runs -----===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include "Check.h"
#include "Common.h"
#include "Inputs.h"

#include "formats/Registry.h"
#include "serve/Client.h"
#include "serve/Server.h"

#include <memory>
#include <thread>

namespace perfbench {

/// Cold set-ups per run. setup_s is their median, and the timed phases
/// rotate over the kernels they produced, because the tuner does not pick
/// the same plan every time. An odd count, so the median over the kernels
/// is one kernel's figure.
constexpr int ColdSetups = 3;
/// Panel-prepared kernels the SpMM phase of cg-stencil rotates over: one
/// per cold set-up plus untimed extra cold prepares. Their tuned plans
/// differ more
/// in K=8 speed than the SpMV plans do (about 0.76 ms at pf=0, 1.1 ms at
/// pf=8 and 1.3 ms at rhs=4 on cg-stencil), and which one the tuner picks
/// follows the host's noise, so the median over three draws per run
/// still swings with the plan mix. A multiple of ColdSetups.
constexpr int PanelKernels = 6;
/// serve-mixed builds more stacks: they are cheap (about 0.5 s each), and
/// each one's lazy tuneExec picks a prefetch distance from three timed
/// runs per variant, so the multiply latency varies from stack to stack.
constexpr int ServeStacks = 5;

/// Fixed, seeded inputs of one matrix with their reference results.
struct Fixture {
  RefMatrix Ref;
  std::vector<std::vector<double>> Xs; ///< SpMV inputs.
  std::vector<RefProduct> XRefs;
  std::vector<std::vector<double>> Panels; ///< Row-major n x SpmmWidth.
  std::vector<std::vector<RefProduct>> PanelRefs; ///< Per panel, per column.
  std::vector<std::vector<double>> XStars, Bs; ///< Manufactured CG systems.
};

/// Reads \p MtxPath with the benchmark's own reader and derives \p NumX
/// inputs, \p NumPanels SpMM panels and \p NumSystems CG systems from
/// \p Seed. False (with a message printed) when the file is unreadable.
bool loadFixture(const std::string &MtxPath, std::uint64_t Seed, int NumX,
                 int NumPanels, int NumSystems, Fixture &F);

/// True when the row-major panel \p Y matches every reference column.
bool panelMatches(const std::vector<double> &Y,
                  const std::vector<RefProduct> &Refs);

/// One cold kernel set-up: Matrix Market read, CSR build, empty plan cache,
/// prepareKernel(CVR) with tuning on (Seconds covers exactly this). Then,
/// untimed, a second cold prepare with PanelWidth = SpmmWidth for the K=8
/// SpMM phase: a default-prepared kernel may pick a compressed-index plan,
/// whose runBatch composes per-column SpMVs and is several times slower
/// (CHANGES.md FOUND line), and which plan the tuner picks varies from one
/// set-up to the next. On cg-stencil, runKernelWorkload adds
/// PanelKernels - ColdSetups more such panel prepares.
struct KernelSetup {
  std::unique_ptr<cvr::CsrMatrix> A; ///< Kept alive: CSR rungs alias it.
  cvr::PreparedKernel PK;            ///< Solve and SpMV.
  cvr::PreparedKernel Panel;         ///< K=8 SpMM.
  double Seconds = 0.0;
  double PanelSeconds = 0.0;
  std::string Plan, PanelPlan; ///< Tuned plans, or the rungs that ran.
};
bool coldKernelSetup(const std::string &MtxPath, int Threads,
                     KernelSetup &Out, std::string &Err);

/// Timed calls. Each wraps the call into the program in a LayerSpan
/// (inert outside a trace session), checks the output against the
/// fixture, records the operation in \p T and returns the call's seconds.
double timedSpmv(const cvr::SpmvKernel &K, const Fixture &F, std::size_t Which,
                 std::vector<double> &Y, Tally &T);
double timedSpmm(const cvr::SpmvKernel &K, const Fixture &F, std::size_t Which,
                 std::vector<double> &Y, Tally &T);
/// The workload's solve from a fixed start: CG on system \p System, or
/// PageRank. \p Iterations, when given, receives the iteration count.
double timedSolve(const cvr::SpmvKernel &K, const Fixture &F, SolveKind Kind,
                  int System, bool Fused, Tally &T, int *Iterations = nullptr);

/// The in-process cvr_served stack of one cold serve set-up: Fleet,
/// Service and a one-worker Server on a Unix socket, plus the client
/// connection that drives it.
class ServeStack {
public:
  ServeStack() = default;
  ~ServeStack();
  ServeStack(const ServeStack &) = delete;
  ServeStack &operator=(const ServeStack &) = delete;

  /// Loads the blob as "blob" and the .mtx as "matrix" (empty plan cache
  /// first), starts the server on \p Socket and connects.
  bool start(const WorkloadFiles &Files, int Threads, const std::string &Socket,
             std::string &Err);
  void stop();

  cvr::serve::Fleet &fleet() { return *F; }
  cvr::serve::Service &service() { return *Svc; }
  cvr::serve::Client &client() { return C; }
  /// The blob's cached execution plan and the .mtx kernel's tuned plan.
  /// The lookup counts as a kernel-cache hit.
  std::string plans();

  double AddBlobSeconds = 0.0, AddMtxSeconds = 0.0;

private:
  std::unique_ptr<cvr::serve::Fleet> F;
  std::unique_ptr<cvr::serve::Service> Svc;
  std::unique_ptr<cvr::serve::Server> Srv;
  std::thread ServeThread;
  cvr::serve::Client C;
};

/// Request kinds of the serve mix.
enum class ReqKind { Multiply, Spmm, Solve };
const char *reqKindName(ReqKind K);

/// Inputs and references of the serve requests: multiply / SpMM against
/// the blob matrix, solves against the .mtx matrix.
struct ServeFixture {
  Fixture Blob;   ///< Reference of the blob's source matrix.
  Fixture Solved; ///< Reference of the served .mtx.
  SolveKind Solve = SolveKind::Cg;
};

/// The fixed request mix of one serve round, in an order drawn from
/// \p Seed: 24 multiplies, 7 SpMMs and 1 solve. Solves are 1/32 of the
/// requests, so the p99 lies inside the solve latencies (near their 70th
/// percentile) rather than on the boundary between two request kinds or in
/// the solves' far tail.
std::vector<ReqKind> requestMix(std::uint64_t Seed);

/// Builds request number \p Index of kind \p K (inputs rotate over the
/// fixture's vectors).
cvr::serve::Request makeRequest(const ServeFixture &SF, ReqKind K, int Index);

/// Checks a response to makeRequest(SF, K, Index): status, shape and
/// values against the benchmark's own reference.
bool checkResponse(const ServeFixture &SF, ReqKind K, int Index,
                   const cvr::serve::Response &R, std::string &Why);

/// Request \p Index of kind \p K over the stack's connection, timed on the
/// client side and checked like the calls above. \p Degraded, when given,
/// counts responses that carry downgrades.
double timedCall(ServeStack &S, const ServeFixture &SF, ReqKind K, int Index,
                 Tally &T, int *Degraded = nullptr);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
