//===- perfbench/src/Common.h - Shared benchmark types and helpers --------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The end-to-end benchmark drives the program only through its public entry
// points (io, formats::prepareKernel, engine, core, solvers, serve). Every
// output is checked against the benchmark's own reference computation
// (Check.h), never against the program's own comparison helpers.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Parsed command line of one measured run.
struct RunArgs {
  std::string Workload;
  std::uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  std::string InputDir; ///< Generated inputs of (workload, seed).
  std::string OutDir;   ///< Trace / telemetry artifacts of this run.
  int Threads = 1;      ///< nproc; every kernel and team uses this many.
};

/// Seconds on the steady clock since an arbitrary epoch.
inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Interpolated quantile (0 <= Q <= 1) of \p V; V is copied and sorted.
double quantile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }
double mean(const std::vector<double> &V);

/// Named metric with its unit, printed in the final JSON object.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// Attempted / failed operation accounting of one run. Every failure is
/// printed with its reason so a failing run is diagnosable from its log.
class Tally {
public:
  void record(bool Ok, const std::string &What);
  std::int64_t attempted() const { return Attempted; }
  std::int64_t failed() const { return Failed; }

private:
  std::int64_t Attempted = 0;
  std::int64_t Failed = 0;
};

/// Prints the run's final line: the one JSON object callers parse.
void printResult(const Tally &T, const std::vector<Metric> &Metrics);

/// Peak resident set of this process in MB (ru_maxrss).
double peakRssMb();

/// Deterministic generator for seeded vectors (SplitMix64).
class Rng {
public:
  explicit Rng(std::uint64_t Seed) : State(Seed) {}
  std::uint64_t next() {
    std::uint64_t Z = (State += 0x9E3779B97F4A7C15ULL);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi).
  double uniform(double Lo, double Hi) {
    return Lo + (Hi - Lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

private:
  std::uint64_t State;
};

std::vector<double> seededVector(std::uint64_t Seed, std::size_t N, double Lo,
                                 double Hi);

/// Workload entry points (KernelWorkloads.cpp, ServeWorkload.cpp,
/// Traced.cpp). Each returns the process exit code.
int runKernelWorkload(const RunArgs &A);
int runServeWorkload(const RunArgs &A);
int runTraced(const RunArgs &A);

/// Input generation (Inputs.cpp): writes every file of (workload, seed)
/// into \p Dir. Returns the process exit code.
int generateInputs(const std::string &Workload, std::uint64_t Seed,
                   const std::string &Dir, int Threads);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
