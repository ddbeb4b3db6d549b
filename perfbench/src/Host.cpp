//===- perfbench/src/Host.cpp - Host descriptor and run helpers -----------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Host.h"
#include "Common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - static_cast<double>(Lo)) * (V[Hi] - V[Lo]);
}

double mean(const std::vector<double> &V) {
  double S = 0.0;
  for (double E : V)
    S += E;
  return V.empty() ? 0.0 : S / static_cast<double>(V.size());
}

void Tally::record(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    std::printf("FAILED %s\n", What.c_str());
  }
}

void printResult(const Tally &T, const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              T.failed() == 0 ? "true" : "false",
              static_cast<long long>(T.attempted()),
              static_cast<long long>(T.failed()));
  for (std::size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    // %.17g keeps every digit; a non-finite value is not JSON, so it is
    // printed as null, which no caller accepts as a measurement.
    if (std::isfinite(M.Value))
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", M.Name.c_str(), M.Value, M.Unit.c_str());
    else
      std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                  I ? ", " : "", M.Name.c_str(), M.Unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // KiB on Linux.
}

std::vector<double> seededVector(std::uint64_t Seed, std::size_t N, double Lo,
                                 double Hi) {
  Rng R(Seed);
  std::vector<double> V(N);
  for (double &E : V)
    E = R.uniform(Lo, Hi);
  return V;
}

double stealShareSinceLastCall() {
  static unsigned long long PrevSteal = 0, PrevTotal = 0;
  std::ifstream IS("/proc/stat");
  std::string Line, Cpu;
  if (!std::getline(IS, Line))
    return -1.0;
  std::istringstream LS(Line);
  LS >> Cpu;
  unsigned long long V, Total = 0, Steal = 0;
  for (int I = 0; LS >> V; ++I) {
    Total += V;
    if (I == 7)
      Steal = V;
  }
  if (Cpu != "cpu" || Total == PrevTotal)
    return -1.0;
  double Share = static_cast<double>(Steal - PrevSteal) /
                 static_cast<double>(Total - PrevTotal);
  PrevSteal = Steal;
  PrevTotal = Total;
  return Share;
}

std::string environmentRefusal() {
  for (const char *Var : {"CVR_CHECKED", "CVR_FAILPOINTS"})
    if (const char *V = std::getenv(Var); V && *V)
      return std::string(Var) + " is set; it changes the program being "
                                "measured";
  return "";
}

namespace {

long cacheBytes(int Name) {
  long V = sysconf(Name);
  return V > 0 ? V : -1;
}

} // namespace

void printHost(int Threads) {
  const char *Rev = std::getenv("PERFBENCH_SOURCE_REV");
  const char *Telemetry = std::getenv("CVR_TELEMETRY");
  std::printf("host {\"nproc\": %ld, \"threads\": %d, \"l2_bytes\": %ld, "
              "\"l3_bytes\": %ld, \"avx512f\": %s, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"source_rev\": \"%s\", "
              "\"CVR_TELEMETRY\": \"%s\"}\n",
              sysconf(_SC_NPROCESSORS_ONLN), Threads,
              cacheBytes(_SC_LEVEL2_CACHE_SIZE),
              cacheBytes(_SC_LEVEL3_CACHE_SIZE),
              __builtin_cpu_supports("avx512f") ? "true" : "false",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, Rev ? Rev : "unknown",
              Telemetry ? Telemetry : "(unset)");
}

} // namespace perfbench
