//===- perfbench/src/Main.cpp - perfbench command line --------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//   perfbench gen --workload W --seed N --out DIR
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --inputs DIR --out DIR
//   perfbench selftest
//
// `run` prints the host descriptor, progress lines, and as its last line
// the JSON result object. run.py builds this binary, generates the inputs
// and invokes it; see README.md.
//
//===----------------------------------------------------------------------===//

#include "Check.h"
#include "Common.h"
#include "Host.h"
#include "Inputs.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <omp.h>
#include <unistd.h>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --workload W --seed N --out DIR\n"
               "       perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --inputs DIR --out DIR\n"
               "       perfbench selftest\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  const std::string Mode = Argv[1];
  RunArgs A;
  for (int I = 2; I + 1 < Argc; I += 2) {
    const char *K = Argv[I], *V = Argv[I + 1];
    if (!std::strcmp(K, "--workload"))
      A.Workload = V;
    else if (!std::strcmp(K, "--seed"))
      A.Seed = std::strtoull(V, nullptr, 10);
    else if (!std::strcmp(K, "--seconds"))
      A.Seconds = std::atof(V);
    else if (!std::strcmp(K, "--trace"))
      A.Trace = std::atoi(V) != 0;
    else if (!std::strcmp(K, "--inputs"))
      A.InputDir = V;
    else if (!std::strcmp(K, "--out"))
      A.OutDir = V;
    else
      return usage();
  }
  A.Threads = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  if (A.Threads < 1)
    A.Threads = 1;
  omp_set_num_threads(A.Threads);

  if (Mode == "selftest")
    return checkerSelfTest() ? 0 : 1;
  if (Mode == "gen")
    return A.OutDir.empty() ? usage()
                            : generateInputs(A.Workload, A.Seed, A.OutDir,
                                             A.Threads);
  if (Mode != "run" || A.InputDir.empty() || A.OutDir.empty())
    return usage();

  const WorkloadSpec *W = findWorkload(A.Workload);
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  if (std::string Why = environmentRefusal(); !Why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to run: %s\n", Why.c_str());
    return 2;
  }
  if (!checkerSelfTest()) {
    std::fprintf(stderr, "perfbench: checker self-test failed\n");
    return 1;
  }
  // Serve-stack sockets live in the run directory (relative paths keep
  // them under the sun_path length limit), and a client that vanishes
  // mid-response must not kill the in-process server.
  if (chdir(A.OutDir.c_str()) != 0) {
    std::fprintf(stderr, "perfbench: cannot enter '%s'\n", A.OutDir.c_str());
    return 1;
  }
  std::signal(SIGPIPE, SIG_IGN);
  if (A.Trace)
    return runTraced(A);
  return W->Serve ? runServeWorkload(A) : runKernelWorkload(A);
}
