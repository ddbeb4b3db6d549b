//===- perfbench/src/Host.h - Host and environment descriptor -------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <string>

namespace perfbench {

/// Non-empty reason when the environment changes the program being
/// measured (CVR_CHECKED, CVR_FAILPOINTS), so the run must refuse.
std::string environmentRefusal();

/// Prints one "host {...}" line: nproc, threads used, L2/L3 sizes,
/// AVX-512, compiler, build type, source revision and CVR_TELEMETRY.
void printHost(int Threads);

/// Hypervisor steal share of all CPU time since the previous call (first
/// call: since boot), from /proc/stat; -1 where it cannot be read. The
/// runs print it next to their figures: a slow run on a shared host
/// shows up here.
double stealShareSinceLastCall();

} // namespace perfbench

#endif // PERFBENCH_HOST_H
