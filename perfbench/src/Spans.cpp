//===- perfbench/src/Spans.cpp - Benchmark-side layer spans ---------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Common.h"

#include <cstdio>
#include <map>
#include <string>

namespace perfbench {

namespace {

struct SpanTotals {
  std::string Layer;
  int Calls = 0;
  double Total = 0.0;
  double Self = 0.0;
};

// Spans open and close on the benchmark's main thread only.
LayerSpan *Innermost = nullptr;
std::map<std::string, SpanTotals> &totals() {
  static std::map<std::string, SpanTotals> T;
  return T;
}

} // namespace

LayerSpan::LayerSpan(const char *N, const char *L)
    : Trace(N, L), Name(N), Layer(L), Active(cvr::obs::traceActive()),
      Start(nowSeconds()), Parent(Innermost) {
  if (Active)
    Innermost = this;
}

LayerSpan::~LayerSpan() {
  if (!Active)
    return;
  double Dur = elapsed();
  SpanTotals &T = totals()[Name];
  T.Layer = Layer;
  ++T.Calls;
  T.Total += Dur;
  T.Self += Dur - ChildSeconds;
  if (Parent)
    Parent->ChildSeconds += Dur;
  Innermost = Parent;
}

double LayerSpan::elapsed() const { return nowSeconds() - Start; }

void printSelfTimes() {
  std::printf("%-28s %-9s %7s %12s %12s\n", "span", "layer", "calls",
              "total_ms", "self_ms");
  for (const auto &[Name, T] : totals())
    std::printf("%-28s %-9s %7d %12.3f %12.3f\n", Name.c_str(),
                T.Layer.c_str(), T.Calls, T.Total * 1e3, T.Self * 1e3);
}

} // namespace perfbench
