//===- perfbench/src/Spans.h - Benchmark-side layer spans -----------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
// A LayerSpan wraps one call into a program layer. It opens an
// obs::TraceSpan (so the call shows in the chrome trace next to the
// program's own spans) and keeps its own nesting record, from which the
// per-layer table's self times are computed: a span's self time is its
// duration minus the time its child spans cover.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include "obs/Trace.h"

namespace perfbench {

class LayerSpan {
public:
  /// \p Name and \p Layer must be string literals (the trace keeps the
  /// pointers).
  LayerSpan(const char *Name, const char *Layer);
  ~LayerSpan();
  LayerSpan(const LayerSpan &) = delete;
  LayerSpan &operator=(const LayerSpan &) = delete;

  /// Seconds since the span opened.
  double elapsed() const;

private:
  cvr::obs::TraceSpan Trace;
  const char *Name;
  const char *Layer;
  bool Active; ///< A trace session was running at construction.
  double Start;
  double ChildSeconds = 0.0;
  LayerSpan *Parent;
};

/// Spans opened while no trace session runs record nothing, so untraced
/// comparison runs pay only the session check.
/// Prints the per-span table: calls, total and self milliseconds.
void printSelfTimes();

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
