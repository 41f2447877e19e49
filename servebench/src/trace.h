// Spans the benchmark records around its own calls into each layer of the
// system (choosing-metrics §4): name, start, end, the span that caused it,
// and the request it belongs to. Spans are kept in memory while the run
// lasts and written out once at the end. Nothing here reaches inside
// src/: every span wraps a public call made from benchmark code.
#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/mutex.h"

namespace servebench {

struct Span {
  /// Layer-qualified call name, e.g. "kspdg.candidates". Always a string
  /// literal, so spans can hold the pointer.
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  /// Id of the span that caused this one; 0 for a root span.
  uint64_t parent = 0;
  /// Benchmark request id shared by every span of one request; 0 for
  /// spans that belong to no request (set-up, scrapes).
  uint64_t request = 0;
};

/// Collects spans from any number of threads. A null Tracer* means tracing
/// is off; every helper below accepts one and then does nothing.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static int64_t NowNs();

  uint64_t NextId();
  void Record(const Span& span);

  /// Spans recorded so far, in completion order.
  std::vector<Span> Spans() const;

  /// Writes one CSV line per span (id,parent,request,name,start_ns,end_ns).
  bool WriteCsv(const std::string& path) const;

 private:
  mutable kspdg::Mutex mu_{"servebench::Tracer::mu_"};
  std::vector<Span> spans_ GUARDED_BY(mu_);
  std::atomic<uint64_t> next_id_{0};
};

/// RAII span: starts on construction, recorded on destruction. A null
/// tracer makes it a no-op whose id() is 0.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
             uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Per-name totals over a set of spans.
struct SpanTotals {
  size_t count = 0;
  double total_ms = 0;
  /// Duration minus the part of it covered by child spans.
  double self_ms = 0;
};

/// Aggregates spans by name; self time subtracts the union of each span's
/// children's intervals.
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

/// Per-request totals of the spans called `name` (total or self time, in
/// ms), keyed by request id.
std::map<uint64_t, double> PerRequestMs(const std::vector<Span>& spans,
                                        const std::string& name,
                                        bool self_time);

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
