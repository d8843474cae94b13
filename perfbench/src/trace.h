// Span tracer for the traced run. Spans are recorded only around the calls
// the benchmark itself makes into a layer's public functions; nothing inside
// the program is instrumented. Spans stay in memory and are written out once,
// at exit.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/src/common.h"

namespace perfbench {

struct Span {
  const char* name = "";  // string literal: "<layer>.<call>"
  int64_t start_ns = 0;   // since the tracer was created
  int64_t end_ns = 0;
  int parent = -1;        // index of the enclosing span, -1 for a root
};

struct SpanTotals {
  uint64_t calls = 0;
  double total_ms = 0;
  double self_ms = 0;  // duration minus the time covered by child spans
  std::vector<double> durations_ms;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  // Turns recording on or off; spans already recorded are kept. Call only
  // while no other thread records spans.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Opens a span and returns its id (-1 when disabled). Thread-safe.
  int Begin(const char* name, int parent);
  void End(int id);

  // Per-name totals over spans [begin, end) (a window of one pass).
  std::map<std::string, SpanTotals> Summarize(size_t begin, size_t end) const;
  size_t span_count() const;

  // One JSON object per line: the host record first, then every span.
  bool WriteJsonl(const std::string& path, const std::string& host_json) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// Writes every span of a traced run to
// .bench_build/trace/<workload>-seed<N>.spans.jsonl under the working
// directory (the checkout root when started by run.py).
void WriteSpanFile(const Tracer& tracer, const Options& options);

// RAII span. Without an explicit parent it nests under the calling thread's
// innermost open span; worker threads pass the span that spawned them.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name);
  SpanScope(Tracer* tracer, const char* name, int parent);
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope();

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_ = -1;
  int saved_current_ = -1;
};

// The calling thread's innermost open span (-1 outside any span).
int CurrentSpan();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
