#include "perfbench/src/trace.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <system_error>

namespace perfbench {

namespace {

thread_local int tls_current_span = -1;

}  // namespace

int CurrentSpan() { return tls_current_span; }

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::Begin(const char* name, int parent) {
  if (!enabled_) {
    return -1;
  }
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) {
  if (id < 0) {
    return;
  }
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, SpanTotals> Tracer::Summarize(size_t begin,
                                                    size_t end) const {
  std::lock_guard<std::mutex> lock(mu_);
  end = std::min(end, spans_.size());
  // Child intervals per parent, so self time subtracts the union of the
  // children (parallel children overlap; each instant counts once).
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      end > begin ? end - begin : 0);
  for (size_t i = begin; i < end; ++i) {
    const int p = spans_[i].parent;
    if (p >= 0 && static_cast<size_t>(p) >= begin) {
      children[static_cast<size_t>(p) - begin].push_back(
          {spans_[i].start_ns, spans_[i].end_ns});
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = begin; i < end; ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i - begin];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (const auto& [b, e] : kids) {
      const int64_t lo = std::max(b, cursor);
      const int64_t hi = std::min(e, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    const double dur_ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    SpanTotals& t = totals[s.name];
    ++t.calls;
    t.total_ms += dur_ms;
    t.self_ms += dur_ms - static_cast<double>(covered) / 1e6;
    t.durations_ms.push_back(dur_ms);
  }
  return totals;
}

bool Tracer::WriteJsonl(const std::string& path,
                        const std::string& host_json) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                          &std::fclose);
  if (!f) {
    return false;
  }
  std::fprintf(f.get(), "{\"host\": %s}\n", host_json.c_str());
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(),
                 "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                 i, s.name, s.parent, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns) / 1e3);
  }
  return std::fflush(f.get()) == 0;
}

void WriteSpanFile(const Tracer& tracer, const Options& options) {
  const std::string dir = ".bench_build/trace";
  const std::string path = dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".spans.jsonl";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec || !tracer.WriteJsonl(path, HostRecordJson(options))) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::printf("spans written to %s\n", path.c_str());
}

SpanScope::SpanScope(Tracer* tracer, const char* name)
    : SpanScope(tracer, name, tls_current_span) {}

SpanScope::SpanScope(Tracer* tracer, const char* name, int parent)
    : tracer_(tracer), saved_current_(tls_current_span) {
  if (tracer_ != nullptr && tracer_->enabled()) {
    id_ = tracer_->Begin(name, parent);
    tls_current_span = id_;
  }
}

SpanScope::~SpanScope() {
  if (id_ >= 0) {
    tracer_->End(id_);
    tls_current_span = saved_current_;
  }
}

}  // namespace perfbench
