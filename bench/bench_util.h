// Shared helpers for the experiment harnesses: wall-clock timing, aligned
// table printing, and machine-readable perf records. Each bench binary
// regenerates one table or figure of EXPERIMENTS.md and prints it to stdout.
#ifndef RES_BENCH_BENCH_UTIL_H_
#define RES_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/res/reverse_engine.h"
#include "src/support/string_util.h"
#include "src/triage/triage_daemon.h"

namespace res {

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(now - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// Prints rows of columns, padding each column to its widest cell.
inline void PrintTable(const std::vector<std::vector<std::string>>& rows) {
  std::vector<size_t> widths;
  for (const auto& row : rows) {
    if (widths.size() < row.size()) {
      widths.resize(row.size(), 0);
    }
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      std::printf("%-*s  ", static_cast<int>(widths[i]), row[i].c_str());
    }
    std::printf("\n");
  }
}

// Record keys that no stats list holds, one entry per key: X(type, key).
// The sweep values are deterministic (the grid is fixed and every policy is
// a pure function of (spec, seed)); vm_steps is a deterministic step
// counter; vm_steps_per_sec is wall-dependent.
#define RES_BENCH_VALUES(X)                                                    \
  X(std::string, scheduler_policy)  /* canonical scheduler spec string */      \
  X(uint64_t, scheduler_seed)       /* first seed of the swept range */        \
  X(uint64_t, sweep_runs)           /* grid points executed */                 \
  X(uint64_t, sweep_crashes)        /* runs that ended in a failure trap */    \
  X(uint64_t, sweep_fixtures)       /* deduped fixtures minted */              \
  X(uint64_t, sweep_unique_bugs)    /* distinct (trap PC, bucket) ids */       \
  X(uint64_t, diff_groups)          /* cross-schedule groups diffed */         \
  X(uint64_t, diff_causes_equal)    /* groups with byte-equal root cause */    \
  X(uint64_t, vm_steps)             /* instructions retired by the run */      \
  X(double, vm_steps_per_sec)       /* vm_steps / wall seconds */

// One bench data point: a name, its wall time, the stats it was given and
// the values no stats struct holds. The writer walks the stats lists, so
// every record carries every counter; tools/check_bench.py gates the
// deterministic ones against bench/baselines.json.
struct BenchRecord {
  std::string name;
  double wall_ms = 0;
  // The widest stats struct. An engine-run record adds its run into
  // stats.res, a batch record adds its TriageStats, and a daemon record is
  // the daemon's stats.
  TriageDaemonStats stats;
#define RES_BENCH_FIELD(type, key) type key{};
  RES_BENCH_VALUES(RES_BENCH_FIELD)
#undef RES_BENCH_FIELD
};

// Appends one JSON record per bench data point to a shared file (JSON Lines:
// one object per line, so successive bench runs and binaries can append
// without rewriting). See bench/README.md for the schema.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string path = "BENCH_res_scaling.json")
      : path_(std::move(path)) {}

  void Append(const BenchRecord& r) {
    std::string line;
    auto add = [&line](std::string_view key, const std::string& value) {
      line += line.empty() ? "{\"" : ", \"";
      line += key;
      line += "\": ";
      line += value;
    };
    add("name", Json(r.name));
    add("wall_ms", Json(r.wall_ms));
    r.stats.ForEachCounter(
        [&add](std::string_view key, uint64_t v) { add(key, Json(v)); });
    add("dumps_per_sec", Json(r.stats.dumps_per_sec()));
#define RES_BENCH_EMIT(type, key) add(#key, Json(r.key));
    RES_BENCH_VALUES(RES_BENCH_EMIT)
#undef RES_BENCH_EMIT
    line += "}\n";
    std::FILE* f = std::fopen(path_.c_str(), "a");
    if (f == nullptr) {
      return;  // perf records are best-effort; never fail the bench
    }
    std::fputs(line.c_str(), f);
    std::fclose(f);
  }

  // Convenience: record one engine run.
  void Append(const std::string& name, double wall_ms, const ResStats& stats) {
    BenchRecord r;
    r.name = name;
    r.wall_ms = wall_ms;
    r.stats.res += stats;
    Append(r);
  }

 private:
  static std::string Json(uint64_t v) { return std::to_string(v); }
  static std::string Json(double v) { return StrFormat("%.3f", v); }
  static std::string Json(const std::string& v) { return "\"" + v + "\""; }

  std::string path_;
};

}  // namespace res

#endif  // RES_BENCH_BENCH_UTIL_H_
