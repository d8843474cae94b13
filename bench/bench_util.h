// Shared helpers for the experiment harnesses: wall-clock timing, aligned
// table printing, and machine-readable perf records. Each bench binary
// regenerates one table or figure of EXPERIMENTS.md and prints it to stdout.
#ifndef RES_BENCH_BENCH_UTIL_H_
#define RES_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/res/reverse_engine.h"

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

// One bench data point. Wall-clock is machine-dependent; every other field
// is a deterministic engine/solver counter (for serial batches), which is
// what tools/check_bench.py regression-gates against bench/baselines.json.
struct BenchRecord {
  std::string name;
  double wall_ms = 0;
  uint64_t hypotheses_explored = 0;
  uint64_t solver_checks = 0;
  uint64_t cache_hits = 0;
  // Counter-based perf metrics (see bench/README.md for the schema).
  uint64_t propagated_constraints = 0;  // phase-1 substitution visits
  uint64_t detector_units_scanned = 0;  // root-cause detector unit visits
  uint64_t clauses_learned = 0;         // UNSAT cores published to the store
  uint64_t clause_hits = 0;             // hypotheses refuted by a stored core
  uint64_t budget_exhaustions = 0;      // portfolio checks ended by budget
  uint64_t strategy_wins_interval = 0;
  uint64_t strategy_wins_enumeration = 0;
  uint64_t strategy_wins_search = 0;
  uint64_t clauses_evicted = 0;         // low-hit cores displaced by learning
  // --- Batch-triage (ResRuntime) fields; zero for single-run records. ---
  uint64_t promoted_clause_hits = 0;    // hypotheses refuted by promoted cores
  uint64_t promoted_cache_hits = 0;     // cache hits via promoted check keys
  uint64_t clause_promotions = 0;       // cores promoted module-global
  uint64_t cache_promotions = 0;        // check keys promoted module-global
  uint64_t expr_reuse_hits = 0;         // shared-pool variable re-interns
  double dumps_per_sec = 0;             // batch throughput (wall-dependent)
  // Failure-surface counters (deterministic; baselined as floors: losing
  // quarantine/degradation coverage is the regression, see bench/README.md).
  uint64_t quarantined = 0;             // reports isolated by the batch
  uint64_t deadline_exceeded = 0;       // runs stopped by the step deadline
  uint64_t degraded_retries = 0;        // degraded-profile retries launched
  // --- Daemon (wave-scheduled) fields; zero for batch/single records. ---
  uint64_t waves = 0;                   // RunBatch calls the daemon issued
  uint64_t wave_promotions = 0;         // facts promoted at wave boundaries
  // --- Schedule-space scenario fields (bench_sweep_scenarios); empty/zero
  // for non-sweep records. scheduler_policy/scheduler_seed identify the
  // schedule a record was produced under (canonical spec string + first
  // seed of the swept range). The sweep counters are deterministic: the
  // grid is fixed, every policy is a pure function of (spec, seed).
  std::string scheduler_policy;
  uint64_t scheduler_seed = 0;
  uint64_t sweep_runs = 0;              // grid points executed
  uint64_t sweep_crashes = 0;           // runs that ended in a failure trap
  uint64_t sweep_fixtures = 0;          // deduped fixtures minted
  uint64_t sweep_unique_bugs = 0;       // distinct (trap PC, bucket) ids
  uint64_t diff_groups = 0;             // cross-schedule groups diffed
  uint64_t diff_causes_equal = 0;       // groups with byte-equal root cause
  // --- VM execution-substrate fields (bench_table5_recording_overhead);
  // zero for non-VM records. vm_steps/vm_predecode_steps are deterministic
  // step counters (Vm::steps / Vm::predecode_steps — the latter is nonzero
  // only on the predecoded engine, equal to vm_steps there by the
  // dispatch-equivalence contract); vm_steps_per_sec is wall-dependent
  // throughput, reported but never baselined.
  uint64_t vm_steps = 0;                // instructions retired by the run
  uint64_t vm_predecode_steps = 0;      // steps via the predecoded engine
  double vm_steps_per_sec = 0;          // vm_steps / wall seconds

  // Adds an engine run's counters into this record (benches that aggregate
  // several runs per record call this once per run; single-run records get
  // it via FromStats). The counter field list lives only here.
  void Accumulate(const ResStats& stats) {
    hypotheses_explored += stats.hypotheses_explored;
    solver_checks += stats.solver.checks;
    cache_hits += stats.solver.cache_hits;
    propagated_constraints += stats.solver.propagated_constraints;
    detector_units_scanned += stats.detector_units_scanned;
    clauses_learned += stats.solver.clauses_learned;
    clause_hits += stats.solver.clause_hits;
    budget_exhaustions += stats.solver.budget_exhaustions;
    strategy_wins_interval +=
        stats.solver.strategy_wins[static_cast<size_t>(StrategyKind::kInterval)];
    strategy_wins_enumeration += stats.solver.strategy_wins[static_cast<size_t>(
        StrategyKind::kEnumeration)];
    strategy_wins_search +=
        stats.solver.strategy_wins[static_cast<size_t>(StrategyKind::kSearch)];
    clauses_evicted += stats.solver.clauses_evicted;
    promoted_clause_hits += stats.solver.promoted_clause_hits;
    promoted_cache_hits += stats.solver.promoted_cache_hits;
  }

  // Batch-level counters from a TriageService run (combine with Accumulate
  // over the per-dump report stats for the engine-counter fields).
  template <typename TriageStatsT>
  void FromBatch(const TriageStatsT& batch) {
    clause_promotions = batch.clause_promotions;
    cache_promotions = batch.cache_promotions;
    expr_reuse_hits = batch.expr_reuse_hits;
    dumps_per_sec = batch.dumps_per_sec;
    quarantined = batch.quarantined;
    deadline_exceeded = batch.deadline_exceeded;
    degraded_retries = batch.degraded_retries;
  }

  // Daemon-level counters from a TriageDaemon run (FromBatch's superset:
  // daemon stats carry the aggregated batch counters too).
  template <typename TriageDaemonStatsT>
  void FromDaemon(const TriageDaemonStatsT& daemon) {
    clause_promotions = daemon.clause_promotions;
    cache_promotions = daemon.cache_promotions;
    expr_reuse_hits = daemon.expr_reuse_hits;
    quarantined = daemon.quarantined;
    deadline_exceeded = daemon.deadline_exceeded;
    degraded_retries = daemon.degraded_retries;
    waves = daemon.waves;
    wave_promotions = daemon.wave_promotions;
  }

  // Fills every counter field from a single engine run's merged stats.
  void FromStats(const ResStats& stats) {
    *this = BenchRecord{name, wall_ms};
    Accumulate(stats);
  }
};

// Appends one JSON record per bench data point to a shared file (JSON Lines:
// one object per line, so successive bench runs and binaries can append
// without rewriting). See bench/README.md for the schema.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string path = "BENCH_res_scaling.json")
      : path_(std::move(path)) {}

  void Append(const BenchRecord& r) {
    std::FILE* f = std::fopen(path_.c_str(), "a");
    if (f == nullptr) {
      return;  // perf records are best-effort; never fail the bench
    }
    std::fprintf(
        f,
        "{\"name\": \"%s\", \"wall_ms\": %.3f, "
        "\"hypotheses_explored\": %llu, \"solver_checks\": %llu, "
        "\"cache_hits\": %llu, "
        "\"propagated_constraints\": %llu, \"detector_units_scanned\": %llu, "
        "\"clauses_learned\": %llu, \"clause_hits\": %llu, "
        "\"budget_exhaustions\": %llu, \"strategy_wins_interval\": %llu, "
        "\"strategy_wins_enumeration\": %llu, \"strategy_wins_search\": %llu, "
        "\"clauses_evicted\": %llu, \"promoted_clause_hits\": %llu, "
        "\"promoted_cache_hits\": %llu, "
        "\"clause_promotions\": %llu, \"cache_promotions\": %llu, "
        "\"expr_reuse_hits\": %llu, \"dumps_per_sec\": %.3f, "
        "\"quarantined\": %llu, \"deadline_exceeded\": %llu, "
        "\"degraded_retries\": %llu, \"waves\": %llu, "
        "\"wave_promotions\": %llu, \"scheduler_policy\": \"%s\", "
        "\"scheduler_seed\": %llu, \"sweep_runs\": %llu, "
        "\"sweep_crashes\": %llu, \"sweep_fixtures\": %llu, "
        "\"sweep_unique_bugs\": %llu, \"diff_groups\": %llu, "
        "\"diff_causes_equal\": %llu, \"vm_steps\": %llu, "
        "\"vm_predecode_steps\": %llu, \"vm_steps_per_sec\": %.3f}\n",
        r.name.c_str(), r.wall_ms,
        static_cast<unsigned long long>(r.hypotheses_explored),
        static_cast<unsigned long long>(r.solver_checks),
        static_cast<unsigned long long>(r.cache_hits),
        static_cast<unsigned long long>(r.propagated_constraints),
        static_cast<unsigned long long>(r.detector_units_scanned),
        static_cast<unsigned long long>(r.clauses_learned),
        static_cast<unsigned long long>(r.clause_hits),
        static_cast<unsigned long long>(r.budget_exhaustions),
        static_cast<unsigned long long>(r.strategy_wins_interval),
        static_cast<unsigned long long>(r.strategy_wins_enumeration),
        static_cast<unsigned long long>(r.strategy_wins_search),
        static_cast<unsigned long long>(r.clauses_evicted),
        static_cast<unsigned long long>(r.promoted_clause_hits),
        static_cast<unsigned long long>(r.promoted_cache_hits),
        static_cast<unsigned long long>(r.clause_promotions),
        static_cast<unsigned long long>(r.cache_promotions),
        static_cast<unsigned long long>(r.expr_reuse_hits), r.dumps_per_sec,
        static_cast<unsigned long long>(r.quarantined),
        static_cast<unsigned long long>(r.deadline_exceeded),
        static_cast<unsigned long long>(r.degraded_retries),
        static_cast<unsigned long long>(r.waves),
        static_cast<unsigned long long>(r.wave_promotions),
        r.scheduler_policy.c_str(),
        static_cast<unsigned long long>(r.scheduler_seed),
        static_cast<unsigned long long>(r.sweep_runs),
        static_cast<unsigned long long>(r.sweep_crashes),
        static_cast<unsigned long long>(r.sweep_fixtures),
        static_cast<unsigned long long>(r.sweep_unique_bugs),
        static_cast<unsigned long long>(r.diff_groups),
        static_cast<unsigned long long>(r.diff_causes_equal),
        static_cast<unsigned long long>(r.vm_steps),
        static_cast<unsigned long long>(r.vm_predecode_steps),
        r.vm_steps_per_sec);
    std::fclose(f);
  }

  // Convenience: record an engine run (all counters from its stats).
  void Append(const std::string& name, double wall_ms, const ResStats& stats) {
    BenchRecord r;
    r.name = name;
    r.wall_ms = wall_ms;
    r.FromStats(stats);
    Append(r);
  }

 private:
  std::string path_;
};

}  // namespace res

#endif  // RES_BENCH_BENCH_UTIL_H_
