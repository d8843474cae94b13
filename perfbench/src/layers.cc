#include "perfbench/src/layers.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

struct LayerMetricName {
  const char* name;
  const char* unit;
};

// The per-layer list, in print order. BENCHMARK.json's `per_layer` names
// exactly these; the self-check (run.py --selfcheck) compares the two.
constexpr LayerMetricName kLayerMetrics[] = {
    {"vm.run_ms", "ms"},
    {"vm.steps", "count"},
    {"vm.predecode_ms", "ms"},
    {"scenario.sweep_ms", "ms"},
    {"scenario.runs", "count"},
    {"scenario.crashes", "count"},
    {"scenario.fixtures", "count"},
    {"scenario.fixture_yield", "ratio"},
    {"workloads.fault_ms", "ms"},
    {"workloads.fault_yield", "ratio"},
    {"coredump.capture_ms", "ms"},
    {"coredump.serialize_ms", "ms"},
    {"coredump.deserialize_ms", "ms"},
    {"coredump.validate_ms", "ms"},
    {"coredump.bytes", "B"},
    {"triage.submit_ms", "ms"},
    {"triage.pump_ms", "ms"},
    {"triage.queue_wait_p50_ms", "ms"},
    {"triage.queue_wait_tail_ms", "ms"},
    {"triage.overhead_ms", "ms"},
    {"triage.waves", "count"},
    {"triage.wave_promotions", "count"},
    {"triage.quarantined", "count"},
    {"triage.degraded_retries", "count"},
    {"triage.rejected", "count"},
    {"triage.facts_evicted", "count"},
    {"triage.pool_reclaims", "count"},
    {"res.run_ms", "ms"},
    {"res.run_p50_ms", "ms"},
    {"res.run_tail_ms", "ms"},
    {"res.facts_ms", "ms"},
    {"res.promote_ms", "ms"},
    {"res.hypotheses", "count"},
    {"res.expansions", "count"},
    {"res.committed_units", "count"},
    {"res.prune_ratio", "ratio"},
    {"res.address_forks", "count"},
    {"res.address_unresolved", "count"},
    {"res.expr_reuse_hits", "count"},
    {"res.detector_units_scanned", "count"},
    {"res.stop.root_cause", "count"},
    {"res.stop.frontier_exhausted", "count"},
    {"res.stop.budget", "count"},
    {"res.stop.max_depth", "count"},
    {"res.hw_suspected", "count"},
    {"symbolic.checks", "count"},
    {"symbolic.cache_hit_ratio", "ratio"},
    {"symbolic.model_reuse_hits", "count"},
    {"symbolic.propagated_constraints", "count"},
    {"symbolic.clause_hits", "count"},
    {"symbolic.promoted_clause_hits", "count"},
    {"symbolic.promoted_cache_hits", "count"},
    {"symbolic.unknown", "count"},
    {"symbolic.pool_nodes", "count"},
    {"symbolic.pool_vars", "count"},
    {"replay.ms", "ms"},
    {"replay.verified", "count"},
    {"replay.suffix_units", "count"},
    {"trace.overhead_ratio", "ratio"},
};

}  // namespace

void ResTally::Add(const res::ResResult& result) {
  const res::ResStats& s = result.stats;
  ++runs;
  hypotheses += s.hypotheses_explored;
  expansions += s.expansions;
  pruned += s.pruned_unsat + s.pruned_structural + s.pruned_lbr + s.pruned_errlog;
  committed_units += s.committed_units;
  address_forks += s.address_forks;
  address_unresolved += s.address_unresolved;
  expr_reuse_hits += s.expr_reuse_hits;
  detector_units_scanned += s.detector_units_scanned;
  switch (result.stop) {
    case res::StopReason::kRootCauseFound:
      ++stop_root_cause;
      break;
    case res::StopReason::kFrontierExhausted:
      ++stop_frontier_exhausted;
      break;
    case res::StopReason::kBudget:
      ++stop_budget;
      break;
    case res::StopReason::kMaxDepth:
      ++stop_max_depth;
      break;
    default:
      break;
  }
  hw_suspected += result.hardware_error_suspected ? 1 : 0;
  checks += s.solver.checks;
  cache_hits += s.solver.cache_hits;
  cache_misses += s.solver.cache_misses;
  model_reuse_hits += s.solver.model_reuse_hits;
  propagated_constraints += s.solver.propagated_constraints;
  clause_hits += s.solver.clause_hits;
  promoted_clause_hits += s.solver.promoted_clause_hits;
  promoted_cache_hits += s.solver.promoted_cache_hits;
  unknown += s.solver.unknown;
}

void ResTally::NotePool(uint64_t nodes, uint64_t vars) {
  pool_nodes_max = std::max(pool_nodes_max, nodes);
  pool_vars_max = std::max(pool_vars_max, vars);
}

void ResTally::Emit(double rounds, LayerValues* out) const {
  auto per_round = [rounds](uint64_t v) {
    return static_cast<double>(v) / rounds;
  };
  LayerValues& o = *out;
  o["res.hypotheses"] = per_round(hypotheses);
  o["res.expansions"] = per_round(expansions);
  o["res.committed_units"] = per_round(committed_units);
  o["res.prune_ratio"] = Ratio(static_cast<double>(pruned),
                               static_cast<double>(expansions));
  o["res.address_forks"] = per_round(address_forks);
  o["res.address_unresolved"] = per_round(address_unresolved);
  o["res.expr_reuse_hits"] = per_round(expr_reuse_hits);
  o["res.detector_units_scanned"] = per_round(detector_units_scanned);
  o["res.stop.root_cause"] = per_round(stop_root_cause);
  o["res.stop.frontier_exhausted"] = per_round(stop_frontier_exhausted);
  o["res.stop.budget"] = per_round(stop_budget);
  o["res.stop.max_depth"] = per_round(stop_max_depth);
  o["res.hw_suspected"] = per_round(hw_suspected);
  o["symbolic.checks"] = per_round(checks);
  o["symbolic.cache_hit_ratio"] =
      Ratio(static_cast<double>(cache_hits),
            static_cast<double>(cache_hits + cache_misses));
  o["symbolic.model_reuse_hits"] = per_round(model_reuse_hits);
  o["symbolic.propagated_constraints"] = per_round(propagated_constraints);
  o["symbolic.clause_hits"] = per_round(clause_hits);
  o["symbolic.promoted_clause_hits"] = per_round(promoted_clause_hits);
  o["symbolic.promoted_cache_hits"] = per_round(promoted_cache_hits);
  o["symbolic.unknown"] = per_round(unknown);
  o["symbolic.pool_nodes"] = static_cast<double>(pool_nodes_max);
  o["symbolic.pool_vars"] = static_cast<double>(pool_vars_max);
}

void SpanWindows::Add(const std::map<std::string, SpanTotals>& window) {
  for (const auto& [name, t] : window) {
    SpanTotals& dst = totals_[name];
    dst.calls += t.calls;
    dst.total_ms += t.total_ms;
    dst.self_ms += t.self_ms;
    dst.durations_ms.insert(dst.durations_ms.end(), t.durations_ms.begin(),
                            t.durations_ms.end());
  }
}

const SpanTotals& SpanWindows::Get(const std::string& name) const {
  static const SpanTotals kEmpty;
  auto it = totals_.find(name);
  return it == totals_.end() ? kEmpty : it->second;
}

double SpanWindows::ChildMs(const std::string& name) const {
  const SpanTotals& t = Get(name);
  return t.total_ms - t.self_ms;
}

void EmitLayerMetrics(const LayerValues& values, MetricSet* out) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const LayerMetricName& m : kLayerMetrics) {
      known = known || name == m.name;
    }
    if (!known) {
      std::fprintf(stderr, "perfbench: unknown per-layer metric '%s'\n",
                   name.c_str());
      std::abort();
    }
  }
  for (const LayerMetricName& m : kLayerMetrics) {
    auto it = values.find(m.name);
    out->Add(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
}

void PrintSpanTable(const char* title, const SpanWindows& spans, double rounds) {
  std::printf("%s (per round; self = total minus child spans)\n", title);
  std::printf("  %-24s %10s %12s %12s\n", "span", "calls", "total_ms", "self_ms");
  for (const auto& [name, t] : spans.totals()) {
    std::printf("  %-24s %10.1f %12.3f %12.3f\n", name.c_str(),
                static_cast<double>(t.calls) / rounds, t.total_ms / rounds,
                t.self_ms / rounds);
  }
}

}  // namespace perfbench
