// Per-layer metrics of the traced run. Every workload emits the same list,
// named `<module>.<metric>` after the repository's modules; a layer a
// workload does not exercise reads 0. Counts and times are per round (one
// pass of the workload's stream) unless the name says otherwise.
#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <map>
#include <string>

#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"
#include "src/res/reverse_engine.h"

namespace perfbench {

using LayerValues = std::map<std::string, double>;

// Raw engine counters summed over the traced rounds' ResEngine runs.
struct ResTally {
  uint64_t runs = 0;
  uint64_t hypotheses = 0;
  uint64_t expansions = 0;
  uint64_t pruned = 0;
  uint64_t committed_units = 0;
  uint64_t address_forks = 0;
  uint64_t address_unresolved = 0;
  uint64_t expr_reuse_hits = 0;
  uint64_t detector_units_scanned = 0;
  uint64_t stop_root_cause = 0;
  uint64_t stop_frontier_exhausted = 0;
  uint64_t stop_budget = 0;
  uint64_t stop_max_depth = 0;
  uint64_t hw_suspected = 0;
  uint64_t checks = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t model_reuse_hits = 0;
  uint64_t propagated_constraints = 0;
  uint64_t clause_hits = 0;
  uint64_t promoted_clause_hits = 0;
  uint64_t promoted_cache_hits = 0;
  uint64_t unknown = 0;
  uint64_t pool_nodes_max = 0;  // ExprPool::node_count after each dump
  uint64_t pool_vars_max = 0;

  void Add(const res::ResResult& result);
  void NotePool(uint64_t nodes, uint64_t vars);
  // Writes the res.* and symbolic.* counters, divided by `rounds`.
  void Emit(double rounds, LayerValues* out) const;
};

// Span totals over several windows of a tracer, merged by name.
class SpanWindows {
 public:
  void Add(const std::map<std::string, SpanTotals>& window);
  const SpanTotals& Get(const std::string& name) const;
  // Time covered by the children of every span called `name`.
  double ChildMs(const std::string& name) const;
  const std::map<std::string, SpanTotals>& totals() const { return totals_; }

 private:
  std::map<std::string, SpanTotals> totals_;
};

// Emits every per-layer metric in the fixed order, with its unit. Aborts on
// a value whose name is not on the list, so the list cannot drift.
void EmitLayerMetrics(const LayerValues& values, MetricSet* out);

// Prints span name, calls, total and self time: the layer breakdown.
void PrintSpanTable(const char* title, const SpanWindows& spans, double rounds);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
