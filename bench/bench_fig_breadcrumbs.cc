// F3 — execution breadcrumbs (paper §2.4): LBR and error-log anchors trim
// the backward search at zero recording cost. Each row also appends a
// record to BENCH_res_scaling.json.
#include "bench/bench_util.h"
#include "src/res/res_api.h"
#include "src/support/string_util.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

using namespace res;  // NOLINT

int main() {
  PrintHeader("F3: breadcrumb ablation (hypotheses explored / LBR+log prunes)");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"workload", "breadcrumbs", "hypotheses", "lbr prunes",
                  "log prunes", "time(ms)", "cause"});
  BenchJsonWriter json;

  struct Config {
    const char* label;
    bool lbr;
    bool log;
  };
  const Config configs[] = {{"none", false, false},
                            {"lbr16", true, false},
                            {"errlog", false, true},
                            {"both", true, true}};

  for (const char* name : {"racy_counter", "atomicity_violation"}) {
    const WorkloadSpec& spec = WorkloadByName(name);
    Module module = spec.build();
    FailureRunOptions fr_options;
    fr_options.require_live_peers = spec.requires_live_peers;
    auto run = RunToFailure(module, spec, fr_options);
    if (!run.ok()) {
      continue;
    }
    for (const Config& config : configs) {
      ResOptions options;
      options.use_lbr = config.lbr;
      options.use_error_log = config.log;
      WallTimer timer;
      ResEngine engine(module, run.value().dump, options);
      ResResult result = engine.Run();
      double ms = timer.ElapsedMs();
      rows.push_back(
          {name, config.label, std::to_string(result.stats.hypotheses_explored),
           std::to_string(result.stats.pruned_lbr),
           std::to_string(result.stats.pruned_errlog), StrFormat("%.1f", ms),
           result.causes.empty()
               ? "(none)"
               : std::string(RootCauseKindName(result.causes.front().kind))});
      json.Append(StrFormat("breadcrumbs/workload=%s/crumbs=%s", name,
                            config.label),
                  ms, result.stats);
    }
  }

  // A deep, branchy single-threaded walk shows the pruning more starkly:
  // synthesize 24 units of the loop, with and without breadcrumbs.
  {
    Module module = BuildLongExecution(64);
    auto run = RunToFailure(module, WorkloadByName("div_by_zero_input"), {});
    if (run.ok()) {
      for (const Config& config : configs) {
        ResOptions options;
        options.use_lbr = config.lbr;
        options.use_error_log = config.log;
        options.stop_at_root_cause = false;
        options.max_units = 24;
        WallTimer timer;
        ResEngine engine(module, run.value().dump, options);
        ResResult result = engine.Run();
        double ms = timer.ElapsedMs();
        rows.push_back({"long_execution/24u", config.label,
                        std::to_string(result.stats.hypotheses_explored),
                        std::to_string(result.stats.pruned_lbr),
                        std::to_string(result.stats.pruned_errlog),
                        StrFormat("%.1f", ms),
                        result.suffix ? "suffix@depth" : "-"});
        json.Append(StrFormat("breadcrumbs/workload=long_execution_24u/crumbs=%s",
                              config.label),
                    ms, result.stats);
      }
    }
  }
  PrintTable(rows);
  std::printf("\nexpected shape: hypotheses(none) >= hypotheses(lbr/errlog) >= "
              "hypotheses(both); identical causes in every row\n");
  return 0;
}
