// F1 — the title claim: RES cost is independent of execution length, while
// forward execution synthesis pays for the whole prefix (paper §1/§2).
#include "bench/bench_util.h"
#include "src/baselines/forward_synthesis.h"
#include "src/res/res_api.h"
#include "src/support/string_util.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

using namespace res;  // NOLINT

int main() {
  PrintHeader("F1: synthesis cost vs execution length (RES flat, forward grows)");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"prefix iters", "exec steps", "RES ms", "RES hyps",
                  "RES suffix", "fwd ms", "fwd blocks", "fwd result"});
  BenchJsonWriter json;

  WorkloadSpec spec = WorkloadByName("div_by_zero_input");
  for (uint64_t n : {100ull, 1000ull, 10000ull, 100000ull}) {
    Module module = BuildLongExecution(n);
    FailureRunOptions options;
    options.max_steps_per_try = 10'000'000;
    auto run = RunToFailure(module, spec, options);
    if (!run.ok()) {
      rows.push_back({std::to_string(n), "-", "-", "-", "-", "-", "-", "-"});
      continue;
    }

    WallTimer res_timer;
    ResEngine engine(module, run.value().dump);
    ResResult res = engine.Run();
    double res_ms = res_timer.ElapsedMs();
    json.Append(StrFormat("arbitrary_length/n=%llu",
                          static_cast<unsigned long long>(n)),
                res_ms, res.stats);

    ForwardSynthOptions fwd_options;
    fwd_options.max_blocks = 50'000;  // ~12s of search; longer prefixes time out
    WallTimer fwd_timer;
    ForwardSynthResult fwd = ForwardSynthesize(module, run.value().dump, fwd_options);
    double fwd_ms = fwd_timer.ElapsedMs();

    rows.push_back({std::to_string(n), std::to_string(run.value().run.steps),
                    StrFormat("%.1f", res_ms),
                    std::to_string(res.stats.hypotheses_explored),
                    res.suffix ? std::to_string(res.suffix->units.size()) : "-",
                    StrFormat("%.1f", fwd_ms), std::to_string(fwd.blocks_executed),
                    fwd.reached_failure ? "found"
                                        : (fwd.budget_exhausted ? "TIMEOUT" : "lost")});
  }
  PrintTable(rows);
  std::printf("\nexpected shape: RES columns flat in n; forward columns linear "
              "in n (timing out at the largest sizes)\n");
  return 0;
}
