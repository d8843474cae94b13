// F4 — the §6 limitation: reversing past a hard-to-invert construct (a
// multiply/shift hash) blocks RES — unless the construct's inputs survive in
// memory, in which case RES re-executes it forward instead of inverting it.
// Each row also appends a record to BENCH_res_scaling.json.
#include "bench/bench_util.h"
#include "src/res/res_api.h"
#include "src/support/string_util.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

using namespace res;  // NOLINT

int main() {
  PrintHeader("F4: hard-to-invert construct (hash chain), with/without spilled input");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"variant", "stop", "suffix verified", "unknown constraints",
                  "time(ms)"});
  BenchJsonWriter json;

  const int64_t kInput = 77777777777;  // large: no lucky local-search preimage
  for (bool spill : {true, false}) {
    Module module = BuildHashChain(spill, kInput);
    WorkloadSpec spec = WorkloadByName("semantic_assert");
    spec.channel0_inputs = {kInput};
    auto run = RunToFailure(module, spec, {});
    if (!run.ok()) {
      rows.push_back({spill ? "input spilled" : "input lost", "-", "-", "-", "-"});
      continue;
    }
    ResOptions options;
    options.stop_at_root_cause = false;  // push all the way back
    WallTimer timer;
    ResEngine engine(module, run.value().dump, options);
    ResResult result = engine.Run();
    double ms = timer.ElapsedMs();
    rows.push_back({spill ? "input spilled to memory (workaround)"
                          : "input lost (frame popped, register reused)",
                    std::string(StopReasonName(result.stop)),
                    result.suffix && result.suffix->verified ? "yes" : "NO",
                    std::to_string(result.stats.unknown_kept),
                    StrFormat("%.1f", ms)});
    json.Append(StrFormat("hash_limit/input=%s", spill ? "spilled" : "lost"),
                ms, result.stats);
  }
  PrintTable(rows);
  std::printf("\nexpected: the spilled variant re-executes the hash forward "
              "(verified full path); the lost variant leaves the hash "
              "constraint UNKNOWN — the suffix cannot be certified\n");
  return 0;
}
