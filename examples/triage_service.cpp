// Example: a crash-triage service (paper §3.1), batch edition.
//
// Plays the role of a Windows-Error-Reporting-style backend: coredumps
// arrive serialized from "production" machines; the service deserializes
// them, groups them per program, and hands each program's batch to
// TriageService::RunBatch over one process-wide ResRuntime. One RES run per
// dump yields bucket AND exploitability; the shared runtime makes the tail
// dumps of a module cheaper than the first (promoted clauses, promoted
// check-cache entries, shared expression interning). The same
// use-after-free bug crashes through two different call paths — call-stack
// bucketing files two tickets, RES files one, and additionally rates the
// input-driven overflow as exploitable.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/coredump/serialize.h"
#include "src/res/res_api.h"
#include "src/res/runtime.h"
#include "src/triage/triage_service.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

using namespace res;  // NOLINT: example brevity

namespace {

// One serialized report as it would arrive over the wire.
struct IncomingReport {
  std::string program;              // which binary crashed
  std::vector<uint8_t> dump_bytes;  // SerializeCoredump output
};

std::vector<uint8_t> CaptureFrom(const Module& module, WorkloadSpec spec,
                                 std::vector<int64_t> inputs) {
  if (!inputs.empty()) {
    spec.channel0_inputs = std::move(inputs);
  }
  auto run = RunToFailure(module, spec, {});
  if (!run.ok()) {
    std::fprintf(stderr, "failed to reproduce %s\n", spec.name.c_str());
    std::exit(1);
  }
  return SerializeCoredump(run.value().dump);
}

}  // namespace

int main() {
  // "Production": two programs crash a few times each.
  Module uaf_program = BuildUseAfterFree();
  Module overflow_program = BuildBufferOverflow();

  std::vector<IncomingReport> inbox;
  const WorkloadSpec& uaf_spec = WorkloadByName("use_after_free");
  const WorkloadSpec& overflow_spec = WorkloadByName("buffer_overflow");
  inbox.push_back({"storage_daemon", CaptureFrom(uaf_program, uaf_spec, {1})});
  inbox.push_back({"storage_daemon", CaptureFrom(uaf_program, uaf_spec, {2})});
  inbox.push_back({"storage_daemon", CaptureFrom(uaf_program, uaf_spec, {1})});
  inbox.push_back({"frontend", CaptureFrom(overflow_program, overflow_spec, {5})});

  // The triage service: one runtime for the whole process, one batch per
  // program. Dumps must be grouped by module (a batch is per-module); the
  // runtime persists across batches, so repeat offenders keep getting
  // cheaper.
  ResRuntime runtime;
  std::map<std::string, int> stack_buckets;
  std::map<std::string, int> res_buckets;
  std::printf("%-16s %-42s %-34s %s\n", "program", "stack bucket (WER-style)",
              "RES bucket", "exploitability");

  auto triage_program = [&](const std::string& program, const Module& module) {
    std::vector<Coredump> dumps;
    for (const IncomingReport& report : inbox) {
      if (report.program != program) {
        continue;
      }
      auto dump = DeserializeCoredump(report.dump_bytes);
      if (!dump.ok()) {
        std::fprintf(stderr, "corrupt report: %s\n",
                     dump.status().ToString().c_str());
        continue;
      }
      dumps.push_back(std::move(dump).value());
    }
    TriageOptions options;
    options.on_result = [&](const TriageReport& report) {
      // Streamed in submission order while later dumps may still be running.
      std::string sb = program + "/" + report.stack_bucket;
      std::string rb = program + "/" + report.res_bucket;
      ++stack_buckets[sb];
      ++res_buckets[rb];
      std::printf("%-16s %-42s %-34s %s\n", program.c_str(), sb.c_str(),
                  rb.c_str(),
                  std::string(ExploitabilityName(report.res_rating)).c_str());
    };
    TriageService service(&runtime, module, options);
    TriageStats stats;
    service.RunBatch(dumps, &stats);
    std::printf("  [%s: %zu dumps, %.1f dumps/sec, %llu clause promotions, "
                "%llu cache promotions, %llu promoted-clause hits, "
                "%llu shared-var reuses]\n",
                program.c_str(), stats.dumps, stats.dumps_per_sec(),
                static_cast<unsigned long long>(stats.clause_promotions),
                static_cast<unsigned long long>(stats.cache_promotions),
                static_cast<unsigned long long>(
                    stats.res.solver.promoted_clause_hits),
                static_cast<unsigned long long>(stats.res.expr_reuse_hits));
  };
  triage_program("storage_daemon", uaf_program);
  triage_program("frontend", overflow_program);

  std::printf("\ntickets filed: call-stack bucketing %zu, RES bucketing %zu "
              "(ground truth: 2 distinct bugs)\n",
              stack_buckets.size(), res_buckets.size());
  return res_buckets.size() == 2 ? 0 : 1;
}
