// Example: a crash-triage service (paper §3.1).
//
// Plays the role of a Windows-Error-Reporting-style backend: coredumps
// arrive serialized from "production" machines, and each one is submitted,
// as it arrives, to one TriageDaemon over one process-wide ResRuntime. The
// daemon deserializes it, batches it into waves per program, and streams a
// report per dump. One RES run per dump yields bucket AND exploitability;
// the shared runtime makes the tail dumps of a module cheaper than the first
// (promoted clauses, promoted check-cache entries, shared expression
// interning). The same use-after-free bug crashes through two different
// call paths — call-stack bucketing files two tickets, RES files one, and
// additionally rates the input-driven overflow as exploitable.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/coredump/serialize.h"
#include "src/res/res_api.h"
#include "src/res/runtime.h"
#include "src/triage/triage_daemon.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

using namespace res;  // NOLINT: example brevity

namespace {

// One serialized report as it would arrive over the wire.
struct IncomingReport {
  std::string program;              // which binary crashed
  const Module* module;             // that binary's program
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
  inbox.push_back({"storage_daemon", &uaf_program,
                   CaptureFrom(uaf_program, uaf_spec, {1})});
  inbox.push_back({"storage_daemon", &uaf_program,
                   CaptureFrom(uaf_program, uaf_spec, {2})});
  inbox.push_back({"storage_daemon", &uaf_program,
                   CaptureFrom(uaf_program, uaf_spec, {1})});
  inbox.push_back({"frontend", &overflow_program,
                   CaptureFrom(overflow_program, overflow_spec, {5})});

  // The triage service: one runtime and one daemon for the whole process.
  // The daemon cuts waves per program itself, and the runtime persists
  // across waves, so repeat offenders keep getting cheaper.
  ResRuntime runtime;
  std::map<std::string, int> stack_buckets;
  std::map<std::string, int> res_buckets;
  std::printf("%-16s %-42s %-34s %s\n", "program", "stack bucket (WER-style)",
              "RES bucket", "exploitability");

  TriageDaemonOptions options;
  options.on_report = [&](const TriageReport& report) {
    // Streamed in submission order within each wave; index is the seq
    // Submit returned.
    const std::string& program = inbox[report.index].program;
    if (report.outcome == TriageOutcome::kQuarantined) {
      std::fprintf(stderr, "corrupt report from %s: %s\n", program.c_str(),
                   report.status.ToString().c_str());
      return;
    }
    std::string sb = program + "/" + report.stack_bucket;
    std::string rb = program + "/" + report.res_bucket;
    ++stack_buckets[sb];
    ++res_buckets[rb];
    std::printf("%-16s %-42s %-34s %s\n", program.c_str(), sb.c_str(),
                rb.c_str(),
                std::string(ExploitabilityName(report.res_rating)).c_str());
  };
  TriageDaemon daemon(&runtime, options);
  for (const IncomingReport& report : inbox) {
    Result<uint64_t> seq =
        daemon.SubmitSerialized(*report.module, report.dump_bytes);
    if (!seq.ok()) {
      std::fprintf(stderr, "rejected: %s\n", seq.status().ToString().c_str());
      return 1;
    }
  }
  daemon.Drain();
  const TriageDaemonStats stats = daemon.stats();
  std::printf("  [%zu dumps in %zu waves, %.1f dumps/sec, %llu clause "
              "promotions, %llu cache promotions, %llu promoted-clause hits, "
              "%llu shared-var reuses]\n",
              static_cast<size_t>(stats.dumps),
              static_cast<size_t>(stats.waves), stats.dumps_per_sec(),
              static_cast<unsigned long long>(stats.clause_promotions),
              static_cast<unsigned long long>(stats.cache_promotions),
              static_cast<unsigned long long>(
                  stats.res.solver.promoted_clause_hits),
              static_cast<unsigned long long>(stats.res.expr_reuse_hits));

  std::printf("\ntickets filed: call-stack bucketing %zu, RES bucketing %zu "
              "(ground truth: 2 distinct bugs)\n",
              stack_buckets.size(), res_buckets.size());
  return res_buckets.size() == 2 ? 0 : 1;
}
