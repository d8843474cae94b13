// T2 — root-cause triaging vs WER-style stack bucketing (paper §3.1; WER
// "can incorrectly bucket up to 37% of the bug reports").
#include "bench/bench_util.h"
#include "src/coredump/serialize.h"
#include "src/res/runtime.h"
#include "src/support/string_util.h"
#include "src/triage/triage.h"
#include "src/triage/triage_daemon.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

using namespace res;  // NOLINT

int main() {
  PrintHeader("T2: bucketing accuracy — RES root cause vs call-stack (WER-style)");

  // Report corpus: several dumps per bug; the UAF bug deliberately produces
  // two distinct crash stacks, and the racy bugs crash under different
  // schedules. Ground truth = the workload (bug) identity.
  struct Report {
    std::string bug;
    std::string stack_bucket;
    std::string res_bucket;
  };
  std::vector<Report> reports;
  BenchJsonWriter json;

  auto collect = [&reports, &json](const char* name, std::vector<int64_t> inputs,
                                   uint64_t first_seed, int copies) {
    WorkloadSpec spec = WorkloadByName(name);
    if (!inputs.empty()) {
      spec.channel0_inputs = inputs;
    }
    Module module = spec.build();
    StackBucketer stack(module);
    ResBucketer res(module);
    FailureRunOptions options;
    options.require_live_peers = spec.requires_live_peers;
    options.first_seed = first_seed;
    int got = 0;
    // Per-workload perf record: RES-bucketing wall time and engine counters
    // summed over this workload's reports (bench/README.md schema).
    double res_ms = 0;
    BenchRecord record;  // name filled below once `got` is known
    for (int i = 0; i < copies * 50 && got < copies; ++i) {
      options.first_seed = first_seed + static_cast<uint64_t>(i) * 131;
      auto run = RunToFailure(module, spec, options);
      if (!run.ok()) {
        continue;
      }
      Report r;
      r.bug = name;
      r.stack_bucket = std::string(name) + "|" + stack.BucketFor(run.value().dump);
      WallTimer res_timer;
      ResStats stats;
      r.res_bucket =
          std::string(name) + "|" + res.BucketFor(run.value().dump, &stats);
      res_ms += res_timer.ElapsedMs();
      record.stats.res += stats;
      // (The workload prefix models "same program component" — different
      // modules cannot collide in either scheme; accuracy is judged on how
      // a scheme groups reports *within* a program.)
      reports.push_back(std::move(r));
      ++got;
    }
    if (got > 0) {
      record.name = StrFormat("table2_triage/bug=%s/reports=%d", name, got);
      record.wall_ms = res_ms;
      json.Append(record);
    }
  };

  collect("use_after_free", {1}, 1, 2);   // crash path A
  collect("use_after_free", {2}, 1, 2);   // crash path B — same root cause!
  collect("racy_counter", {}, 1, 3);      // three schedules of the same race
  collect("atomicity_violation", {}, 1, 2);
  collect("order_violation", {}, 1, 2);
  collect("buffer_overflow", {5}, 1, 1);
  collect("buffer_overflow", {6}, 1, 1);  // different landing address
  collect("div_by_zero_input", {0}, 1, 2);
  collect("semantic_assert", {7}, 1, 2);

  std::vector<std::string> truth;
  std::vector<std::string> stack_buckets;
  std::vector<std::string> res_buckets;
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"bug (ground truth)", "stack bucket", "RES bucket"});
  for (const Report& r : reports) {
    truth.push_back(r.bug);
    stack_buckets.push_back(r.stack_bucket);
    res_buckets.push_back(r.res_bucket);
    rows.push_back({r.bug, r.stack_bucket, r.res_bucket});
  }
  PrintTable(rows);

  double stack_acc = PairwiseBucketingAccuracy(stack_buckets, truth);
  double res_acc = PairwiseBucketingAccuracy(res_buckets, truth);
  std::printf("\nreports: %zu\n", reports.size());
  std::printf("pairwise bucketing accuracy: stack (WER-style) = %.1f%%, "
              "RES root-cause = %.1f%%\n",
              100.0 * stack_acc, 100.0 * res_acc);
  std::printf("mis-bucketed pairs: stack %.1f%% vs RES %.1f%% "
              "(paper: WER mis-buckets up to 37%%)\n",
              100.0 * (1 - stack_acc), 100.0 * (1 - res_acc));

  // One module's dumps as a single serial daemon wave (wave_size 0: the
  // wave is cut on drain). The record takes only the daemon's TriageStats
  // part, so its daemon-only counters stay 0.
  auto run_wave = [&json](const char* label, const Module& module,
                          const std::vector<Coredump>& dumps,
                          const std::vector<std::vector<uint8_t>>& blobs,
                          ResOptions res_options) {
    ResRuntime runtime;
    TriageDaemonOptions options;
    options.triage.res = res_options;
    options.wave_size = 0;
    TriageDaemon daemon(&runtime, options);
    WallTimer timer;
    for (const Coredump& dump : dumps) {
      daemon.Submit(module, dump);
    }
    for (const std::vector<uint8_t>& blob : blobs) {
      daemon.SubmitSerialized(module, blob);
    }
    daemon.Shutdown();
    BenchRecord record;
    record.name = StrFormat("table2_triage/batch=%s/dumps=%zu", label,
                            dumps.size() + blobs.size());
    record.wall_ms = timer.ElapsedMs();
    record.stats += daemon.stats();  // the TriageStats part only
    json.Append(record);
    return static_cast<const TriageStats&>(record.stats);
  };

  // --- T2b: triage over the shared ResRuntime — the dumps/sec axis.
  //     Serial waves (max_parallel_dumps = 1), so every promotion counter
  //     below is deterministic and baseline-gated (tools/check_bench.py
  //     floors clause_promotions / cache_promotions: LOSING reuse is the
  //     regression here).
  PrintHeader("T2b: batch triage throughput (shared ResRuntime)");
  auto run_batch = [&run_wave](const char* label, const Module& module,
                               const std::vector<Coredump>& dumps,
                               ResOptions res_options) {
    const TriageStats tstats = run_wave(label, module, dumps, {}, res_options);
    std::printf("%s: %zu dumps, %.1f dumps/sec, "
                "%llu clause promotions, %llu cache promotions, "
                "%llu promoted-clause hits, %llu shared-var reuses\n",
                label, tstats.dumps, tstats.dumps_per_sec(),
                static_cast<unsigned long long>(tstats.clause_promotions),
                static_cast<unsigned long long>(tstats.cache_promotions),
                static_cast<unsigned long long>(
                    tstats.res.solver.promoted_clause_hits),
                static_cast<unsigned long long>(tstats.res.expr_reuse_hits));
  };

  // Same bug, two crash paths, four reports: the bread-and-butter stream.
  {
    WorkloadSpec spec = WorkloadByName("use_after_free");
    Module module = spec.build();
    std::vector<Coredump> dumps;
    for (int64_t input : {1, 2, 1, 2}) {
      WorkloadSpec dspec = spec;
      dspec.channel0_inputs = {input};
      auto run = RunToFailure(module, dspec, {});
      if (run.ok()) {
        dumps.push_back(std::move(run).value().dump);
      }
    }
    if (dumps.size() == 4) {
      run_batch("use_after_free", module, dumps, ResOptions{});
    }
  }

  // The clause-learning stream: full synthesis over the wide racy module —
  // tail dumps are answered from promoted cores instead of re-derivation.
  {
    Module module = BuildRacyCounterWide(4);
    WorkloadSpec spec = WorkloadByName("racy_counter");
    FailureRunOptions run_options;
    run_options.require_live_peers = spec.requires_live_peers;
    auto run = RunToFailure(module, spec, run_options);
    if (run.ok()) {
      std::vector<Coredump> dumps(3, run.value().dump);
      ResOptions res_options;
      res_options.stop_at_root_cause = false;
      res_options.max_units = 48;
      res_options.max_hypotheses = 1000;
      run_batch("racy_wide", module, dumps, res_options);
    }
  }

  // --- T2c: the failure surface — corrupted wire blobs and step deadlines.
  //     The quarantine/degradation counters are deterministic and baseline-
  //     gated as floors: a stream that stops isolating corrupt dumps or
  //     stops retrying degraded is the regression.
  PrintHeader("T2c: fault-tolerant triage (quarantine + degraded retry)");

  // A WER-style ingest stream where half the blobs arrive damaged: one
  // truncated mid-wire, one with a corrupted magic. Both must quarantine;
  // both survivors must still triage.
  {
    WorkloadSpec spec = WorkloadByName("use_after_free");
    Module module = spec.build();
    std::vector<std::vector<uint8_t>> blobs;
    for (int64_t input : {1, 2, 1, 2}) {
      WorkloadSpec dspec = spec;
      dspec.channel0_inputs = {input};
      auto run = RunToFailure(module, dspec, {});
      if (run.ok()) {
        blobs.push_back(SerializeCoredump(run.value().dump));
      }
    }
    if (blobs.size() == 4) {
      blobs[1].resize(blobs[1].size() / 2);  // truncated upload
      blobs[3][0] ^= 0xff;                   // corrupted magic
      const TriageStats tstats =
          run_wave("corrupted_stream", module, {}, blobs, ResOptions{});
      std::printf("corrupted_stream: %zu dumps, %llu quarantined, "
                  "%llu triaged ok\n",
                  tstats.dumps,
                  static_cast<unsigned long long>(tstats.quarantined),
                  static_cast<unsigned long long>(tstats.dumps -
                                                  tstats.quarantined));
    }
  }

  // The degraded-retry stream: a step deadline the full-fidelity profile
  // overshoots but the degraded retry (DegradedProfile) fits. Calibrated on
  // the engine's own deterministic abstract clock
  // (ResStats::committed_units), so the stream behaves identically on any
  // machine.
  {
    Module module = BuildRacyCounterWide(4);
    WorkloadSpec spec = WorkloadByName("racy_counter");
    FailureRunOptions run_options;
    run_options.require_live_peers = spec.requires_live_peers;
    auto run = RunToFailure(module, spec, run_options);
    if (run.ok()) {
      ResOptions res_options;
      res_options.stop_at_root_cause = false;
      res_options.max_units = 4;
      res_options.max_hypotheses = 1000;
      const uint64_t u_deg =
          ResEngine(module, run.value().dump, DegradedProfile(res_options))
              .Run()
              .stats.committed_units;
      res_options.deadline_units = u_deg;
      std::vector<Coredump> dumps(2, run.value().dump);
      const TriageStats tstats =
          run_wave("deadline_degraded", module, dumps, {}, res_options);
      std::printf("deadline_degraded: %zu dumps, deadline %llu units, "
                  "%llu deadline cancels, %llu degraded retries, "
                  "%llu quarantined\n",
                  tstats.dumps,
                  static_cast<unsigned long long>(res_options.deadline_units),
                  static_cast<unsigned long long>(tstats.deadline_exceeded),
                  static_cast<unsigned long long>(tstats.degraded_retries),
                  static_cast<unsigned long long>(tstats.quarantined));
    }
  }

  // --- T2d: the standing daemon — a mixed-module stream through the wave
  //     scheduler. Serial waves (wave parallelism 1), so
  //     every promotion/wave counter is deterministic and baseline-gated
  //     (wave_promotions floored: a daemon that stops promoting between
  //     waves has lost the wave-scheduling payoff).
  PrintHeader("T2d: standing daemon, wave-scheduled mixed stream");
  {
    WorkloadSpec uaf_spec = WorkloadByName("use_after_free");
    Module uaf = uaf_spec.build();
    std::vector<Coredump> uaf_dumps;
    for (int64_t input : {1, 2, 1, 2}) {
      WorkloadSpec dspec = uaf_spec;
      dspec.channel0_inputs = {input};
      auto run = RunToFailure(uaf, dspec, {});
      if (run.ok()) {
        uaf_dumps.push_back(std::move(run).value().dump);
      }
    }
    Module racy = BuildRacyCounterWide(4);
    WorkloadSpec racy_spec = WorkloadByName("racy_counter");
    FailureRunOptions run_options;
    run_options.require_live_peers = racy_spec.requires_live_peers;
    auto racy_run = RunToFailure(racy, racy_spec, run_options);
    if (uaf_dumps.size() == 4 && racy_run.ok()) {
      const Coredump& racy_dump = racy_run.value().dump;
      ResRuntime runtime;
      TriageDaemonOptions options;
      options.triage.res.stop_at_root_cause = false;
      options.triage.res.max_units = 48;
      options.triage.res.max_hypotheses = 1000;
      options.wave_size = 2;
      TriageDaemon daemon(&runtime, options);
      WallTimer timer;
      // Interleaved arrivals: u r u r u r u — each module's waves cut at
      // its own K-th dump, promotions land between waves, tail dumps of
      // BOTH modules run warm.
      size_t submitted = 0;
      for (size_t i = 0; i < 4; ++i) {
        if (daemon.Submit(uaf, uaf_dumps[i]).ok()) {
          ++submitted;
        }
        if (i < 3 && daemon.Submit(racy, racy_dump).ok()) {
          ++submitted;
        }
        daemon.Pump();
      }
      daemon.Shutdown();
      BenchRecord record;
      record.name =
          StrFormat("table2_triage/daemon=mixed_stream/dumps=%zu", submitted);
      record.wall_ms = timer.ElapsedMs();
      record.stats = daemon.stats();
      const TriageDaemonStats& dstats = record.stats;
      json.Append(record);
      std::printf("daemon_stream: %zu dumps, %llu waves, %llu wave "
                  "promotions, %llu promoted-clause hits, %llu shared-var "
                  "reuses, %.1f dumps/sec\n",
                  submitted, static_cast<unsigned long long>(dstats.waves),
                  static_cast<unsigned long long>(dstats.wave_promotions),
                  static_cast<unsigned long long>(
                      dstats.res.solver.promoted_clause_hits),
                  static_cast<unsigned long long>(dstats.res.expr_reuse_hits),
                  dstats.dumps_per_sec());
    }
  }

  return 0;
}
