// Failure isolation must be total and invisible: poisoning any registered
// fault site under one submission quarantines exactly that dump — the
// stream completes, every surviving report is byte-identical to a stream
// submitted without the poisoned dump, and nothing from a failed or
// degraded run promotes module-global. The step-deadline watchdog is
// measured on the same abstract clock as the search itself (committed
// pops), so deadline verdicts, degraded retries, and quarantines are
// byte-identical at any wave parallelism. An injected solver fault
// anywhere in a run fails that run outright: no verdict is published from
// a search the fault cut short.
// See docs/ARCHITECTURE.md §7 for the contract and src/support/faultpoint.h
// for the injection machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/coredump/serialize.h"
#include "src/ir/module_serialize.h"
#include "src/support/faultpoint.h"
#include "src/triage/triage_daemon.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

namespace res {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan mechanics.

TEST(FaultPlanTest, RegistryHasEveryPipelineSite) {
  const std::vector<std::string_view> sites = RegisteredFaultSites();
  auto has = [&](std::string_view name) {
    return std::find(sites.begin(), sites.end(), name) != sites.end();
  };
  EXPECT_TRUE(has("coredump.deserialize"));
  EXPECT_TRUE(has("module.deserialize"));
  EXPECT_TRUE(has("coredump.validate"));
  EXPECT_TRUE(has("ir.verify"));
  EXPECT_TRUE(has("solver.strategy"));
  EXPECT_TRUE(has("engine.lane.explore"));
  EXPECT_TRUE(has("engine.lane.detect"));
  EXPECT_TRUE(has("runtime.promote"));
  EXPECT_TRUE(has("daemon.ingest"));
  EXPECT_TRUE(has("daemon.promote_wave"));
}

TEST(FaultPlanTest, ModuleDeserializeSiteFailsTheParse) {
  // The module codec's site: an armed "module.deserialize" fails an
  // otherwise valid parse with kDataLoss, once.
  const std::vector<uint8_t> bytes =
      SerializeModule(WorkloadByName("use_after_free").build());
  FaultPlan plan;
  plan.Arm("module.deserialize");
  Result<Module> failed = DeserializeModule(bytes, FaultScope{&plan});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(plan.fired(), 1u);
  EXPECT_TRUE(DeserializeModule(bytes, FaultScope{&plan}).ok());
}

TEST(FaultPlanTest, ParseArmsCountAndTaskScopes) {
  FaultPlan plan;
  ASSERT_TRUE(plan.Parse("coredump.deserialize,solver.strategy=3@1").ok());
  EXPECT_FALSE(plan.empty());
  // nth=3 under task scope 1: mismatched scopes don't even consume hits.
  EXPECT_FALSE(plan.Fire("solver.strategy", 0));
  EXPECT_FALSE(plan.Fire("solver.strategy", 1));  // hit 1
  EXPECT_FALSE(plan.Fire("solver.strategy", 1));  // hit 2
  EXPECT_TRUE(plan.Fire("solver.strategy", 1));   // hit 3: fires
  EXPECT_FALSE(plan.Fire("solver.strategy", 1));  // spent
  // An unscoped arm matches any task, once.
  EXPECT_TRUE(plan.Fire("coredump.deserialize", 7));
  EXPECT_FALSE(plan.Fire("coredump.deserialize", 7));
  EXPECT_EQ(plan.fired(), 2u);
  plan.Clear();
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.fired(), 0u);
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs) {
  FaultPlan plan;
  EXPECT_EQ(plan.Parse("site=0").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(plan.Parse("site=abc").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(plan.Parse("site@-1").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(plan.Parse("site@x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(plan.Parse("=3").code(), StatusCode::kInvalidArgument);
  // Unknown site names are legal (they never fire) and empty entries skip.
  EXPECT_TRUE(plan.Parse("no.such.site,,other=2").ok());
}

TEST(FaultPlanTest, TaskScopedArmIgnoresOtherScopes) {
  FaultPlan plan;
  plan.Arm("ir.verify", 1, 1);
  EXPECT_FALSE(plan.Fire("ir.verify"));  // batch-scoped hit (kAnyTask)
  EXPECT_FALSE(plan.Fire("ir.verify", 0));
  EXPECT_TRUE(plan.Fire("ir.verify", 1));
}

// ---------------------------------------------------------------------------
// Fault sweep through the daemon: three use_after_free dumps (two distinct
// crash paths) submitted serialized; seq 1 is the poison target, seqs 0 and
// 2 must be untouched.

class TriageFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadSpec spec = WorkloadByName("use_after_free");
    module_ = spec.build();
    const std::vector<std::vector<int64_t>> inputs = {{1}, {2}, {1}};
    for (size_t d = 0; d < inputs.size(); ++d) {
      WorkloadSpec dspec = spec;
      dspec.channel0_inputs = inputs[d];
      FailureRunOptions run_options;
      run_options.require_live_peers = spec.requires_live_peers;
      run_options.first_seed = 1 + d * 37;
      auto run = RunToFailure(module_, dspec, run_options);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      blobs_.push_back(SerializeCoredump(std::move(run).value().dump));
    }
  }

  // SubmitSerialized every blob to a fresh daemon, then Shutdown (which
  // drains); returns the reports keyed by submission seq.
  std::map<uint64_t, TriageReport> RunBlobs(
      const std::vector<std::vector<uint8_t>>& blobs,
      TriageDaemonOptions options, TriageDaemonStats* stats) {
    ResRuntime runtime;
    std::map<uint64_t, TriageReport> reports;
    options.on_report = [&](const TriageReport& r) { reports[r.index] = r; };
    TriageDaemon daemon(&runtime, options);
    for (const auto& blob : blobs) {
      EXPECT_TRUE(daemon.SubmitSerialized(module_, blob).ok());
    }
    daemon.Shutdown();
    *stats = daemon.stats();
    return reports;
  }

  static void ExpectSameVerdict(const TriageReport& got,
                                const TriageReport& want,
                                const std::string& label) {
    EXPECT_EQ(got.outcome, want.outcome) << label;
    EXPECT_EQ(got.degraded, want.degraded) << label;
    EXPECT_EQ(got.res_bucket, want.res_bucket) << label;
    EXPECT_EQ(got.stack_bucket, want.stack_bucket) << label;
    EXPECT_EQ(got.cause_signature, want.cause_signature) << label;
    EXPECT_EQ(got.res_rating, want.res_rating) << label;
    EXPECT_EQ(got.heuristic_rating, want.heuristic_rating) << label;
    EXPECT_EQ(got.hardware_error_suspected, want.hardware_error_suspected)
        << label;
  }

  Module module_;
  std::vector<std::vector<uint8_t>> blobs_;
};

TEST_F(TriageFaultTest, SiteSweepQuarantinesExactlyThePoisonedDump) {
  struct SiteCase {
    std::string_view site;
    StatusCode code;
  };
  // Every per-dump site a submission reaches below the daemon's own, with
  // the failure it surfaces as. ("ir.verify" is wave-scoped — covered by
  // ModuleVerifyFaultFailsEverySlot.)
  const SiteCase cases[] = {
      {"coredump.deserialize", StatusCode::kDataLoss},
      {"coredump.validate", StatusCode::kDataLoss},
      {"solver.strategy", StatusCode::kInternal},
      {"engine.lane.explore", StatusCode::kInternal},
      {"engine.lane.detect", StatusCode::kInternal},
      {"runtime.promote", StatusCode::kInternal},
  };
  for (size_t parallel : {1u, 2u}) {
    // Waves of two: the poisoned seq 1 rides wave {0, 1}, and seq 2 flushes
    // on drain. The reference submits the survivors one per wave, so each
    // screens against exactly the promotions it sees in the poisoned
    // stream: seq 0's, and none from seq 1.
    TriageDaemonOptions options;
    options.triage.max_parallel_dumps = parallel;
    options.wave_size = 1;
    TriageDaemonStats ref_stats;
    std::map<uint64_t, TriageReport> ref =
        RunBlobs({blobs_[0], blobs_[2]}, options, &ref_stats);
    ASSERT_EQ(ref.size(), 2u);
    ASSERT_EQ(ref[0].outcome, TriageOutcome::kOk);
    ASSERT_EQ(ref[1].outcome, TriageOutcome::kOk);
    options.wave_size = 2;

    for (const SiteCase& c : cases) {
      const std::string label =
          std::string(c.site) + "/parallel=" + std::to_string(parallel);
      FaultPlan plan;
      plan.Arm(c.site, 1, 1);  // poison seq 1, first hit
      options.fault_plan = &plan;
      TriageDaemonStats stats;
      std::map<uint64_t, TriageReport> reports =
          RunBlobs(blobs_, options, &stats);
      ASSERT_EQ(reports.size(), 3u) << label;
      EXPECT_GE(plan.fired(), 1u) << label << ": site never reached";
      EXPECT_EQ(reports[1].outcome, TriageOutcome::kQuarantined) << label;
      EXPECT_EQ(reports[1].status.code(), c.code) << label;
      EXPECT_EQ(reports[1].res_bucket,
                "quarantine:" + std::string(StatusCodeName(c.code)))
          << label;
      EXPECT_TRUE(reports[1].cause_signature.empty()) << label;
      EXPECT_EQ(stats.quarantined, 1u) << label;
      EXPECT_EQ(stats.deadline_exceeded, 0u) << label;
      EXPECT_EQ(stats.waves, 2u) << label;
      // Failure isolation: the surviving reports are byte-identical to the
      // stream that never saw the poisoned dump...
      ExpectSameVerdict(reports[0], ref[0], label + "/seq=0");
      ExpectSameVerdict(reports[2], ref[1], label + "/seq=2");
      // ...and so is everything the stream promoted (poison-free
      // promotion: a failed run publishes no cores and no check keys).
      EXPECT_EQ(stats.clause_promotions, ref_stats.clause_promotions)
          << label;
      EXPECT_EQ(stats.cache_promotions, ref_stats.cache_promotions) << label;
      EXPECT_EQ(stats.res.solver.promoted_clause_hits,
                ref_stats.res.solver.promoted_clause_hits)
          << label;
    }
  }
}

TEST_F(TriageFaultTest, ModuleVerifyFaultFailsEverySlot) {
  // Module admission is wave-scoped: an unscoped ir.verify arm fails every
  // slot of the wave it fires in (no engine can trust the IR)...
  for (size_t parallel : {1u, 2u}) {
    FaultPlan plan;
    plan.Arm("ir.verify");
    TriageDaemonOptions options;
    options.triage.max_parallel_dumps = parallel;
    options.wave_size = 0;  // one wave holds all three
    options.fault_plan = &plan;
    TriageDaemonStats stats;
    std::map<uint64_t, TriageReport> reports =
        RunBlobs(blobs_, options, &stats);
    ASSERT_EQ(reports.size(), 3u);
    for (const auto& [seq, r] : reports) {
      EXPECT_EQ(r.outcome, TriageOutcome::kQuarantined) << seq;
      EXPECT_EQ(r.status.code(), StatusCode::kInternal) << seq;
    }
    EXPECT_EQ(stats.quarantined, 3u);
  }
  // ...while a task-scoped arm never matches it: module health is not
  // attributable to any one dump.
  FaultPlan scoped;
  scoped.Arm("ir.verify", 1, 1);
  TriageDaemonOptions options;
  options.wave_size = 0;
  options.fault_plan = &scoped;
  TriageDaemonStats stats;
  std::map<uint64_t, TriageReport> reports = RunBlobs(blobs_, options, &stats);
  EXPECT_EQ(scoped.fired(), 0u);
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& [seq, r] : reports) {
    EXPECT_EQ(r.outcome, TriageOutcome::kOk) << seq;
  }
}

// ---------------------------------------------------------------------------
// Step-deadline watchdog: measured in committed pops, so verdicts are pure
// functions of (dump, options) — never of wall clock or host load.

class DeadlineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    module_ = BuildRacyCounterWide(4);
    WorkloadSpec spec = WorkloadByName("racy_counter");
    FailureRunOptions run_options;
    run_options.require_live_peers = spec.requires_live_peers;
    auto run = RunToFailure(module_, spec, run_options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    dump_ = std::move(run).value().dump;
    res_options_.stop_at_root_cause = false;
    res_options_.max_units = 48;
    res_options_.max_hypotheses = 1000;
  }

  Module module_;
  Coredump dump_;
  ResOptions res_options_;
};

TEST_F(DeadlineTest, EngineDeadlineIsDeterministic) {
  const ResResult full = ResEngine(module_, dump_, res_options_).Run();
  ASSERT_NE(full.stop, StopReason::kDeadlineExceeded);
  const uint64_t u_full = full.stats.committed_units;
  ASSERT_GT(u_full, 2u);
  // The abstract clock itself repeats exactly, so a deadline CAN be
  // deterministic at all.
  EXPECT_EQ(ResEngine(module_, dump_, res_options_).Run().stats.committed_units,
            u_full);
  // A deadline below the run's length cancels it at exactly that pop; a
  // truncated search never claims a hardware-error verdict.
  ResOptions options = res_options_;
  options.deadline_units = u_full / 2;
  const ResResult r = ResEngine(module_, dump_, options).Run();
  EXPECT_EQ(r.stop, StopReason::kDeadlineExceeded);
  EXPECT_EQ(r.stats.deadline_cancels, 1u);
  EXPECT_EQ(r.stats.committed_units, u_full / 2 + 1);
  EXPECT_FALSE(r.hardware_error_suspected);
}

TEST_F(DeadlineTest, DeadlineTriggersDegradedRetryThenQuarantine) {
  // Shallow profile so the calibration runs are cheap: the full profile
  // explores to depth 4, the degraded retry (DegradedProfile) to 2.
  ResOptions full_options = res_options_;
  full_options.max_units = 4;
  const uint64_t u_full =
      ResEngine(module_, dump_, full_options).Run().stats.committed_units;
  const uint64_t u_deg = ResEngine(module_, dump_, DegradedProfile(full_options))
                             .Run()
                             .stats.committed_units;
  ASSERT_GT(u_deg, 1u);
  ASSERT_LT(u_deg, u_full);

  // Submits two copies of the dump as one wave and drains.
  auto run = [&](const TriageOptions& triage, TriageDaemonStats* stats) {
    ResRuntime runtime;
    TriageDaemonOptions options;
    options.triage = triage;
    options.wave_size = 0;
    std::map<uint64_t, TriageReport> reports;
    options.on_report = [&](const TriageReport& r) { reports[r.index] = r; };
    TriageDaemon daemon(&runtime, options);
    for (int i = 0; i < 2; ++i) {
      EXPECT_TRUE(daemon.Submit(module_, dump_).ok());
    }
    daemon.Shutdown();
    *stats = daemon.stats();
    return reports;
  };

  // Deadline exactly at the degraded run's length: the full-fidelity attempt
  // overshoots, the degraded retry fits. Same plan at every configuration.
  std::string degraded_bucket;
  for (size_t parallel : {1u, 2u}) {
    const std::string label = "parallel=" + std::to_string(parallel);
    TriageOptions triage;
    triage.res = full_options;
    triage.res.deadline_units = u_deg;
    triage.max_parallel_dumps = parallel;
    TriageDaemonStats stats;
    std::map<uint64_t, TriageReport> reports = run(triage, &stats);
    ASSERT_EQ(reports.size(), 2u) << label;
    for (const auto& [seq, report] : reports) {
      EXPECT_EQ(report.outcome, TriageOutcome::kDegraded) << label;
      EXPECT_TRUE(report.degraded) << label;
      EXPECT_TRUE(report.status.ok()) << label;
      EXPECT_FALSE(report.res_bucket.empty()) << label;
      EXPECT_EQ(report.stats.committed_units, u_deg) << label;
      // The degraded verdict itself is deterministic across configurations.
      if (degraded_bucket.empty()) {
        degraded_bucket = report.res_bucket;
      } else {
        EXPECT_EQ(report.res_bucket, degraded_bucket) << label;
      }
    }
    EXPECT_EQ(stats.deadline_exceeded, 2u) << label;
    EXPECT_EQ(stats.degraded_retries, 2u) << label;
    EXPECT_EQ(stats.quarantined, 0u) << label;
  }

  // A deadline even the degraded profile can't meet: retry once, then
  // quarantine as resource exhaustion — never hang, never crash.
  TriageOptions triage;
  triage.res = full_options;
  triage.res.deadline_units = 1;
  TriageDaemonStats stats;
  std::map<uint64_t, TriageReport> reports = run(triage, &stats);
  ASSERT_EQ(reports.size(), 2u);
  for (const auto& [seq, report] : reports) {
    EXPECT_EQ(report.outcome, TriageOutcome::kQuarantined) << seq;
    EXPECT_EQ(report.status.code(), StatusCode::kResourceExhausted) << seq;
    EXPECT_EQ(report.res_bucket, "quarantine:resource_exhausted") << seq;
  }
  EXPECT_EQ(stats.deadline_exceeded, 4u);
  EXPECT_EQ(stats.degraded_retries, 2u);
  EXPECT_EQ(stats.quarantined, 2u);
}

// ---------------------------------------------------------------------------
// Solver-fault sweep: arms "solver.strategy" at every hit index a run
// reaches (nth = 1, 2, ... until the arm no longer fires) over the workload
// corpus, with and without stop_at_root_cause. Wherever the fault lands —
// a gate, the complete-start check, or an address enumeration — the run
// must fail with the injected status and publish nothing. Deterministic
// because one engine searches on one thread: hit k is the same solver
// check in every run.

TEST(EngineFaultSweepTest, EverySolverFaultFailsTheRun) {
  size_t fired_runs = 0;
  for (const char* name :
       {"div_by_zero_input", "semantic_assert", "use_after_free", "double_free",
        "racy_counter", "buffer_overflow", "atomicity_violation",
        "order_violation"}) {
    const WorkloadSpec& spec = WorkloadByName(name);
    Module module = spec.build();
    FailureRunOptions run_options;
    run_options.require_live_peers = spec.requires_live_peers;
    auto run = RunToFailure(module, spec, run_options);
    ASSERT_TRUE(run.ok()) << name;
    const Coredump& dump = run.value().dump;
    for (bool stop_at_root_cause : {true, false}) {
      for (uint64_t nth = 1;; ++nth) {
        const std::string label = std::string(name) + "/stop_at_root_cause=" +
                                  std::to_string(stop_at_root_cause) +
                                  "/nth=" + std::to_string(nth);
        FaultPlan plan;
        plan.Arm("solver.strategy", nth);
        ResOptions options;
        options.stop_at_root_cause = stop_at_root_cause;
        options.fault_plan = &plan;
        const ResResult r = ResEngine(module, dump, options).Run();
        if (plan.fired() == 0) {
          break;  // the run makes fewer than nth solver checks
        }
        ++fired_runs;
        EXPECT_EQ(r.stop, StopReason::kTaskFailed) << label;
        EXPECT_EQ(r.status.code(), StatusCode::kInternal) << label;
        EXPECT_EQ(r.status.message(), "fault injected at solver.strategy")
            << label;
        EXPECT_FALSE(r.suffix.has_value()) << label;
        EXPECT_TRUE(r.causes.empty()) << label;
        EXPECT_FALSE(r.hardware_error_suspected) << label;
      }
    }
  }
  EXPECT_GT(fired_runs, 0u);
}

}  // namespace
}  // namespace res
