// The daemon's reports must be invisible to scheduling and reuse: every
// report equals a solo ResEngine run over the same dump with the same
// options — at every (wave parallelism × wave size) combination, with or
// without the bounded-memory knobs (facts eviction, substrate reclaim)
// engaged: reuse changes cost, never output. Backpressure must reject
// deterministically, shutdown must drain everything admitted, and every
// fault site a submission reaches must quarantine exactly the poisoned
// submission, scoped by its global seq. Cold and warm waves over the
// workload corpus and the promotion counters are pinned by
// tests/triage_batch_test.cc. See src/triage/triage_daemon.h for the
// contract and docs/ARCHITECTURE.md §8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/coredump/serialize.h"
#include "src/res/runtime.h"
#include "src/support/faultpoint.h"
#include "src/triage/triage_daemon.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"
#include "tests/triage_oracle.h"

namespace res {
namespace {

class TriageDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadSpec spec = WorkloadByName("use_after_free");
    module_ = spec.build();
    // Two crash paths alternating: tail dumps genuinely reuse facts.
    const std::vector<std::vector<int64_t>> inputs = {{1}, {2}, {1},
                                                      {2}, {1}, {2}};
    for (size_t d = 0; d < inputs.size(); ++d) {
      WorkloadSpec dspec = spec;
      dspec.channel0_inputs = inputs[d];
      FailureRunOptions run_options;
      run_options.require_live_peers = spec.requires_live_peers;
      run_options.first_seed = 1 + d * 37;
      auto run = RunToFailure(module_, dspec, run_options);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      dumps_.push_back(std::move(run).value().dump);
    }
  }

  std::vector<Sub> SingleModuleStream() const {
    std::vector<Sub> stream;
    for (const Coredump& d : dumps_) {
      stream.push_back({&module_, &d});
    }
    return stream;
  }

  Module module_;
  std::vector<Coredump> dumps_;
};

// --- The contract: every report equals a solo run, everywhere. ------------

TEST_F(TriageDaemonTest, DaemonMatchesSoloRunsAcrossConfigs) {
  const std::vector<Sub> stream = SingleModuleStream();
  for (size_t parallel : {1u, 2u}) {
    for (size_t wave_size : {1u, 3u, 0u}) {  // 0 = one wave holds all
      const std::string label = "parallel=" + std::to_string(parallel) +
                                "/wave=" + std::to_string(wave_size);
      TriageDaemonOptions options;
      options.triage = TriageFor(parallel);
      options.wave_size = wave_size;
      TriageDaemonStats first;
      ExpectMatchesSolo(RunDaemonStream(stream, options, &first), stream,
                        ResOptions{}, label);
      const size_t n = stream.size();
      const size_t k = wave_size == 0 ? n : wave_size;
      EXPECT_EQ(first.waves, (n + k - 1) / k) << label;
      EXPECT_EQ(first.dumps, n) << label;
      EXPECT_EQ(first.quarantined, 0u) << label;
      EXPECT_EQ(first.wave_promotions,
                first.clause_promotions + first.cache_promotions)
          << label;
      // Promotion happens in submission order at wave boundaries that are
      // pure functions of submission order, so a second stream on a fresh
      // runtime repeats the counters exactly.
      TriageDaemonStats second;
      RunDaemonStream(stream, options, &second);
      EXPECT_EQ(second.clause_promotions, first.clause_promotions) << label;
      EXPECT_EQ(second.cache_promotions, first.cache_promotions) << label;
      EXPECT_EQ(second.res.solver.promoted_clause_hits,
                first.res.solver.promoted_clause_hits)
          << label;
      if (parallel == 1) {
        // Commit-order counter: exact whenever engines construct serially.
        EXPECT_EQ(second.res.expr_reuse_hits, first.res.expr_reuse_hits)
            << label;
      }
    }
  }
}

TEST_F(TriageDaemonTest, MixedModuleStreamCutsWavesPerModule) {
  // A second, structurally independent module interleaved with the first:
  // wave assembly is per-module, and every report still equals its solo
  // run regardless of the interleaving.
  WorkloadSpec ospec = WorkloadByName("buffer_overflow");
  ospec.channel0_inputs = {5};
  Module other = ospec.build();
  auto run = RunToFailure(other, ospec, {});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Coredump other_dump = std::move(run).value().dump;

  // u o u o u o — uaf seqs {0,2,4}, overflow seqs {1,3,5}, wave_size 2:
  // waves are uaf{0,2}, ovf{1,3}, then drain flushes uaf{4}, ovf{5}.
  std::vector<Sub> stream;
  for (size_t i = 0; i < 3; ++i) {
    stream.push_back({&module_, &dumps_[i]});
    stream.push_back({&other, &other_dump});
  }
  TriageDaemonOptions options;
  options.triage = TriageFor(1);
  options.wave_size = 2;
  TriageDaemonStats dstats;
  ExpectMatchesSolo(RunDaemonStream(stream, options, &dstats), stream,
                    ResOptions{}, "mixed");
  EXPECT_EQ(dstats.waves, 4u);
}

// --- Bounded memory: eviction and reclaim change cost, never output. ------

TEST_F(TriageDaemonTest, FactsEvictionBoundKeepsOutputByteIdentical) {
  // Two distinct Module instances (same program) alternate, with facts
  // residency pinned to one module and a one-wave TTL: every wave boundary
  // evicts the other module's facts. Output must not move.
  WorkloadSpec spec = WorkloadByName("use_after_free");
  Module second = spec.build();
  std::vector<Coredump> second_dumps;
  for (int64_t input : {1, 2}) {
    WorkloadSpec dspec = spec;
    dspec.channel0_inputs = {input};
    auto run = RunToFailure(second, dspec, {});
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    second_dumps.push_back(std::move(run).value().dump);
  }
  std::vector<Sub> stream = {{&module_, &dumps_[0]},
                             {&second, &second_dumps[0]},
                             {&module_, &dumps_[1]},
                             {&second, &second_dumps[1]}};
  for (size_t parallel : {1u, 2u}) {
    const std::string label = "parallel=" + std::to_string(parallel);
    TriageDaemonOptions unbounded;
    unbounded.triage = TriageFor(parallel);
    unbounded.wave_size = 2;
    std::map<uint64_t, TriageReport> want = RunDaemonStream(stream, unbounded);

    TriageDaemonOptions bounded = unbounded;
    bounded.facts_max_resident = 1;
    bounded.facts_ttl_waves = 1;
    TriageDaemonStats dstats;
    std::map<uint64_t, TriageReport> got =
        RunDaemonStream(stream, bounded, &dstats);
    ASSERT_EQ(got.size(), want.size()) << label;
    for (const auto& [seq, report] : want) {
      ExpectSameVerdict(got[seq], report,
                        label + "/seq=" + std::to_string(seq));
    }
    EXPECT_GT(dstats.facts_evicted, 0u) << label;
    EXPECT_GT(dstats.facts_ttl_evicted, 0u) << label;
    EXPECT_EQ(dstats.quarantined, 0u) << label;
  }
}

TEST_F(TriageDaemonTest, SubstrateReclaimKeepsOutputByteIdentical) {
  // The clause-learning module (it genuinely promotes cores and check
  // keys), with the pool budget pinned below any real pool: the daemon
  // reclaims the whole substrate at EVERY wave boundary. Reuse savings
  // are forfeited; verdicts must not move, and the reclaim counters must
  // show promoted state actually being dropped.
  Module module = BuildRacyCounterWide(4);
  WorkloadSpec spec = WorkloadByName("racy_counter");
  FailureRunOptions run_options;
  run_options.require_live_peers = spec.requires_live_peers;
  auto run = RunToFailure(module, spec, run_options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Coredump dump = std::move(run).value().dump;
  ResOptions res;
  res.stop_at_root_cause = false;
  res.max_units = 48;
  res.max_hypotheses = 1000;

  std::vector<Sub> stream(3, Sub{&module, &dump});
  TriageDaemonOptions unbounded;
  unbounded.triage = TriageFor(1, res);
  unbounded.wave_size = 1;
  TriageDaemonStats warm_stats;
  std::map<uint64_t, TriageReport> want =
      RunDaemonStream(stream, unbounded, &warm_stats);
  ASSERT_GT(warm_stats.clause_promotions, 0u);
  ASSERT_GT(warm_stats.res.solver.promoted_clause_hits, 0u);

  TriageDaemonOptions bounded = unbounded;
  bounded.expr_pool_node_budget = 1;
  TriageDaemonStats dstats;
  std::map<uint64_t, TriageReport> got =
      RunDaemonStream(stream, bounded, &dstats);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [seq, report] : want) {
    ExpectSameVerdict(got[seq], report, "seq=" + std::to_string(seq));
  }
  EXPECT_GT(dstats.pool_reclaims, 0u);
  EXPECT_GT(dstats.pool_nodes_reclaimed, 0u);
  EXPECT_GT(dstats.promoted_cores_dropped, 0u);
  EXPECT_GT(dstats.promoted_keys_dropped, 0u);
  // Reclaim forfeits cross-wave reuse: every wave is cold again.
  EXPECT_EQ(dstats.res.solver.promoted_clause_hits, 0u);
}

// --- Backpressure and teardown. -------------------------------------------

TEST_F(TriageDaemonTest, BackpressureRejectsDeterministicallyWhenFull) {
  ResRuntime runtime;
  TriageDaemonOptions options;
  options.triage = TriageFor(1);
  options.wave_size = 2;
  options.queue_capacity = 2;
  std::map<uint64_t, TriageReport> reports;
  options.on_report = [&](const TriageReport& r) { reports[r.index] = r; };
  TriageDaemon daemon(&runtime, options);

  ASSERT_TRUE(daemon.Submit(module_, dumps_[0]).ok());
  ASSERT_TRUE(daemon.Submit(module_, dumps_[1]).ok());
  // Queue full: reject-with-status, nothing enqueued, no seq consumed.
  Result<uint64_t> rejected = daemon.Submit(module_, dumps_[2]);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(daemon.pending(), 2u);
  EXPECT_EQ(daemon.stats().rejected, 1u);

  // Draining frees capacity; the retried submission takes the NEXT seq (2):
  // the rejected call consumed nothing.
  EXPECT_EQ(daemon.Drain(), 2u);
  Result<uint64_t> retried = daemon.Submit(module_, dumps_[2]);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.value(), 2u);
  daemon.Shutdown();
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& [seq, report] : reports) {
    EXPECT_EQ(report.outcome, TriageOutcome::kOk) << seq;
  }
  TriageDaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.submitted, 4u);  // 3 accepted + 1 rejected
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.dumps, 3u);
}

TEST_F(TriageDaemonTest, ShutdownDrainsEverythingAdmitted) {
  ResRuntime runtime;
  TriageDaemonOptions options;
  options.triage = TriageFor(1);
  options.wave_size = 4;  // 6 submissions: one full wave + a partial
  std::map<uint64_t, TriageReport> reports;
  options.on_report = [&](const TriageReport& r) { reports[r.index] = r; };
  TriageDaemon daemon(&runtime, options);
  for (const Coredump& d : dumps_) {
    ASSERT_TRUE(daemon.Submit(module_, d).ok());
  }
  daemon.Shutdown();  // never pumped explicitly: shutdown itself drains
  EXPECT_EQ(daemon.pending(), 0u);
  ASSERT_EQ(reports.size(), dumps_.size());
  for (const auto& [seq, report] : reports) {
    EXPECT_EQ(report.outcome, TriageOutcome::kOk) << seq;
  }
  // Post-shutdown submissions are refused, distinctly from backpressure.
  Result<uint64_t> late = daemon.Submit(module_, dumps_[0]);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(daemon.accepting());
}

TEST_F(TriageDaemonTest, StandingThreadMatchesExplicitPumping) {
  // The standing ingest thread is just another Pump caller: wave cuts are
  // pure functions of submission order, so its timing cannot change the
  // stream. Byte-compare against the explicit-pump run.
  const std::vector<Sub> stream = SingleModuleStream();
  TriageDaemonOptions explicit_options;
  explicit_options.triage = TriageFor(1);
  explicit_options.wave_size = 2;
  std::map<uint64_t, TriageReport> want =
      RunDaemonStream(stream, explicit_options);

  ResRuntime runtime;
  TriageDaemonOptions options = explicit_options;
  options.start_thread = true;
  std::map<uint64_t, TriageReport> got;
  std::mutex mu;
  options.on_report = [&](const TriageReport& r) {
    std::lock_guard<std::mutex> lock(mu);
    got[r.index] = r;
  };
  TriageDaemon daemon(&runtime, options);
  for (const Sub& s : stream) {
    ASSERT_TRUE(daemon.Submit(*s.module, *s.dump).ok());
  }
  daemon.Shutdown();  // joins the thread after it drains
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [seq, report] : want) {
    ExpectSameVerdict(got[seq], report, "seq=" + std::to_string(seq));
  }
}

// --- Fault sites: the daemon's own, and one seq scope for all. ------------

TEST_F(TriageDaemonTest, DaemonFaultSitesAreRegistered) {
  const std::vector<std::string_view> sites = RegisteredFaultSites();
  auto has = [&](std::string_view name) {
    return std::find(sites.begin(), sites.end(), name) != sites.end();
  };
  EXPECT_TRUE(has("daemon.ingest"));
  EXPECT_TRUE(has("daemon.promote_wave"));
}

TEST_F(TriageDaemonTest, DaemonFaultSitesQuarantineExactlyThePoisonedDump) {
  struct SiteCase {
    std::string_view site;
    StatusCode code;
  };
  const SiteCase cases[] = {
      {"daemon.ingest", StatusCode::kAborted},
      {"daemon.promote_wave", StatusCode::kInternal},
  };
  std::vector<Sub> stream = {{&module_, &dumps_[0]},
                             {&module_, &dumps_[1]},
                             {&module_, &dumps_[2]}};
  // Reference: the same daemon stream submitted without the poisoned dump.
  std::vector<Sub> survivors = {{&module_, &dumps_[0]}, {&module_, &dumps_[2]}};
  for (const SiteCase& c : cases) {
    for (size_t wave_size : {2u, 3u}) {
      const std::string label =
          std::string(c.site) + "/wave=" + std::to_string(wave_size);
      TriageDaemonOptions base;
      base.triage = TriageFor(1);
      base.wave_size = wave_size;
      std::map<uint64_t, TriageReport> ref =
          RunDaemonStream(survivors, base);
      ASSERT_EQ(ref.size(), 2u) << label;

      FaultPlan plan;
      plan.Arm(c.site, 1, /*task=*/1);  // poison global submission seq 1
      TriageDaemonOptions poisoned = base;
      poisoned.fault_plan = &plan;
      TriageDaemonStats dstats;
      std::map<uint64_t, TriageReport> got =
          RunDaemonStream(stream, poisoned, &dstats);
      ASSERT_EQ(got.size(), 3u) << label;
      EXPECT_GE(plan.fired(), 1u) << label << ": site never reached";
      EXPECT_EQ(got[1].outcome, TriageOutcome::kQuarantined) << label;
      EXPECT_EQ(got[1].status.code(), c.code) << label;
      EXPECT_EQ(got[1].res_bucket,
                "quarantine:" + std::string(StatusCodeName(c.code)))
          << label;
      EXPECT_EQ(dstats.quarantined, 1u) << label;
      // Isolation: survivors byte-identical to the stream without it.
      ExpectSameVerdict(got[0], ref[0], label + "/seq=0");
      ExpectSameVerdict(got[2], ref[1], label + "/seq=2");
    }
  }
}

TEST_F(TriageDaemonTest, UnarmedDaemonChecksAreInert) {
  // With no plan armed anywhere, FaultScope::Check at the daemon sites is
  // the same two-loads-and-a-compare fast path as every other site (see
  // faultpoint.h) — nothing fires, nothing quarantines. An armed plan whose
  // arms never match (wrong site / wrong task) must be equally inert.
  FaultPlan unmatched;
  unmatched.Arm("daemon.ingest", 1, /*task=*/99);
  unmatched.Arm("no.such.site", 1);
  std::vector<Sub> stream = {{&module_, &dumps_[0]}, {&module_, &dumps_[1]}};
  for (FaultPlan* plan : {static_cast<FaultPlan*>(nullptr), &unmatched}) {
    TriageDaemonOptions options;
    options.triage = TriageFor(1);
    options.wave_size = 2;
    options.fault_plan = plan;
    TriageDaemonStats dstats;
    std::map<uint64_t, TriageReport> got =
        RunDaemonStream(stream, options, &dstats);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(dstats.quarantined, 0u);
    for (const auto& [seq, report] : got) {
      EXPECT_EQ(report.outcome, TriageOutcome::kOk) << seq;
    }
  }
  EXPECT_EQ(unmatched.fired(), 0u);
}

TEST_F(TriageDaemonTest, PerDumpFaultSitesAreScopedByGlobalSeq) {
  // Four serialized submissions in waves of two: seq 3 is index 1 of the
  // second wave. An arm scoped to task 3 must quarantine seq 3 and nothing
  // else, wherever in the wave runner its site sits: no site is scoped by
  // the wave-local index.
  std::vector<std::vector<uint8_t>> blobs;
  for (size_t i = 0; i < 4; ++i) {
    blobs.push_back(SerializeCoredump(dumps_[i]));
  }
  auto run = [&](size_t count, FaultPlan* plan, size_t parallel,
                 TriageDaemonStats* stats) {
    ResRuntime runtime;
    TriageDaemonOptions options;
    options.triage = TriageFor(parallel);
    options.wave_size = 2;
    options.fault_plan = plan;
    std::map<uint64_t, TriageReport> reports;
    options.on_report = [&](const TriageReport& r) { reports[r.index] = r; };
    TriageDaemon daemon(&runtime, options);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(daemon.SubmitSerialized(module_, blobs[i]).ok());
    }
    daemon.Shutdown();
    *stats = daemon.stats();
    return reports;
  };
  struct SiteCase {
    std::string_view site;
    StatusCode code;
  };
  const SiteCase cases[] = {
      {"coredump.validate", StatusCode::kDataLoss},
      {"engine.lane.detect", StatusCode::kInternal},
  };
  for (size_t parallel : {1u, 2u}) {
    // Reference: the same stream without seq 3.
    TriageDaemonStats ref_stats;
    std::map<uint64_t, TriageReport> ref =
        run(3, nullptr, parallel, &ref_stats);
    ASSERT_EQ(ref.size(), 3u);
    for (const SiteCase& c : cases) {
      const std::string label =
          std::string(c.site) + "/parallel=" + std::to_string(parallel);
      FaultPlan plan;
      plan.Arm(c.site, 1, /*task=*/3);
      TriageDaemonStats stats;
      std::map<uint64_t, TriageReport> got = run(4, &plan, parallel, &stats);
      ASSERT_EQ(got.size(), 4u) << label;
      EXPECT_EQ(plan.fired(), 1u) << label << ": the arm never matched seq 3";
      EXPECT_EQ(stats.waves, 2u) << label;
      EXPECT_EQ(stats.quarantined, 1u) << label;
      EXPECT_EQ(got[3].outcome, TriageOutcome::kQuarantined) << label;
      EXPECT_EQ(got[3].status.code(), c.code) << label;
      for (uint64_t seq = 0; seq < 3; ++seq) {
        EXPECT_EQ(got[seq].outcome, TriageOutcome::kOk) << label;
        ExpectSameVerdict(got[seq], ref[seq],
                          label + "/seq=" + std::to_string(seq));
      }
    }
  }
}

// --- Wire-facing ingest. --------------------------------------------------

TEST_F(TriageDaemonTest, SerializedIngestQuarantinesCorruptBlobInItsSlot) {
  std::vector<std::vector<uint8_t>> blobs;
  for (size_t i = 0; i < 3; ++i) {
    blobs.push_back(SerializeCoredump(dumps_[i]));
  }
  blobs[1].resize(blobs[1].size() / 2);  // truncated upload
  ResRuntime runtime;
  TriageDaemonOptions options;
  options.triage = TriageFor(1);
  options.wave_size = 3;
  std::map<uint64_t, TriageReport> reports;
  options.on_report = [&](const TriageReport& r) { reports[r.index] = r; };
  TriageDaemon daemon(&runtime, options);
  for (const auto& blob : blobs) {
    ASSERT_TRUE(daemon.SubmitSerialized(module_, blob).ok());
  }
  daemon.Drain();
  daemon.Shutdown();
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[1].outcome, TriageOutcome::kQuarantined);
  EXPECT_EQ(reports[1].status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(reports[0].outcome, TriageOutcome::kOk);
  EXPECT_EQ(reports[2].outcome, TriageOutcome::kOk);
  EXPECT_EQ(daemon.stats().quarantined, 1u);
}

// --- ResRuntime facts eviction: promotion faults vs eviction bookkeeping. --

// A faulted promotion must not create the module's facts entry or bump its
// eviction bookkeeping: victim selection has to stay identical to a batch
// submitted without the failed dump.
TEST(RuntimeEvictionTest, FaultedPromotionLeavesEvictionOrderUnchanged) {
  Module a = WorkloadByName("use_after_free").build();
  Module b = WorkloadByName("buffer_overflow").build();
  ResRuntime runtime;
  {
    // a: 2 uses at tick 0, two promoted cores.
    std::shared_ptr<ModuleFacts> fa = runtime.FactsFor(a);
    runtime.FactsFor(a);
    fa->promoted_clauses.Publish(
        {runtime.pool()->Var("fa0", VarOrigin::kUnknown)});
    fa->promoted_clauses.Publish(
        {runtime.pool()->Var("fa1", VarOrigin::kUnknown)});
  }
  runtime.AdvanceFactsTick();
  {
    // b: 1 use at tick 1, one promoted core — the rightful capacity victim.
    std::shared_ptr<ModuleFacts> fb = runtime.FactsFor(b);
    fb->promoted_clauses.Publish(
        {runtime.pool()->Var("fb0", VarOrigin::kUnknown)});
  }
  // Faulted promotion targeting b: before the fix this bumped b's
  // uses/last_use_tick via FactsFor, tying it with a and flipping the
  // victim to a (older tick). It must not.
  FaultPlan plan;
  plan.Arm("runtime.promote");
  ClauseStore none(4);
  ResRuntime::Promotion promo =
      runtime.Promote(b, none, {}, 0, FaultScope{&plan});
  EXPECT_FALSE(promo.status.ok());
  EXPECT_EQ(plan.fired(), 1u);
  EXPECT_EQ(promo.new_cores, 0u);
  EXPECT_EQ(promo.new_keys, 0u);

  ResRuntime::FactsEviction ev = runtime.EvictIdleFacts(1, 0);
  EXPECT_EQ(ev.facts_evicted, 1u);
  EXPECT_EQ(ev.cores_dropped, 1u);  // b's single core, not a's two
}

TEST(RuntimeEvictionTest, FaultedPromotionCreatesNoFactsEntry) {
  Module c = WorkloadByName("use_after_free").build();
  ResRuntime runtime;
  FaultPlan plan;
  plan.Arm("runtime.promote");
  ClauseStore none(4);
  EXPECT_FALSE(runtime.Promote(c, none, {}, 0, FaultScope{&plan}).status.ok());
  runtime.AdvanceFactsTick();
  // A TTL pass that would evict any idle entry finds none: the faulted
  // promotion never registered c.
  ResRuntime::FactsEviction ev = runtime.EvictIdleFacts(0, 1);
  EXPECT_EQ(ev.facts_evicted, 0u);
}

// Pins the capacity pass's victim order: fewest uses first, ties broken
// oldest last-use tick, pinned entries untouchable — both when evicting
// one-by-one and when one call erases a whole prefix.
TEST(RuntimeEvictionTest, EvictIdleFactsVictimOrder) {
  WorkloadSpec spec = WorkloadByName("use_after_free");
  Module m0 = spec.build(), m1 = spec.build(), m2 = spec.build(),
         m3 = spec.build();
  ResRuntime runtime;
  auto touch = [&](const Module& m, size_t uses, size_t cores,
                   const std::string& tag) {
    std::shared_ptr<ModuleFacts> f;
    for (size_t i = 0; i < uses; ++i) {
      f = runtime.FactsFor(m);
    }
    for (size_t i = 0; i < cores; ++i) {
      f->promoted_clauses.Publish(
          {runtime.pool()->Var(tag + std::to_string(i), VarOrigin::kUnknown)});
    }
  };
  // Distinct core counts identify each victim through cores_dropped.
  touch(m0, 3, 1, "m0");  // tick 0
  runtime.AdvanceFactsTick();
  touch(m1, 1, 2, "m1");  // tick 1
  runtime.AdvanceFactsTick();
  touch(m2, 2, 4, "m2");  // tick 2
  runtime.AdvanceFactsTick();
  touch(m3, 1, 8, "m3");  // tick 3
  // Victim order: m1 (1 use, tick 1) < m3 (1 use, tick 3) < m2 (2 uses)
  // < m0 (3 uses).
  ResRuntime::FactsEviction e1 = runtime.EvictIdleFacts(3, 0);
  EXPECT_EQ(e1.facts_evicted, 1u);
  EXPECT_EQ(e1.cores_dropped, 2u);  // m1
  ResRuntime::FactsEviction e2 = runtime.EvictIdleFacts(2, 0);
  EXPECT_EQ(e2.facts_evicted, 1u);
  EXPECT_EQ(e2.cores_dropped, 8u);  // m3
  {
    // Pin m2 (the next victim): the pass must skip it and take m0.
    std::shared_ptr<ModuleFacts> pin = runtime.FactsFor(m2);
    ResRuntime::FactsEviction e3 = runtime.EvictIdleFacts(1, 0);
    EXPECT_EQ(e3.facts_evicted, 1u);
    EXPECT_EQ(e3.cores_dropped, 1u);  // m0, because m2 is pinned
  }
  // One call erasing a whole prefix takes victims in the same order.
  ResRuntime rt2;
  // Reuse the same modules: fresh runtime, fresh registry.
  auto touch2 = [&](const Module& m, size_t uses, size_t cores,
                    const std::string& tag) {
    std::shared_ptr<ModuleFacts> f;
    for (size_t i = 0; i < uses; ++i) {
      f = rt2.FactsFor(m);
    }
    for (size_t i = 0; i < cores; ++i) {
      f->promoted_clauses.Publish(
          {rt2.pool()->Var(tag + std::to_string(i), VarOrigin::kUnknown)});
    }
  };
  touch2(m0, 3, 1, "m0");
  rt2.AdvanceFactsTick();
  touch2(m1, 1, 2, "m1");
  rt2.AdvanceFactsTick();
  touch2(m2, 2, 4, "m2");
  rt2.AdvanceFactsTick();
  touch2(m3, 1, 8, "m3");
  ResRuntime::FactsEviction batch = rt2.EvictIdleFacts(1, 0);
  EXPECT_EQ(batch.facts_evicted, 3u);
  EXPECT_EQ(batch.cores_dropped, 14u);  // m1 + m3 + m2
  // The survivor is m0: its core count is intact.
  EXPECT_EQ(rt2.FactsFor(m0)->promoted_clauses.published(), 1u);
}

}  // namespace
}  // namespace res
