// Durable ModuleFacts (ISSUE 8): the fact-log codec and the warm-start
// contract. A fact log exported at a wave boundary and imported into a
// fresh runtime must act as that runtime's batch-start snapshot watermark:
// the restarted pipeline's reports are byte-identical to an uninterrupted
// one at every wave parallelism, while the
// first warm wave's reuse counters go from 0 to >0. Corrupt, truncated, or
// mismatched logs must be rejected with status codes — never a crash —
// under the same mutation sweep the coredump deserializer survives. The
// file also pins the two eviction-boundary bugfixes that ride along: a
// faulted promotion must not perturb EvictIdleFacts victim selection, and
// the capacity pass must evict by (uses, last_use_tick) in one scan.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/res/facts_serialize.h"
#include "src/res/reverse_engine.h"
#include "src/res/runtime.h"
#include "src/support/faultpoint.h"
#include "src/support/rng.h"
#include "src/support/status.h"
#include "src/triage/triage_daemon.h"
#include "src/triage/triage_service.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

namespace res {
namespace {

void ExpectSameVerdict(const TriageReport& got, const TriageReport& want,
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

TriageOptions TriageFor(size_t parallel, ResOptions res = ResOptions{}) {
  TriageOptions options;
  options.res = std::move(res);
  options.max_parallel_dumps = parallel;
  return options;
}

// Exports `module`'s facts from `runtime`, asserting success.
std::vector<uint8_t> MustExport(ResRuntime* runtime, const Module& module) {
  Result<std::vector<uint8_t>> log = runtime->ExportFacts(module);
  EXPECT_TRUE(log.ok()) << log.status().ToString();
  return log.ok() ? log.value() : std::vector<uint8_t>{};
}

class FactsSerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadSpec spec = WorkloadByName("use_after_free");
    module_ = spec.build();
    // Two crash paths alternating, so tail dumps genuinely reuse facts.
    const std::vector<std::vector<int64_t>> inputs = {{1}, {2}, {1},
                                                      {2}, {1}};
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

  std::vector<const Coredump*> DumpPtrs(size_t begin, size_t end) const {
    std::vector<const Coredump*> ptrs;
    for (size_t i = begin; i < end; ++i) {
      ptrs.push_back(&dumps_[i]);
    }
    return ptrs;
  }

  Module module_;
  std::vector<Coredump> dumps_;
};

// --- Codec basics. --------------------------------------------------------

TEST_F(FactsSerializeTest, ModuleFingerprintBindsToModuleBody) {
  EXPECT_EQ(ModuleFingerprint(module_), ModuleFingerprint(module_));
  // A structurally identical rebuild fingerprints the same (content hash,
  // not object identity); a different program does not.
  Module same = WorkloadByName("use_after_free").build();
  EXPECT_EQ(ModuleFingerprint(module_), ModuleFingerprint(same));
  Module other = WorkloadByName("buffer_overflow").build();
  EXPECT_NE(ModuleFingerprint(module_), ModuleFingerprint(other));
}

TEST_F(FactsSerializeTest, EmptyLogRoundTrips) {
  ResRuntime runtime;
  // Never-seen module: a valid log with empty sections.
  std::vector<uint8_t> bytes = MustExport(&runtime, module_);
  Result<FactsLog> log = ParseFactsLog(bytes);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log.value().module_fingerprint, ModuleFingerprint(module_));
  EXPECT_TRUE(log.value().vars.empty());
  EXPECT_TRUE(log.value().exprs.empty());
  EXPECT_TRUE(log.value().cores.empty());
  EXPECT_TRUE(log.value().keys.empty());
  // A touched-but-unpromoted module exports the identical bytes.
  runtime.FactsFor(module_);
  EXPECT_EQ(MustExport(&runtime, module_), bytes);
  // And an empty log imports cleanly as a no-op.
  ResRuntime fresh;
  Result<ResRuntime::FactsImport> imported =
      fresh.ImportFacts(module_, bytes, ResSolverFingerprint(ResOptions{}));
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_EQ(imported.value().cores_imported, 0u);
  EXPECT_EQ(imported.value().keys_imported, 0u);
}

TEST_F(FactsSerializeTest, ExportImportExportIsByteIdentical) {
  ResRuntime a;
  TriageService service(&a, module_, TriageFor(1));
  TriageStats tstats;
  service.RunBatch(DumpPtrs(0, 3), &tstats);
  ASSERT_GT(tstats.cache_promotions, 0u);
  std::vector<uint8_t> exported = MustExport(&a, module_);

  ResRuntime b;
  Result<ResRuntime::FactsImport> imported =
      b.ImportFacts(module_, exported, ResSolverFingerprint(ResOptions{}));
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_GT(imported.value().keys_imported, 0u);
  EXPECT_EQ(MustExport(&b, module_), exported);

  // Idempotent: importing the same log again publishes nothing new and the
  // re-export still matches byte-for-byte.
  Result<ResRuntime::FactsImport> again =
      b.ImportFacts(module_, exported, ResSolverFingerprint(ResOptions{}));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().cores_imported, 0u);
  EXPECT_EQ(again.value().keys_imported, 0u);
  EXPECT_EQ(MustExport(&b, module_), exported);
}

TEST_F(FactsSerializeTest, SummaryMentionsSections) {
  ResRuntime a;
  TriageService service(&a, module_, TriageFor(1));
  service.RunBatch(DumpPtrs(0, 2));
  Result<FactsLog> log = ParseFactsLog(MustExport(&a, module_));
  ASSERT_TRUE(log.ok());
  std::string summary = FactsLogSummary(log.value());
  EXPECT_NE(summary.find("fact log v1"), std::string::npos);
  EXPECT_NE(summary.find("module fingerprint"), std::string::npos);
  EXPECT_NE(summary.find("promoted keys"), std::string::npos);
}

// --- The warm-start determinism contract. ---------------------------------

// Restarting between batches from an exported fact log must be
// observationally invisible: the resumed batch's reports byte-match an
// uninterrupted runtime's, and the deterministic promotion/reuse counters
// match too (cache-entry counters are exempt — entries are memoization and
// are deliberately not serialized).
TEST_F(FactsSerializeTest, WarmStartMatchesUninterruptedAcrossParallelism) {
  for (size_t parallel : {1u, 2u}) {
    const std::string label = "parallel=" + std::to_string(parallel);
    // Uninterrupted: both batches on one runtime.
    ResRuntime uninterrupted;
    TriageStats want_stats;
    std::vector<TriageReport> want;
    {
      TriageService s1(&uninterrupted, module_, TriageFor(parallel));
      s1.RunBatch(DumpPtrs(0, 3));
      TriageService s2(&uninterrupted, module_, TriageFor(parallel));
      want = s2.RunBatch(DumpPtrs(3, 5), &want_stats);
    }
    // Interrupted: batch 1, export, process death (a fresh runtime),
    // import, batch 2.
    ResRuntime a;
    {
      TriageService s1(&a, module_, TriageFor(parallel));
      s1.RunBatch(DumpPtrs(0, 3));
    }
    std::vector<uint8_t> exported = MustExport(&a, module_);
    ResRuntime b;
    Result<ResRuntime::FactsImport> imported =
        b.ImportFacts(module_, exported, ResSolverFingerprint(ResOptions{}));
    ASSERT_TRUE(imported.ok()) << label << ": "
                               << imported.status().ToString();
    TriageStats got_stats;
    TriageService s2(&b, module_, TriageFor(parallel));
    std::vector<TriageReport> got = s2.RunBatch(DumpPtrs(3, 5), &got_stats);

    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t i = 0; i < want.size(); ++i) {
      ExpectSameVerdict(got[i], want[i], label + "/dump=" + std::to_string(i));
    }
    // The deterministic counters: the imported snapshot reproduces the
    // uninterrupted watermark exactly.
    EXPECT_EQ(got_stats.res.solver.promoted_clause_hits,
              want_stats.res.solver.promoted_clause_hits)
        << label;
    EXPECT_EQ(got_stats.clause_promotions, want_stats.clause_promotions)
        << label;
    EXPECT_EQ(got_stats.cache_promotions, want_stats.cache_promotions)
        << label;
    EXPECT_EQ(got_stats.quarantined, 0u) << label;
  }
}

// First-wave reuse on the clause-heavy workload: cold, the first dump of a
// fresh process has promoted_clause_hits == 0 by construction (nothing was
// ever promoted before its watermark); warm-started from a fact log it
// screens against the imported cores immediately.
TEST_F(FactsSerializeTest, WarmFirstWaveReusesImportedFacts) {
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
  std::vector<const Coredump*> wave = {&dump, &dump};

  // Cold control.
  ResRuntime cold;
  TriageStats cold_stats;
  TriageService cold_service(&cold, module, TriageFor(1, res));
  std::vector<TriageReport> cold_reports =
      cold_service.RunBatch(wave, &cold_stats);
  ASSERT_EQ(cold_reports.size(), 2u);
  ASSERT_GT(cold_stats.clause_promotions, 0u);
  EXPECT_EQ(cold_reports[0].stats.solver.promoted_clause_hits, 0u);

  std::vector<uint8_t> exported = MustExport(&cold, module);
  ResRuntime warm;
  Result<ResRuntime::FactsImport> imported =
      warm.ImportFacts(module, exported, ResSolverFingerprint(res));
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_GT(imported.value().cores_imported, 0u);
  EXPECT_GT(imported.value().keys_imported, 0u);

  TriageStats warm_stats;
  TriageService warm_service(&warm, module, TriageFor(1, res));
  std::vector<TriageReport> warm_reports =
      warm_service.RunBatch(wave, &warm_stats);
  ASSERT_EQ(warm_reports.size(), 2u);
  // Byte-identical verdicts (reuse is cost-only)...
  for (size_t i = 0; i < 2; ++i) {
    ExpectSameVerdict(warm_reports[i], cold_reports[i],
                      "warm/dump=" + std::to_string(i));
  }
  // ...while the FIRST dump now reuses: 0 -> >0 across the restart.
  EXPECT_GT(warm_reports[0].stats.solver.promoted_clause_hits, 0u);
  EXPECT_GT(warm_stats.res.solver.promoted_clause_hits, 0u);
  // The promoted keys make the second dump's cache hits via-promotion
  // (serial: deterministic).
  EXPECT_GT(warm_stats.res.solver.promoted_cache_hits, 0u);
}

// The daemon-level round trip: save-on-shutdown, restart, load-on-start.
TEST_F(FactsSerializeTest, DaemonWarmStartRoundTrip) {
  // Uninterrupted daemon over the full stream, wave size 2.
  auto run_daemon = [&](const std::vector<const Coredump*>& dumps,
                        TriageDaemonOptions options,
                        TriageDaemonStats* stats_out) {
    ResRuntime runtime;
    std::map<uint64_t, TriageReport> reports;
    options.wave_size = 2;
    options.on_report = [&](const TriageReport& r) { reports[r.index] = r; };
    TriageDaemon daemon(&runtime, options);
    for (const Coredump* d : dumps) {
      Result<uint64_t> seq = daemon.Submit(module_, *d);
      EXPECT_TRUE(seq.ok());
      daemon.Pump();
    }
    daemon.Shutdown();
    if (stats_out != nullptr) {
      *stats_out = daemon.stats();
    }
    return reports;
  };

  TriageDaemonOptions base;
  base.triage = TriageFor(1);
  std::map<uint64_t, TriageReport> want =
      run_daemon(DumpPtrs(0, 5), base, nullptr);
  ASSERT_EQ(want.size(), 5u);

  // Interrupted: daemon A takes the first two waves (dumps 0-3) and saves
  // its facts on shutdown...
  std::vector<uint8_t> saved;
  uint64_t saves = 0;
  TriageDaemonOptions save = base;
  save.export_facts = [&](const Module& module,
                          const std::vector<uint8_t>& bytes) {
    EXPECT_EQ(&module, &module_);
    saved = bytes;
    ++saves;
  };
  TriageDaemonStats save_stats;
  std::map<uint64_t, TriageReport> head =
      run_daemon(DumpPtrs(0, 4), save, &save_stats);
  ASSERT_EQ(head.size(), 4u);
  EXPECT_EQ(saves, 1u);
  EXPECT_EQ(save_stats.facts_exported, 1u);
  ASSERT_FALSE(saved.empty());

  // ...and daemon B restarts from the snapshot and takes the last wave.
  TriageDaemonOptions load = base;
  load.import_facts.push_back({&module_, saved});
  TriageDaemonStats load_stats;
  std::map<uint64_t, TriageReport> tail =
      run_daemon(DumpPtrs(4, 5), load, &load_stats);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(load_stats.facts_imported, 1u);
  EXPECT_EQ(load_stats.facts_import_failed, 0u);
  EXPECT_GT(load_stats.imported_keys, 0u);

  for (size_t i = 0; i < 4; ++i) {
    ExpectSameVerdict(head[i], want[i], "head/seq=" + std::to_string(i));
  }
  ExpectSameVerdict(tail[0], want[4], "tail/seq=4");
  // The restarted wave screens against the same promoted watermark.
  EXPECT_EQ(tail[0].stats.solver.promoted_clause_hits,
            want[4].stats.solver.promoted_clause_hits);
}

// --- Rejection: mismatches are status codes, never crashes. ---------------

TEST_F(FactsSerializeTest, VersionMismatchRejected) {
  ResRuntime runtime;
  std::vector<uint8_t> bytes = MustExport(&runtime, module_);
  ASSERT_GT(bytes.size(), 12u);
  bytes[8] ^= 0x7f;  // the version u32 sits right after the magic
  Result<FactsLog> log = ParseFactsLog(bytes);
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kFailedPrecondition);
  Result<ResRuntime::FactsImport> imported =
      runtime.ImportFacts(module_, bytes, ResSolverFingerprint(ResOptions{}));
  ASSERT_FALSE(imported.ok());
  EXPECT_EQ(imported.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(FactsSerializeTest, WrongModuleFingerprintRejected) {
  ResRuntime a;
  TriageService service(&a, module_, TriageFor(1));
  service.RunBatch(DumpPtrs(0, 2));
  std::vector<uint8_t> exported = MustExport(&a, module_);

  Module other = WorkloadByName("buffer_overflow").build();
  ResRuntime b;
  Result<ResRuntime::FactsImport> imported =
      b.ImportFacts(other, exported, ResSolverFingerprint(ResOptions{}));
  ASSERT_FALSE(imported.ok());
  EXPECT_EQ(imported.status().code(), StatusCode::kFailedPrecondition);
  // Nothing was published to the wrong module.
  EXPECT_EQ(b.FactsFor(other)->promoted_clauses.published(), 0u);
}

TEST_F(FactsSerializeTest, SolverFingerprintMismatchRejected) {
  ResRuntime a;
  TriageService service(&a, module_, TriageFor(1));
  TriageStats tstats;
  service.RunBatch(DumpPtrs(0, 2), &tstats);
  ASSERT_GT(tstats.cache_promotions, 0u);  // the log must carry keys
  std::vector<uint8_t> exported = MustExport(&a, module_);

  ResRuntime b;
  Result<ResRuntime::FactsImport> imported = b.ImportFacts(
      module_, exported, ResSolverFingerprint(ResOptions{}) ^ 1);
  ASSERT_FALSE(imported.ok());
  EXPECT_EQ(imported.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(FactsSerializeTest, PinnedFactsRefuseExport) {
  ResRuntime runtime;
  std::shared_ptr<ModuleFacts> pin = runtime.FactsFor(module_);
  Result<std::vector<uint8_t>> log = runtime.ExportFacts(module_);
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kFailedPrecondition);
  pin.reset();
  EXPECT_TRUE(runtime.ExportFacts(module_).ok());
}

TEST_F(FactsSerializeTest, EmptyCoreIsCorrupt) {
  FactsLog log;
  log.module_fingerprint = ModuleFingerprint(module_);
  log.cores.push_back({});  // an empty core would refute everything
  Result<FactsLog> parsed = ParseFactsLog(SerializeFactsLog(log));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
}

// --- Corruption hardening: the coredump_test mutation sweep. --------------

TEST_F(FactsSerializeTest, TruncationSweepYieldsDataLoss) {
  ResRuntime a;
  TriageService service(&a, module_, TriageFor(1));
  service.RunBatch(DumpPtrs(0, 3));
  const std::vector<uint8_t> bytes = MustExport(&a, module_);
  ASSERT_GT(bytes.size(), 16u);
  // Every strict prefix is truncation: the section counts written up front
  // promise more payload than remains, so parse must fail — always as
  // kDataLoss, never as a crash or a silently short log.
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    Result<FactsLog> parsed = ParseFactsLog(prefix);
    ASSERT_FALSE(parsed.ok()) << "len=" << len;
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss) << "len=" << len;
  }
}

TEST_F(FactsSerializeTest, CorruptionFuzzSweepNeverCrashes) {
  ResRuntime a;
  TriageService service(&a, module_, TriageFor(1));
  service.RunBatch(DumpPtrs(0, 3));
  const std::vector<uint8_t> bytes = MustExport(&a, module_);
  ASSERT_GT(bytes.size(), 16u);
  const uint64_t fingerprint = ResSolverFingerprint(ResOptions{});
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(0xFAC75 ^ seed);
    for (int iter = 0; iter < 128; ++iter) {
      std::vector<uint8_t> mutated = bytes;
      switch (rng.NextBelow(4)) {
        case 0:  // scattered byte corruption
          for (uint64_t k = 0; k <= rng.NextBelow(8); ++k) {
            mutated[rng.NextBelow(mutated.size())] ^=
                static_cast<uint8_t>(1 + rng.NextBelow(255));
          }
          break;
        case 1: {  // length-field attack: splice a hostile u64 anywhere
          const size_t pos = rng.NextBelow(mutated.size() - 8);
          const uint64_t v = rng.NextBool() ? rng.Next()
                                            : UINT64_MAX - rng.NextBelow(16);
          for (int b = 0; b < 8; ++b) {
            mutated[pos + b] = static_cast<uint8_t>(v >> (8 * b));
          }
          break;
        }
        case 2:  // truncation
          mutated.resize(rng.NextBelow(mutated.size()));
          break;
        default: {  // duplicate an interior chunk (structure shear)
          const size_t from = rng.NextBelow(mutated.size());
          const size_t len = rng.NextBelow(mutated.size() - from) + 1;
          mutated.insert(mutated.begin() + static_cast<ptrdiff_t>(from),
                         mutated.begin() + static_cast<ptrdiff_t>(from),
                         mutated.begin() + static_cast<ptrdiff_t>(from + len));
          break;
        }
      }
      Result<FactsLog> parsed = ParseFactsLog(mutated);
      if (!parsed.ok()) {
        EXPECT_TRUE(parsed.status().code() == StatusCode::kDataLoss ||
                    parsed.status().code() == StatusCode::kFailedPrecondition)
            << "seed=" << seed << " iter=" << iter << ": "
            << parsed.status().ToString();
      } else {
        // Structurally fine: import must still either apply it or reject
        // it with a status (fingerprint mismatch), without crashing.
        ResRuntime fresh;
        Result<ResRuntime::FactsImport> imported =
            fresh.ImportFacts(module_, mutated, fingerprint);
        if (!imported.ok()) {
          EXPECT_EQ(imported.status().code(),
                    StatusCode::kFailedPrecondition)
              << "seed=" << seed << " iter=" << iter;
        }
      }
    }
  }
}

// --- Daemon fault site: a poisoned import cold-starts, nothing more. ------

TEST_F(FactsSerializeTest, DaemonImportFaultColdStarts) {
  ResRuntime a;
  TriageService service(&a, module_, TriageFor(1));
  service.RunBatch(DumpPtrs(0, 3));
  std::vector<uint8_t> exported = MustExport(&a, module_);

  // Cold reference.
  auto run_tail = [&](TriageDaemonOptions options, TriageDaemonStats* stats) {
    ResRuntime runtime;
    std::map<uint64_t, TriageReport> reports;
    options.triage = TriageFor(1);
    options.wave_size = 2;
    options.on_report = [&](const TriageReport& r) { reports[r.index] = r; };
    TriageDaemon daemon(&runtime, options);
    for (const Coredump* d : DumpPtrs(3, 5)) {
      EXPECT_TRUE(daemon.Submit(module_, *d).ok());
      daemon.Pump();
    }
    daemon.Shutdown();
    *stats = daemon.stats();
    return reports;
  };

  TriageDaemonStats cold_stats;
  std::map<uint64_t, TriageReport> cold = run_tail({}, &cold_stats);

  FaultPlan plan;
  plan.Arm("daemon.import_facts");
  TriageDaemonOptions faulted;
  faulted.fault_plan = &plan;
  faulted.import_facts.push_back({&module_, exported});
  TriageDaemonStats faulted_stats;
  std::map<uint64_t, TriageReport> got = run_tail(faulted, &faulted_stats);

  EXPECT_EQ(plan.fired(), 1u);
  EXPECT_EQ(faulted_stats.facts_imported, 0u);
  EXPECT_EQ(faulted_stats.facts_import_failed, 1u);
  ASSERT_EQ(got.size(), cold.size());
  // The module cold-started: every report matches the no-snapshot daemon.
  for (const auto& [seq, report] : cold) {
    ExpectSameVerdict(got[seq], report, "seq=" + std::to_string(seq));
  }
  EXPECT_EQ(faulted_stats.quarantined, 0u);

  // Unarmed, the site is inert and the same snapshot applies cleanly.
  TriageDaemonOptions warm;
  warm.import_facts.push_back({&module_, exported});
  TriageDaemonStats warm_stats;
  run_tail(warm, &warm_stats);
  EXPECT_EQ(warm_stats.facts_imported, 1u);
  EXPECT_EQ(warm_stats.facts_import_failed, 0u);
}

// --- Satellite bugfixes: promotion faults vs eviction bookkeeping. --------

// A faulted promotion must not create the module's facts entry or bump its
// eviction bookkeeping: victim selection has to stay identical to a batch
// submitted without the failed dump.
TEST_F(FactsSerializeTest, FaultedPromotionLeavesEvictionOrderUnchanged) {
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
  ClauseStore none(4, 4);
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

TEST_F(FactsSerializeTest, FaultedPromotionCreatesNoFactsEntry) {
  Module c = WorkloadByName("use_after_free").build();
  ResRuntime runtime;
  FaultPlan plan;
  plan.Arm("runtime.promote");
  ClauseStore none(4, 4);
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
TEST_F(FactsSerializeTest, EvictIdleFactsVictimOrder) {
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
  EXPECT_EQ(rt2.FactsFor(m0)->promoted_clauses.live_count(), 1u);
}

}  // namespace
}  // namespace res
