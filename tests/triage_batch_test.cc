// Batch triage must be observationally invisible: a daemon wave is a batch
// of dumps over one module, and for any dump-level parallelism every report
// (bucket, rating, root-cause signature, both baselines) equals a solo
// ResEngine run over the same dump with the same options, whether the wave
// runs cold or consults the facts an earlier wave promoted — cross-dump
// reuse through the shared ResRuntime changes cost, never output. The
// promotion counters themselves must be deterministic: pure functions of
// (dumps, options, wave configuration). See src/res/runtime.h for the
// promotion protocol and docs/ARCHITECTURE.md §6 for the contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/res/runtime.h"
#include "src/triage/triage_daemon.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"
#include "tests/triage_oracle.h"

namespace res {
namespace {

TEST(TriageDaemonWorkloadTest, ColdAndWarmWavesMatchSoloAcrossWorkloads) {
  struct Corpus {
    const char* workload;
    std::vector<std::vector<int64_t>> inputs;  // one dump per entry
  };
  const Corpus corpora[] = {
      {"use_after_free", {{1}, {2}}},  // two crash paths, one bug
      {"racy_counter", {{}, {}}},
      {"buffer_overflow", {{5}}},
      {"div_by_zero_input", {{0}}},
  };
  for (const Corpus& corpus : corpora) {
    WorkloadSpec spec = WorkloadByName(corpus.workload);
    Module module = spec.build();
    std::vector<Coredump> dumps;
    for (size_t d = 0; d < corpus.inputs.size(); ++d) {
      WorkloadSpec dspec = spec;
      if (!corpus.inputs[d].empty()) {
        dspec.channel0_inputs = corpus.inputs[d];
      }
      FailureRunOptions run_options;
      run_options.require_live_peers = spec.requires_live_peers;
      run_options.first_seed = 1 + d * 37;
      auto run = RunToFailure(module, dspec, run_options);
      ASSERT_TRUE(run.ok()) << corpus.workload;
      dumps.push_back(std::move(run).value().dump);
    }
    // Every dump twice: the first wave runs cold, the second consults the
    // facts the first one promoted.
    std::vector<Sub> stream;
    for (int pass = 0; pass < 2; ++pass) {
      for (const Coredump& dump : dumps) {
        stream.push_back({&module, &dump});
      }
    }
    for (size_t parallel : {1u, 2u}) {
      TriageDaemonOptions options;
      options.triage = TriageFor(parallel);
      options.wave_size = dumps.size();
      TriageDaemonStats stats;
      ExpectMatchesSolo(RunDaemonStream(stream, options, &stats), stream,
                        ResOptions{},
                        std::string(corpus.workload) +
                            "/parallel=" + std::to_string(parallel));
      EXPECT_EQ(stats.waves, 2u) << corpus.workload;
    }
  }
}

// The clause-learning workload: full synthesis over the 4-worker
// interleaving space learns real UNSAT cores.
class ClauseLearningStream : public ::testing::Test {
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
    solo_ = SoloReport(module_, dump_, res_options_);
  }

  TriageDaemonOptions Options(size_t parallel, size_t wave_size) const {
    TriageDaemonOptions options;
    options.triage = TriageFor(parallel, res_options_);
    options.wave_size = wave_size;
    return options;
  }

  Module module_;
  Coredump dump_;
  ResOptions res_options_;
  TriageReport solo_;
};

TEST_F(ClauseLearningStream, PromotionCountersDeterministicAndPositive) {
  // A serial wave: dump i's engine sees the promotions of dumps 0..i-1, so
  // identical dumps must show genuine cross-dump reuse — and the promotion
  // counters must repeat exactly on a fresh runtime.
  const std::vector<Sub> stream(3, Sub{&module_, &dump_});
  TriageDaemonStats reference;
  for (int repeat = 0; repeat < 2; ++repeat) {
    const std::string label = "repeat=" + std::to_string(repeat);
    TriageDaemonStats stats;
    ExpectMatchesSolo(RunDaemonStream(stream, Options(1, 3), &stats), stream,
                      res_options_, label);
    EXPECT_GT(stats.clause_promotions, 0u) << label;
    EXPECT_GT(stats.cache_promotions, 0u) << label;
    EXPECT_GT(stats.res.solver.promoted_clause_hits, 0u)
        << label << ": later dumps re-derived conflicts instead of reuse";
    EXPECT_GT(stats.res.expr_reuse_hits, 0u)
        << label << ": identical dumps must re-intern earlier dumps' variables";
    if (repeat == 0) {
      reference = stats;
    } else {
      EXPECT_EQ(stats.clause_promotions, reference.clause_promotions);
      EXPECT_EQ(stats.cache_promotions, reference.cache_promotions);
      EXPECT_EQ(stats.res.solver.promoted_clause_hits,
                reference.res.solver.promoted_clause_hits);
      // A commit-order counter against the construction watermark,
      // deterministic in serial waves.
      EXPECT_EQ(stats.res.expr_reuse_hits, reference.res.expr_reuse_hits);
    }
  }
}

TEST_F(ClauseLearningStream, ParallelWavesReuseAcrossWaves) {
  // A parallel wave screens against the wave-start watermark: within a wave
  // the dumps are independent, and the next wave over the same module reaps
  // the promotions.
  ResRuntime runtime;
  TriageDaemonOptions options = Options(2, 3);
  std::map<uint64_t, TriageReport> reports;
  options.on_report = [&](const TriageReport& r) { reports[r.index] = r; };
  TriageDaemon daemon(&runtime, options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(daemon.Submit(module_, dump_).ok());
  }
  daemon.Pump();
  const TriageDaemonStats first = daemon.stats();
  EXPECT_EQ(first.waves, 1u);
  EXPECT_GT(first.clause_promotions, 0u);
  EXPECT_EQ(first.res.solver.promoted_clause_hits, 0u)
      << "wave-start watermark was empty; nothing to reuse yet";

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(daemon.Submit(module_, dump_).ok());
  }
  daemon.Shutdown();
  const TriageDaemonStats both = daemon.stats();
  EXPECT_EQ(both.waves, 2u);
  EXPECT_EQ(both.clause_promotions, first.clause_promotions)
      << "identical dumps cannot contribute new module-level cores";
  EXPECT_GT(both.res.solver.promoted_clause_hits, 0u)
      << "the warm wave re-derived conflicts the first wave promoted";
  EXPECT_GT(both.res.solver.promoted_cache_hits,
            first.res.solver.promoted_cache_hits)
      << "the warm wave re-solved constraint sets the first wave promoted";
  ASSERT_EQ(reports.size(), 6u);
  for (const auto& [seq, report] : reports) {
    ExpectSameVerdict(report, solo_, "seq=" + std::to_string(seq));
  }
}

TEST_F(ClauseLearningStream, CrossTaskReuseOffIsColdEveryTime) {
  const std::vector<Sub> stream(2, Sub{&module_, &dump_});
  TriageDaemonOptions options = Options(1, 2);
  options.triage.cross_task_reuse = false;
  TriageDaemonStats stats;
  ExpectMatchesSolo(RunDaemonStream(stream, options, &stats), stream,
                    res_options_, "reuse=off");
  EXPECT_EQ(stats.clause_promotions, 0u);
  EXPECT_EQ(stats.cache_promotions, 0u);
  EXPECT_EQ(stats.res.solver.promoted_clause_hits, 0u);
}

}  // namespace
}  // namespace res
