// Batch triage must be observationally invisible: for any dump-level
// parallelism, TriageService::RunBatch's verdicts
// (bucket, rating, root-cause signature) must be byte-identical to solo
// ResBucketer / ResExploitabilityRater runs over the same dumps with the
// same options — cross-task reuse through the shared ResRuntime changes
// cost, never output. The promotion counters themselves must be
// deterministic: pure functions of (dumps, options, batch configuration).
// See src/res/runtime.h for the promotion protocol and
// docs/ARCHITECTURE.md §6 for the contract.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/triage/triage_service.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

namespace res {
namespace {

struct SoloVerdict {
  std::string bucket;
  Exploitability rating = Exploitability::kUnknown;
};

// The pre-runtime public API: fresh self-contained engines, no sharing.
SoloVerdict Solo(const Module& module, const Coredump& dump,
                 const ResOptions& options) {
  SoloVerdict v;
  v.bucket = ResBucketer(module, options).BucketFor(dump);
  v.rating = ResExploitabilityRater(module, options).Rate(dump);
  return v;
}

void ExpectReportsMatchSolo(const std::vector<TriageReport>& reports,
                            const std::vector<SoloVerdict>& solo,
                            const char* label) {
  ASSERT_EQ(reports.size(), solo.size()) << label;
  for (size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].res_bucket, solo[i].bucket)
        << label << ": dump " << i << " bucket diverged from solo";
    EXPECT_EQ(reports[i].res_rating, solo[i].rating)
        << label << ": dump " << i << " rating diverged from solo";
  }
}

TEST(TriageBatchTest, BatchMatchesSoloAcrossParallelism) {
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

    const ResOptions res_options;  // defaults
    std::vector<SoloVerdict> solo;
    for (const Coredump& dump : dumps) {
      solo.push_back(Solo(module, dump, res_options));
    }

    for (size_t parallel : {1u, 2u}) {
      ResRuntime runtime;
      TriageOptions options;
      options.res = res_options;
      options.max_parallel_dumps = parallel;
      TriageService service(&runtime, module, options);
      std::string label = std::string(corpus.workload) + "/parallel=" +
                          std::to_string(parallel);
      ExpectReportsMatchSolo(service.RunBatch(dumps), solo, label.c_str());
      // A second batch on the now-warm runtime consults the facts the
      // first batch promoted — output must still be byte-identical.
      ExpectReportsMatchSolo(service.RunBatch(dumps), solo,
                             (label + "/warm").c_str());
    }
  }
}

// The clause-learning workload from tests/clause_sharing_test.cc: full
// synthesis over the 4-worker interleaving space learns real UNSAT cores.
class SameModuleBatch : public ::testing::Test {
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

  TriageStats RunSameDumpBatch(size_t copies, size_t parallel,
                               ResRuntime* runtime,
                               std::vector<TriageReport>* reports = nullptr) {
    std::vector<const Coredump*> dumps(copies, &dump_);
    TriageOptions options;
    options.res = res_options_;
    options.max_parallel_dumps = parallel;
    TriageService service(runtime, module_, options);
    TriageStats stats;
    std::vector<TriageReport> out = service.RunBatch(dumps, &stats);
    if (reports != nullptr) {
      *reports = std::move(out);
    }
    return stats;
  }

  Module module_;
  Coredump dump_;
  ResOptions res_options_;
};

TEST_F(SameModuleBatch, PromotionCountersDeterministicAndPositive) {
  // Serial batches: task i's engine sees the promotions of tasks 0..i-1, so
  // identical dumps must show genuine cross-task reuse — and the promotion
  // counters must repeat exactly on a fresh runtime.
  const SoloVerdict solo = Solo(module_, dump_, res_options_);
  TriageStats reference;
  for (int repeat = 0; repeat < 2; ++repeat) {
    ResRuntime runtime;
    std::vector<TriageReport> reports;
    TriageStats stats = RunSameDumpBatch(/*copies=*/3, /*parallel=*/1,
                                         &runtime, &reports);
    for (const TriageReport& report : reports) {
      EXPECT_EQ(report.res_bucket, solo.bucket) << "repeat=" << repeat;
      EXPECT_EQ(report.res_rating, solo.rating) << "repeat=" << repeat;
    }
    EXPECT_GT(stats.clause_promotions, 0u) << "repeat=" << repeat;
    EXPECT_GT(stats.cache_promotions, 0u) << "repeat=" << repeat;
    EXPECT_GT(stats.res.solver.promoted_clause_hits, 0u)
        << "repeat=" << repeat
        << ": later tasks re-derived conflicts instead of reusing them";
    EXPECT_GT(stats.res.expr_reuse_hits, 0u)
        << "repeat=" << repeat
        << ": identical dumps must re-intern earlier tasks' variables";
    if (repeat == 0) {
      reference = stats;
    } else {
      EXPECT_EQ(stats.clause_promotions, reference.clause_promotions);
      EXPECT_EQ(stats.cache_promotions, reference.cache_promotions);
      EXPECT_EQ(stats.res.solver.promoted_clause_hits,
                reference.res.solver.promoted_clause_hits);
      // No longer a racy pool gauge — a commit-order counter against the
      // construction watermark, deterministic in serial batches.
      EXPECT_EQ(stats.res.expr_reuse_hits, reference.res.expr_reuse_hits);
    }
  }
}

TEST_F(SameModuleBatch, ParallelBatchesReuseAcrossBatches) {
  // Parallel batches snapshot the promoted store at batch start: within a
  // batch the tasks are independent (deterministic watermark), and the
  // *next* batch over the same module reaps the promotions.
  const SoloVerdict solo = Solo(module_, dump_, res_options_);
  ResRuntime runtime;
  std::vector<TriageReport> first_reports;
  TriageStats first = RunSameDumpBatch(/*copies=*/3, /*parallel=*/2, &runtime,
                                       &first_reports);
  EXPECT_GT(first.clause_promotions, 0u);
  EXPECT_EQ(first.res.solver.promoted_clause_hits, 0u)
      << "batch-start watermark was empty; nothing to reuse yet";

  std::vector<TriageReport> second_reports;
  TriageStats second = RunSameDumpBatch(/*copies=*/3, /*parallel=*/2,
                                        &runtime, &second_reports);
  EXPECT_EQ(second.clause_promotions, 0u)
      << "identical dumps cannot contribute new module-level cores";
  EXPECT_GT(second.res.solver.promoted_clause_hits, 0u)
      << "the warm batch re-derived conflicts the first batch promoted";
  EXPECT_GT(second.res.solver.promoted_cache_hits, 0u)
      << "the warm batch re-solved constraint sets the first batch promoted";
  for (const std::vector<TriageReport>* reports :
       {&first_reports, &second_reports}) {
    for (const TriageReport& report : *reports) {
      EXPECT_EQ(report.res_bucket, solo.bucket);
      EXPECT_EQ(report.res_rating, solo.rating);
    }
  }
}

TEST_F(SameModuleBatch, CrossTaskReuseOffIsColdEveryTime) {
  ResRuntime runtime;
  std::vector<const Coredump*> dumps(2, &dump_);
  TriageOptions options;
  options.res = res_options_;
  options.cross_task_reuse = false;
  TriageService service(&runtime, module_, options);
  TriageStats stats;
  std::vector<TriageReport> reports = service.RunBatch(dumps, &stats);
  EXPECT_EQ(stats.clause_promotions, 0u);
  EXPECT_EQ(stats.cache_promotions, 0u);
  EXPECT_EQ(stats.res.solver.promoted_clause_hits, 0u);
  const SoloVerdict solo = Solo(module_, dump_, res_options_);
  for (const TriageReport& report : reports) {
    EXPECT_EQ(report.res_bucket, solo.bucket);
    EXPECT_EQ(report.res_rating, solo.rating);
  }
}

}  // namespace
}  // namespace res
