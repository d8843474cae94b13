// Incremental root-cause detection must be observationally invisible: with
// ResOptions::incremental_root_causes on or off, the engine's StopReason,
// synthesized suffix, root causes, and hardware verdict must be
// byte-identical — the full-rescan DetectRootCauses is the differential
// oracle the folded RootCauseContext is pinned to.
//
// What MAY differ between the modes is exactly the detector work economy:
// the last test pins the ResStats counters' direction (incremental scans
// far fewer units and reports the avoided rescans).
#include <gtest/gtest.h>

#include <string>

#include "src/res/res_api.h"
#include "src/support/string_util.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

namespace res {
namespace {

// Everything observable about an engine run, rendered to one string so a
// mismatch diff shows exactly which facet diverged (the signature of
// engine_golden_test.cc plus initial lock owners and cause details).
std::string RunSignature(const Module& module, const Coredump& dump,
                         ResOptions options, bool incremental,
                         ResStats* stats_out = nullptr) {
  options.incremental_root_causes = incremental;
  ResEngine engine(module, dump, options);
  ResResult result = engine.Run();
  if (stats_out != nullptr) {
    *stats_out = result.stats;
  }

  std::string sig;
  sig += StrFormat("stop=%s hw=%d inconsistent=%d explored=%llu\n",
                   std::string(StopReasonName(result.stop)).c_str(),
                   result.hardware_error_suspected ? 1 : 0,
                   result.dump_inconsistent_at_trap ? 1 : 0,
                   static_cast<unsigned long long>(
                       result.stats.hypotheses_explored));
  if (result.suffix.has_value()) {
    const SynthesizedSuffix& s = *result.suffix;
    sig += StrFormat("suffix units=%zu verified=%d\n", s.units.size(),
                     s.verified ? 1 : 0);
    sig += SuffixToString(module, s);
    sig += "constraints:\n";
    for (const Expr* c : s.constraints) {
      sig += ExprToString(*engine.pool(), c);
      sig += "\n";
    }
    sig += "lock_owners:\n";
    for (const auto& [mutex, owner] : s.initial_lock_owners) {
      sig += StrFormat("  0x%llx -> t%u\n",
                       static_cast<unsigned long long>(mutex), owner);
    }
  } else {
    sig += "suffix none\n";
  }
  sig += StrFormat("causes=%zu\n", result.causes.size());
  for (const RootCause& cause : result.causes) {
    sig += StrFormat("  %s | %s | taint=%d t%u/t%u | %s\n",
                     std::string(RootCauseKindName(cause.kind)).c_str(),
                     cause.BucketSignature(module).c_str(),
                     cause.input_tainted ? 1 : 0, cause.thread_a,
                     cause.thread_b, cause.description.c_str());
  }
  return sig;
}

void ExpectModeInvariant(const char* label, const Module& module,
                         const Coredump& dump, ResOptions options) {
  // The full-rescan oracle: the reference signature.
  std::string oracle =
      RunSignature(module, dump, options, /*incremental=*/false);
  std::string incremental =
      RunSignature(module, dump, options, /*incremental=*/true);
  EXPECT_EQ(oracle, incremental)
      << label << ": incremental detection diverged from the full-rescan oracle";
}

TEST(RootCauseIncrementalTest, WorkloadCorpusIsModeInvariant) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    Module module = spec.build();
    FailureRunOptions run_options;
    run_options.require_live_peers = spec.requires_live_peers;
    auto run = RunToFailure(module, spec, run_options);
    ASSERT_TRUE(run.ok()) << spec.name << ": " << run.status().ToString();
    ExpectModeInvariant(spec.name.c_str(), module, run.value().dump,
                        ResOptions{});
  }
}

TEST(RootCauseIncrementalTest, DeepSuffixChainIsModeInvariant) {
  // The depth-scaling workload: a long linear chain keeps the trap-operand
  // origin fold running across many appended units.
  Module module = BuildRootCauseDistance(48);
  WorkloadSpec spec = WorkloadByName("semantic_assert");
  auto run = RunToFailure(module, spec, {});
  ASSERT_TRUE(run.ok());
  ResOptions options;
  options.max_units = 128;
  ExpectModeInvariant("root_cause_distance_48", module, run.value().dump,
                      options);
}

TEST(RootCauseIncrementalTest, FullSynthesisIsModeInvariant) {
  // stop_at_root_cause=false: no per-node detection; it runs once on the
  // final suffix — the incremental context must be inert, not wrong.
  Module module = BuildDivByZeroInput();
  const WorkloadSpec& spec = WorkloadByName("div_by_zero_input");
  FailureRunOptions run_options;
  run_options.require_live_peers = spec.requires_live_peers;
  auto run = RunToFailure(module, spec, run_options);
  ASSERT_TRUE(run.ok());
  ResOptions options;
  options.stop_at_root_cause = false;
  ExpectModeInvariant("full_synthesis", module, run.value().dump, options);
}

TEST(RootCauseIncrementalTest, MinidumpModeIsModeInvariant) {
  // Minidumps drop the memory image; the detector screens must stay sound.
  Module module = BuildUseAfterFree();
  const WorkloadSpec& spec = WorkloadByName("use_after_free");
  auto run = RunToFailure(module, spec, {});
  ASSERT_TRUE(run.ok());
  Coredump mini = MakeMinidump(run.value().dump);
  ExpectModeInvariant("use_after_free_minidump", module, mini, ResOptions{});
}

TEST(RootCauseIncrementalTest, IncrementalDetectionSavesScans) {
  // The economy claim behind the whole design: at depth, incremental
  // detection visits an order of magnitude fewer units than rescan mode and
  // reports the avoided whole-suffix passes.
  Module module = BuildRootCauseDistance(48);
  WorkloadSpec spec = WorkloadByName("semantic_assert");
  auto run = RunToFailure(module, spec, {});
  ASSERT_TRUE(run.ok());
  ResOptions options;
  options.max_units = 128;
  ResStats inc_stats;
  ResStats rescan_stats;
  std::string a = RunSignature(module, run.value().dump, options,
                               /*incremental=*/true, &inc_stats);
  std::string b = RunSignature(module, run.value().dump, options,
                               /*incremental=*/false, &rescan_stats);
  ASSERT_EQ(a, b);
  EXPECT_GT(inc_stats.detector_rescans_avoided, 0u);
  EXPECT_EQ(rescan_stats.detector_rescans_avoided, 0u);
  EXPECT_GE(rescan_stats.detector_units_scanned,
            10 * inc_stats.detector_units_scanned)
      << "incremental=" << inc_stats.detector_units_scanned
      << " rescan=" << rescan_stats.detector_units_scanned;
}

}  // namespace
}  // namespace res
