// Baselines (forward execution synthesis) and workload-corpus sanity.
#include <gtest/gtest.h>

#include "src/baselines/forward_synthesis.h"
#include "src/ir/verifier.h"
#include "src/res/reverse_engine.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

namespace res {
namespace {

TEST(WorkloadsTest, EveryWorkloadFailsAsSpecified) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    Module module = spec.build();
    ASSERT_TRUE(VerifyModule(module).ok()) << spec.name;
    FailureRunOptions options;
    options.require_live_peers = spec.requires_live_peers;
    auto run = RunToFailure(module, spec, options);
    ASSERT_TRUE(run.ok()) << spec.name << ": " << run.status().ToString();
    EXPECT_EQ(run.value().dump.trap.kind, spec.expected_trap) << spec.name;
  }
}

TEST(WorkloadsTest, LongExecutionScalesPrefix) {
  // The loop actually runs `n` iterations: step counts grow linearly.
  WorkloadSpec spec = WorkloadByName("div_by_zero_input");
  uint64_t steps_small = 0;
  uint64_t steps_large = 0;
  for (uint64_t n : {100ull, 1000ull}) {
    Module module = BuildLongExecution(n);
    auto run = RunToFailure(module, spec, {});
    ASSERT_TRUE(run.ok());
    (n == 100 ? steps_small : steps_large) = run.value().run.steps;
  }
  EXPECT_GT(steps_large, 8 * steps_small);
}

TEST(WorkloadsTest, HashChainCrashesOnlyOnCollidingInput) {
  Module module = BuildHashChain(/*spill_input=*/true, /*crashing_input=*/42);
  WorkloadSpec spec = WorkloadByName("semantic_assert");
  spec.channel0_inputs = {41};  // different input: no crash
  auto no_crash = RunToFailure(module, spec, {});
  EXPECT_FALSE(no_crash.ok());
  spec.channel0_inputs = {42};
  auto crash = RunToFailure(module, spec, {});
  EXPECT_TRUE(crash.ok());
}

TEST(WorkloadsTest, RootCauseDistanceAddsBlocks) {
  Module near = BuildRootCauseDistance(0);
  Module far = BuildRootCauseDistance(16);
  EXPECT_GT(far.TotalInstructionCount(), near.TotalInstructionCount());
  EXPECT_TRUE(VerifyModule(near).ok());
  EXPECT_TRUE(VerifyModule(far).ok());
}

// --- Forward synthesis baseline. ---

Coredump DumpFor(const Module& module, const WorkloadSpec& spec) {
  auto run = RunToFailure(module, spec, {});
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return run.ok() ? std::move(run).value().dump : Coredump{};
}

TEST(ForwardSynthesisTest, FindsShortPath) {
  Module module = BuildDivByZeroInput();
  Coredump dump = DumpFor(module, WorkloadByName("div_by_zero_input"));
  ForwardSynthResult result = ForwardSynthesize(module, dump);
  EXPECT_TRUE(result.reached_failure);
  EXPECT_EQ(result.path_length_blocks, 2u);
}

TEST(ForwardSynthesisTest, CostGrowsWithExecutionLength) {
  WorkloadSpec spec = WorkloadByName("div_by_zero_input");
  size_t blocks_small = 0;
  size_t blocks_large = 0;
  for (uint64_t n : {50ull, 500ull}) {
    Module module = BuildLongExecution(n);
    Coredump dump = DumpFor(module, spec);
    ForwardSynthResult result = ForwardSynthesize(module, dump);
    ASSERT_TRUE(result.reached_failure) << "n=" << n;
    (n == 50 ? blocks_small : blocks_large) = result.blocks_executed;
  }
  EXPECT_GT(blocks_large, 5 * blocks_small);
}

TEST(ForwardSynthesisTest, ResCostStaysFlatOnSamePrograms) {
  // The paper's headline contrast, in miniature.
  WorkloadSpec spec = WorkloadByName("div_by_zero_input");
  uint64_t explored_small = 0;
  uint64_t explored_large = 0;
  for (uint64_t n : {50ull, 500ull}) {
    Module module = BuildLongExecution(n);
    Coredump dump = DumpFor(module, spec);
    ResEngine engine(module, dump);
    ResResult result = engine.Run();
    ASSERT_FALSE(result.causes.empty());
    (n == 50 ? explored_small : explored_large) =
        result.stats.hypotheses_explored;
  }
  // Flat: within 2x of each other regardless of a 10x execution length.
  EXPECT_LE(explored_large, 2 * explored_small + 4);
}

TEST(ForwardSynthesisTest, BudgetExhaustionReported) {
  Module module = BuildLongExecution(100000);
  FailureRunOptions options;
  options.max_steps_per_try = 5'000'000;  // the prefix alone is ~1.9M steps
  auto run = RunToFailure(module, WorkloadByName("div_by_zero_input"), options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Coredump dump = run.value().dump;
  ForwardSynthOptions fwd_options;
  fwd_options.max_blocks = 1000;  // far too small to walk the prefix
  ForwardSynthResult result = ForwardSynthesize(module, dump, fwd_options);
  EXPECT_FALSE(result.reached_failure);
  EXPECT_TRUE(result.budget_exhausted);
}

TEST(ForwardSynthesisTest, ThreadsUnsupported) {
  Module module = BuildRacyCounter();
  Coredump dump;  // unused before the support check
  ForwardSynthResult result = ForwardSynthesize(module, dump);
  EXPECT_TRUE(result.unsupported);
}

}  // namespace
}  // namespace res
