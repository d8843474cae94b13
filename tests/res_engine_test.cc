// Unit-level tests of the RES engine's components and behaviours beyond the
// end-to-end integration suite: snapshots, trap consistency, breadcrumb
// pruning, the minidump ablation, suffix artifacts and schedules.
#include <gtest/gtest.h>

#include "src/res/res_api.h"
#include "src/support/rng.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

namespace res {
namespace {

FailureRun FailWorkload(const char* name, const Module& module) {
  const WorkloadSpec& spec = WorkloadByName(name);
  FailureRunOptions options;
  options.require_live_peers = spec.requires_live_peers;
  auto run = RunToFailure(module, spec, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return run.ok() ? std::move(run).value() : FailureRun{};
}

TEST(SymSnapshotTest, BaseCaseIsExactCoredumpCopy) {
  Module module = BuildDivByZeroInput();
  FailureRun failure = FailWorkload("div_by_zero_input", module);
  ExprPool pool;
  SymSnapshot snap = SymSnapshot::FromCoredump(module, failure.dump, &pool);

  // Every register is the concrete dump value.
  ASSERT_EQ(snap.thread_count(), failure.dump.threads.size());
  const SymFrame& frame = snap.thread(0).frames.back();
  const Frame& dump_frame = failure.dump.threads[0].frames.back();
  for (size_t r = 0; r < frame.regs.size(); ++r) {
    ASSERT_TRUE(frame.regs[r]->is_const());
    EXPECT_EQ(frame.regs[r]->value, dump_frame.regs[r]);
  }
  // Memory reads come from the dump image.
  const GlobalVar* divisor = module.FindGlobal("divisor");
  const Expr* word = snap.ReadMem(&pool, divisor->address);
  ASSERT_NE(word, nullptr);
  EXPECT_TRUE(word->is_const());
  EXPECT_EQ(word->value, 0);
  // Unmapped words read as null.
  EXPECT_EQ(snap.ReadMem(&pool, 0x40), nullptr);
}

TEST(SymSnapshotTest, OverlayWinsOverDumpImage) {
  Module module = BuildDivByZeroInput();
  FailureRun failure = FailWorkload("div_by_zero_input", module);
  ExprPool pool;
  SymSnapshot snap = SymSnapshot::FromCoredump(module, failure.dump, &pool);
  const GlobalVar* divisor = module.FindGlobal("divisor");
  const Expr* var = pool.Var("havoc", VarOrigin::kHavocMem);
  snap.WriteMem(divisor->address, var);
  EXPECT_EQ(snap.ReadMem(&pool, divisor->address), var);
}

TEST(SymSnapshotTest, HeapQueries) {
  Module module = BuildUseAfterFree();
  FailureRun failure = FailWorkload("use_after_free", module);
  ExprPool pool;
  SymSnapshot snap = SymSnapshot::FromCoredump(module, failure.dump, &pool);
  ASSERT_FALSE(snap.heap().empty());
  const SnapAlloc* a = snap.FindAlloc(failure.dump.trap.address);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->state, SnapAllocState::kFreed);
}

TEST(SymSnapshotTest, CowOverlayMatchesPlainMapAcrossForks) {
  // Differential oracle: a CowOverlay driven through a random write/fork
  // sequence must read back exactly like an eagerly deep-copied
  // unordered_map at every fork — the old snapshot semantics.
  Rng rng(1234);
  ExprPool pool;
  std::vector<const Expr*> values;
  for (int i = 0; i < 8; ++i) {
    values.push_back(pool.Var("w" + std::to_string(i), VarOrigin::kHavocMem));
  }
  struct Branch {
    CowOverlay cow;
    std::unordered_map<uint64_t, const Expr*> oracle;
  };
  std::vector<Branch> branches(1);
  for (int step = 0; step < 2000; ++step) {
    Branch& b = branches[rng.NextBelow(branches.size())];
    uint64_t addr = 8 * rng.NextBelow(64);
    switch (rng.NextBelow(4)) {
      case 0:  // fork (bounded fan-out)
        if (branches.size() < 24) {
          branches.push_back(b);
          break;
        }
        [[fallthrough]];
      case 1:
      case 2: {  // write (shadows earlier layers)
        const Expr* v = values[rng.NextBelow(values.size())];
        b.cow.Set(addr, v);
        b.oracle[addr] = v;
        break;
      }
      default: {  // read
        auto it = b.oracle.find(addr);
        const Expr* expected = it == b.oracle.end() ? nullptr : it->second;
        ASSERT_EQ(b.cow.Find(addr), expected) << "addr=" << addr;
        break;
      }
    }
  }
  // Full sweep: every branch's overlay is bit-identical to its oracle.
  for (const Branch& b : branches) {
    ASSERT_EQ(b.cow.DistinctCount(), b.oracle.size());
    size_t visited = 0;
    b.cow.ForEach([&](uint64_t addr, const Expr* value) {
      ++visited;
      auto it = b.oracle.find(addr);
      ASSERT_NE(it, b.oracle.end());
      EXPECT_EQ(it->second, value);
    });
    EXPECT_EQ(visited, b.oracle.size());
  }
}

TEST(SymSnapshotTest, ForkedSnapshotsAreIsolated) {
  // Forked hypotheses share structure but must never observe each other's
  // writes — overlay, heap table, and threads all included.
  Module module = BuildUseAfterFree();
  FailureRun failure = FailWorkload("use_after_free", module);
  ExprPool pool;
  SymSnapshot parent = SymSnapshot::FromCoredump(module, failure.dump, &pool);
  const GlobalVar* g = module.globals().empty() ? nullptr : &module.globals()[0];
  ASSERT_NE(g, nullptr);

  SymSnapshot child = parent;  // the engine's fork
  const Expr* parent_word = parent.ReadMem(&pool, g->address);
  const Expr* havoc = pool.Var("havoc", VarOrigin::kHavocMem);
  child.WriteMem(g->address, havoc);
  EXPECT_EQ(child.ReadMem(&pool, g->address), havoc);
  EXPECT_EQ(parent.ReadMem(&pool, g->address), parent_word);

  // Heap: mutating the child clones the shared table, parent unaffected.
  ASSERT_FALSE(child.heap().empty());
  uint64_t base = child.heap().begin()->first;
  SnapAllocState parent_state = parent.heap().at(base).state;
  child.MutableHeap()[base].state = SnapAllocState::kUnallocated;
  EXPECT_EQ(child.heap().at(base).state, SnapAllocState::kUnallocated);
  EXPECT_EQ(parent.heap().at(base).state, parent_state);

  // Deep write bursts push frozen layers; the parent still reads through to
  // the dump image for untouched words.
  for (uint64_t i = 0; i < 200; ++i) {
    child.WriteMem(g->address + 8 * i, havoc);
  }
  EXPECT_EQ(parent.ReadMem(&pool, g->address), parent_word);
  EXPECT_EQ(child.ReadMem(&pool, g->address + 8 * 199), havoc);
}

TEST(ResEngineTest, IncrementalSolvingReportsReuseAndDedup) {
  Module module = BuildRootCauseDistance(16);
  WorkloadSpec spec = WorkloadByName("semantic_assert");
  auto run = RunToFailure(module, spec, {});
  ASSERT_TRUE(run.ok());
  ResOptions options;
  options.max_units = 64;
  ResEngine engine(module, run.value().dump, options);
  ResResult result = engine.Run();
  ASSERT_TRUE(result.suffix.has_value());
  // The deepening chain re-uses the parent hypothesis's solver state.
  EXPECT_GT(result.stats.solver.incremental_checks, 0u);
  EXPECT_GT(result.stats.solver.model_reuse_hits + result.stats.solver.cache_hits,
            0u);
  // Incremental propagation must visit far fewer constraints than the
  // quadratic re-check (sum over checks of the full vector length).
  EXPECT_LT(result.stats.solver.propagated_constraints,
            result.stats.solver.checks * result.stats.solver.checks);
}

TEST(TrapConsistencyTest, GenuineDumpsAreConsistent) {
  for (const char* name : {"div_by_zero_input", "semantic_assert",
                           "use_after_free", "double_free", "deadlock"}) {
    const WorkloadSpec& spec = WorkloadByName(name);
    Module module = spec.build();
    FailureRun failure = FailWorkload(name, module);
    ResEngine engine(module, failure.dump);
    std::string why;
    EXPECT_TRUE(engine.CheckTrapConsistency(&why)) << name << ": " << why;
  }
}

TEST(TrapConsistencyTest, FlippedAssertRegisterDetected) {
  Module module = BuildSemanticAssert();
  FailureRun failure = FailWorkload("semantic_assert", module);
  Coredump corrupted = failure.dump;
  // Flip the assert condition register to a non-zero value: the trap becomes
  // impossible — exactly the CPU-error signature of §3.2.
  const Function& fn = module.function(corrupted.trap.pc.func);
  const Instruction& assert_inst =
      fn.blocks[corrupted.trap.pc.block].instructions[corrupted.trap.pc.index];
  corrupted.threads[0].frames.back().regs[assert_inst.rc] = 1;

  ResEngine engine(module, corrupted);
  std::string why;
  EXPECT_FALSE(engine.CheckTrapConsistency(&why));
  ResResult result = engine.Run();
  EXPECT_TRUE(result.dump_inconsistent_at_trap);
  EXPECT_TRUE(result.hardware_error_suspected);
  EXPECT_EQ(result.stop, StopReason::kInconsistentDump);
}

TEST(ResEngineTest, ReachesProgramStartOnShortPrograms) {
  Module module = BuildDivByZeroInput();
  FailureRun failure = FailWorkload("div_by_zero_input", module);
  ResOptions options;
  options.stop_at_root_cause = false;  // synthesize the complete execution
  ResEngine engine(module, failure.dump, options);
  ResResult result = engine.Run();
  EXPECT_EQ(result.stop, StopReason::kReachedStart);
  ASSERT_TRUE(result.suffix.has_value());
  EXPECT_TRUE(result.suffix->verified);
  // The complete execution covers both of main's blocks.
  EXPECT_EQ(result.suffix->units.size(), 2u);
}

TEST(ResEngineTest, SuffixLengthBoundRespected) {
  Module module = BuildLongExecution(1000);
  const WorkloadSpec div_spec = [] {
    WorkloadSpec s = WorkloadByName("div_by_zero_input");
    s.name = "long";
    return s;
  }();
  WorkloadSpec spec = div_spec;
  spec.build = nullptr;
  FailureRunOptions opts;
  auto run = RunToFailure(module, spec, opts);
  ASSERT_TRUE(run.ok());
  ResOptions options;
  options.stop_at_root_cause = false;
  options.max_units = 6;
  ResEngine engine(module, run.value().dump, options);
  ResResult result = engine.Run();
  ASSERT_TRUE(result.suffix.has_value());
  EXPECT_LE(result.suffix->units.size(), 6u);
  EXPECT_EQ(result.stop, StopReason::kMaxDepth);
}

TEST(ResEngineTest, BreadcrumbsReduceExploration) {
  // On a branchy program, LBR + error-log breadcrumbs must not increase the
  // number of hypotheses explored (and typically shrink it).
  Module module = BuildLongExecution(64);
  WorkloadSpec spec = WorkloadByName("div_by_zero_input");
  auto run = RunToFailure(module, spec, {});
  ASSERT_TRUE(run.ok());

  ResOptions with;
  with.stop_at_root_cause = false;
  with.max_units = 24;
  ResOptions without = with;
  without.use_lbr = false;
  without.use_error_log = false;

  ResEngine engine_with(module, run.value().dump, with);
  ResEngine engine_without(module, run.value().dump, without);
  ResResult r_with = engine_with.Run();
  ResResult r_without = engine_without.Run();
  EXPECT_LE(r_with.stats.hypotheses_explored, r_without.stats.hypotheses_explored);
}

TEST(ResEngineTest, MinidumpModeStillFindsInputBug) {
  // The ablation: without the memory image RES loses precision but the
  // div-by-zero's operand chain is register/stack-local enough to resolve.
  Module module = BuildDivByZeroInput();
  FailureRun failure = FailWorkload("div_by_zero_input", module);
  Coredump mini = MakeMinidump(failure.dump);
  ResEngine engine(module, mini);
  ResResult result = engine.Run();
  EXPECT_FALSE(result.dump_inconsistent_at_trap);
  ASSERT_TRUE(result.suffix.has_value());
}

TEST(ResEngineTest, MinidumpLosesHardwareDetection) {
  // A memory bit flip is invisible without the memory image: minidump mode
  // must NOT claim hardware error (it cannot see the inconsistency).
  Module module = BuildSemanticAssert();
  auto dumped = RunWithMemoryFault(module, {3}, /*flip_after_steps=*/4,
                                   /*rng_seed=*/7);
  if (!dumped.ok()) {
    GTEST_SKIP() << "fault injection did not produce a crash with this seed";
  }
  Coredump mini = MakeMinidump(dumped.value());
  ResEngine engine(module, mini);
  ResResult result = engine.Run();
  EXPECT_FALSE(result.dump_inconsistent_at_trap);
}

TEST(SuffixTest, ScheduleCoversUnitsAndTrap) {
  Module module = BuildDivByZeroInput();
  FailureRun failure = FailWorkload("div_by_zero_input", module);
  ResEngine engine(module, failure.dump);
  ResResult result = engine.Run();
  ASSERT_TRUE(result.suffix.has_value());
  std::vector<ScheduleSlice> schedule =
      BuildSchedule(module, failure.dump, *result.suffix);
  uint64_t total = 0;
  for (const ScheduleSlice& s : schedule) {
    total += s.steps;
  }
  // All unit instructions + 1 trap step.
  EXPECT_EQ(total, result.suffix->TotalInstructions() + 1);
}

TEST(SuffixTest, ReadWriteSetsFocusAttention) {
  Module module = BuildLongExecution(50);
  WorkloadSpec spec = WorkloadByName("div_by_zero_input");
  auto run = RunToFailure(module, spec, {});
  ASSERT_TRUE(run.ok());
  FailureRun failure = std::move(run).value();
  ResEngine engine(module, failure.dump);
  ResResult result = engine.Run();
  ASSERT_TRUE(result.suffix.has_value());
  ReadWriteSets sets = ComputeReadWriteSets(*result.suffix);
  const GlobalVar* val = module.FindGlobal("divisor");
  EXPECT_TRUE(sets.writes.count(val->address) || sets.reads.count(val->address));
  // The focus set is far smaller than the full dump (paper §3.3).
  EXPECT_LT(sets.reads.size() + sets.writes.size(),
            failure.dump.memory.MappedWordCount());
}

TEST(SuffixTest, SuffixToStringMentionsEveryUnit) {
  Module module = BuildDivByZeroInput();
  FailureRun failure = FailWorkload("div_by_zero_input", module);
  ResEngine engine(module, failure.dump);
  ResResult result = engine.Run();
  ASSERT_TRUE(result.suffix.has_value());
  std::string text = SuffixToString(module, *result.suffix);
  size_t lines = std::count(text.begin(), text.end(), '\n');
  EXPECT_EQ(lines, result.suffix->units.size());
}

TEST(RootCauseTest, BucketSignatureStableAcrossStacks) {
  // Two UAF dumps with different crash stacks bucket identically.
  Module module = BuildUseAfterFree();
  WorkloadSpec spec = WorkloadByName("use_after_free");
  spec.channel0_inputs = {1};
  auto run_a = RunToFailure(module, spec, {});
  spec.channel0_inputs = {2};
  auto run_b = RunToFailure(module, spec, {});
  ASSERT_TRUE(run_a.ok());
  ASSERT_TRUE(run_b.ok());

  ResEngine engine_a(module, run_a.value().dump);
  ResEngine engine_b(module, run_b.value().dump);
  ResResult ra = engine_a.Run();
  ResResult rb = engine_b.Run();
  ASSERT_FALSE(ra.causes.empty());
  ASSERT_FALSE(rb.causes.empty());
  EXPECT_EQ(ra.causes.front().BucketSignature(module),
            rb.causes.front().BucketSignature(module));
  // While the WER-style stack signatures differ.
  EXPECT_NE(FaultingStackSignature(module, run_a.value().dump),
            FaultingStackSignature(module, run_b.value().dump));
}

TEST(RootCauseTest, DeadlockCycleFromDumpOnly) {
  Module module = BuildDeadlock();
  FailureRun failure = FailWorkload("deadlock", module);
  auto cause = DetectDeadlockCycle(module, failure.dump);
  ASSERT_TRUE(cause.has_value());
  EXPECT_EQ(cause->kind, RootCauseKind::kDeadlock);
  EXPECT_NE(cause->description.find("lock cycle"), std::string::npos);
}

TEST(RootCauseTest, ExploitabilityTaintOnOverflow) {
  Module module = BuildBufferOverflow();
  FailureRun failure = FailWorkload("buffer_overflow", module);
  ResEngine engine(module, failure.dump);
  ResResult result = engine.Run();
  ASSERT_FALSE(result.causes.empty());
  EXPECT_EQ(result.causes.front().kind, RootCauseKind::kBufferOverflow);
  EXPECT_TRUE(result.causes.front().input_tainted)
      << result.causes.front().description;
}

TEST(HashChainTest, SpilledInputReExecutesForward) {
  // §6 workaround: with the input spilled to memory, RES re-executes the
  // hash concretely and fully verifies the suffix.
  Module module = BuildHashChain(/*spill_input=*/true);
  WorkloadSpec spec = WorkloadByName("semantic_assert");
  spec.channel0_inputs = {42};
  spec.expected_trap = TrapKind::kAssertFailure;
  auto run = RunToFailure(module, spec, {});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ResOptions options;
  options.stop_at_root_cause = false;
  ResEngine engine(module, run.value().dump, options);
  ResResult result = engine.Run();
  ASSERT_TRUE(result.suffix.has_value());
  EXPECT_TRUE(result.suffix->verified);
  EXPECT_EQ(result.stop, StopReason::kReachedStart);
}

TEST(HashChainTest, UnspilledInputBlocksInversion) {
  // Without the spill, reversing the hash requires inverting the mix: the
  // solver answers UNKNOWN and the suffix stays unverified (but RES must
  // not wrongly call it a hardware error).
  // A large crashing input so the solver's local search cannot stumble on
  // the preimage; inverting the mix is the only way, and it cannot.
  Module module = BuildHashChain(/*spill_input=*/false, 77777777777);
  WorkloadSpec spec = WorkloadByName("semantic_assert");
  spec.channel0_inputs = {77777777777};
  auto run = RunToFailure(module, spec, {});
  ASSERT_TRUE(run.ok());
  ResOptions options;
  options.stop_at_root_cause = false;
  ResEngine engine(module, run.value().dump, options);
  ResResult result = engine.Run();
  ASSERT_TRUE(result.suffix.has_value());
  EXPECT_FALSE(result.suffix->verified);
  EXPECT_GT(result.stats.unknown_kept, 0u);
}

}  // namespace
}  // namespace res
