// Dispatch-equivalence and wire-format tests for the fast execution
// substrate (docs/ARCHITECTURE.md §12).
//
// The predecoded direct-threaded engine must be observationally
// byte-identical to the classic tree-walking interpreter — same traps, same
// step counts, same block traces, same recorder streams, same serialized
// coredumps — across the workload corpus, every scheduler policy, and
// multithreaded interleavings. The classic engine is the differential
// oracle; any divergence is a bug in the lowering or the threaded loop.
//
// The RESMOD1 binary module format gets the same treatment as the coredump
// codec: byte-identical round-trips for accepted inputs, kDataLoss (never a
// crash) for truncated or corrupted bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/coredump/coredump.h"
#include "src/ir/module_serialize.h"
#include "src/ir/printer.h"
#include "src/replay/replay.h"
#include "src/res/res_api.h"
#include "src/res/runtime.h"
#include "src/scenario/scenario.h"
#include "src/support/string_util.h"
#include "src/vm/predecode.h"
#include "src/vm/scheduler_spec.h"
#include "src/vm/vm.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

namespace res {
namespace {

// The schedule-diverse policy set: one spec per registered preemptive
// policy family, aggressive enough to exercise kSpawn/kLock/kJoin
// interleavings on the multithreaded corpus entries.
const char* const kPolicies[] = {
    "rr:quantum=1",
    "rr:quantum=16",
    "random:seed=1,permille=350",
    "pct:seed=1,depth=3,steps=64",
    "delay:seed=1,permille=300,max_delay=3",
};

// Everything observable about one VM run, rendered to one string so a
// mismatch diff names the diverging facet. Includes the serialized coredump
// bytes on failure traps — the strongest byte-identity statement the repo
// has.
std::string RunSignature(const Module& module, const std::string& policy,
                         uint64_t seed, const std::vector<int64_t>& inputs,
                         bool predecode) {
  auto spec = ParseSchedulerSpec(policy);
  if (!spec.ok()) {
    return "bad spec: " + spec.status().ToString();
  }
  auto scheduler = MakeScheduler(spec.value(), seed);
  if (!scheduler.ok()) {
    return "bad scheduler: " + scheduler.status().ToString();
  }
  VmOptions options;
  options.predecode = predecode;
  options.record_block_trace = true;
  options.record_consumed_inputs = true;
  options.max_steps = 200000;
  Vm vm(&module, options);
  vm.set_scheduler(scheduler.value().get());
  QueueInputProvider provider(/*fallback=*/0);
  provider.PushAll(0, inputs);
  vm.set_input_provider(&provider);
  FullMemoryRecorder recorder;
  vm.set_recorder(&recorder);
  if (Status s = vm.Reset(); !s.ok()) {
    return "reset failed: " + s.ToString();
  }
  RunResult run = vm.Run();

  std::string sig;
  sig += StrFormat("outcome=%d steps=%llu\n", static_cast<int>(run.outcome),
                   static_cast<unsigned long long>(run.steps));
  sig += StrFormat("trap=%s thread=%u pc=%s addr=%llu msg=%s\n",
                   std::string(TrapKindName(run.trap.kind)).c_str(),
                   run.trap.thread, module.PcToString(run.trap.pc).c_str(),
                   static_cast<unsigned long long>(run.trap.address),
                   run.trap.message.c_str());
  sig += StrFormat("block_trace=%zu\n", vm.block_trace().size());
  for (const BlockTraceEntry& e : vm.block_trace()) {
    sig += StrFormat("  t%u %u.%u\n", e.thread, e.block.func, e.block.block);
  }
  sig += StrFormat("inputs=%zu\n", vm.consumed_inputs().size());
  for (const ConsumedInput& in : vm.consumed_inputs()) {
    sig += StrFormat("  t%u ch%lld = %lld\n", in.thread,
                     static_cast<long long>(in.channel),
                     static_cast<long long>(in.value));
  }
  sig += StrFormat("recorder_bytes=%zu mem_ops=%zu\n", recorder.LogBytes(),
                   recorder.memory_ops().size());
  for (const MemoryOpRecord& op : recorder.memory_ops()) {
    sig += StrFormat("  t%u %c 0x%llx = %lld\n", op.thread,
                     op.is_write ? 'W' : 'R',
                     static_cast<unsigned long long>(op.address),
                     static_cast<long long>(op.value));
  }
  if (run.outcome == RunOutcome::kTrapped) {
    // Byte-level identity of the frozen machine state.
    std::vector<uint8_t> dump = SerializeCoredump(CaptureCoredump(vm));
    sig += StrFormat("dump_bytes=%zu\n", dump.size());
    sig.append(dump.begin(), dump.end());
  }
  // The predecoded step counter is part of the contract: it must mirror
  // steps exactly on the predecoded engine and stay zero on the classic one.
  if (predecode ? vm.predecode_steps() != run.steps
                : vm.predecode_steps() != 0) {
    sig += StrFormat("BAD predecode_steps=%llu\n",
                     static_cast<unsigned long long>(vm.predecode_steps()));
  }
  return sig;
}

TEST(PredecodeDifferentialTest, CorpusTimesPoliciesIsByteIdentical) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    Module module = spec.build();
    for (const char* policy : kPolicies) {
      for (uint64_t seed : {1u, 7u, 23u}) {
        std::string classic =
            RunSignature(module, policy, seed, spec.channel0_inputs,
                         /*predecode=*/false);
        std::string predecoded =
            RunSignature(module, policy, seed, spec.channel0_inputs,
                         /*predecode=*/true);
        ASSERT_EQ(classic, predecoded)
            << spec.name << " under " << policy << " seed " << seed
            << " diverged from the classic oracle";
      }
    }
  }
}

TEST(PredecodeDifferentialTest, ScalingWorkloadsAgree) {
  // The deep-loop and hash-mix generators: long single-thread hot paths,
  // exactly where a dispatch bug would hide from the tiny corpus programs.
  for (Module module :
       {BuildLongExecution(2000), BuildHashChain(true), BuildHashChain(false),
        BuildRootCauseDistance(64)}) {
    std::string classic = RunSignature(module, "rr:quantum=16", 1, {42},
                                       /*predecode=*/false);
    std::string predecoded = RunSignature(module, "rr:quantum=16", 1, {42},
                                          /*predecode=*/true);
    ASSERT_EQ(classic, predecoded);
  }
}

TEST(PredecodeTest, OpIndexPcRoundTrip) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    Module module = spec.build();
    PredecodedModule pm = PredecodedModule::Build(module);
    ASSERT_EQ(pm.op_count(), module.TotalInstructionCount()) << spec.name;
    uint32_t expect_index = 0;
    for (FuncId f = 0; f < module.functions().size(); ++f) {
      const Function& fn = module.function(f);
      for (BlockId b = 0; b < fn.blocks.size(); ++b) {
        for (uint32_t i = 0; i < fn.blocks[b].instructions.size(); ++i) {
          Pc pc{f, b, i};
          uint32_t op_index = pm.OpIndexForPc(pc);
          ASSERT_EQ(op_index, expect_index) << module.PcToString(pc);
          ASSERT_EQ(pm.PcForOpIndex(op_index), pc) << module.PcToString(pc);
          // The lowered op preserves the opcode byte.
          ASSERT_EQ(pm.ops()[op_index].op(),
                    fn.blocks[b].instructions[i].op);
          ++expect_index;
        }
      }
    }
    // Out-of-range queries answer with the sentinels, not UB.
    EXPECT_EQ(pm.OpIndexForPc(Pc{static_cast<FuncId>(
                  module.functions().size()), 0, 0}),
              kNoOpIndex);
    EXPECT_EQ(pm.PcForOpIndex(static_cast<uint32_t>(pm.op_count())).func,
              kNoFunc);
  }
}

TEST(PredecodeTest, InvalidOpcodeTrapsHonestlyOnBothEngines) {
  // An opcode byte outside the enum must raise kInvalidOpcode (not a
  // misleading memory fault), identically on both engines, and the dump
  // must survive the coredump codec.
  Module module = BuildSemanticAssert();
  Function* fn = module.mutable_function(module.entry());
  ASSERT_FALSE(fn->blocks.empty());
  ASSERT_FALSE(fn->blocks[0].instructions.empty());
  fn->blocks[0].instructions[0].op = static_cast<Opcode>(200);

  for (bool predecode : {false, true}) {
    VmOptions options;
    options.predecode = predecode;
    Vm vm(&module, options);
    ASSERT_TRUE(vm.Reset().ok());
    RunResult run = vm.Run();
    ASSERT_EQ(run.outcome, RunOutcome::kTrapped) << "predecode=" << predecode;
    EXPECT_EQ(run.trap.kind, TrapKind::kInvalidOpcode);
    EXPECT_EQ(run.trap.pc, (Pc{module.entry(), 0, 0}));
    EXPECT_EQ(run.trap.message, "invalid opcode 200");

    std::vector<uint8_t> bytes = SerializeCoredump(CaptureCoredump(vm));
    auto dump = DeserializeCoredump(bytes);
    ASSERT_TRUE(dump.ok()) << dump.status().ToString();
    EXPECT_EQ(dump.value().trap.kind, TrapKind::kInvalidOpcode);
  }

  std::string classic = RunSignature(module, "rr:quantum=16", 1, {},
                                     /*predecode=*/false);
  std::string predecoded = RunSignature(module, "rr:quantum=16", 1, {},
                                        /*predecode=*/true);
  EXPECT_EQ(classic, predecoded);
}

TEST(PredecodeTest, CachedInModuleFacts) {
  ResRuntime runtime;
  Module module = BuildRacyCounter();
  std::shared_ptr<ModuleFacts> facts = runtime.FactsFor(module);
  ASSERT_NE(facts, nullptr);
  // The lowering rides the facts entry: built once, shared by every engine.
  EXPECT_EQ(facts->predecoded.op_count(), module.TotalInstructionCount());
  EXPECT_EQ(runtime.FactsFor(module), facts);

  // The cached lowering is usable as-is by a VM.
  Vm vm(&module);
  vm.set_predecoded(&facts->predecoded);
  ASSERT_TRUE(vm.Reset().ok());
  RunResult run = vm.Run();
  EXPECT_GT(run.steps, 0u);
  EXPECT_EQ(vm.predecode_steps(), run.steps);
}

TEST(PredecodeTest, ReplaySuffixOnPredecodedEngineMatches) {
  const WorkloadSpec& spec = WorkloadByName("div_by_zero_input");
  Module module = spec.build();
  FailureRunOptions run_options;
  run_options.require_live_peers = spec.requires_live_peers;
  auto run = RunToFailure(module, spec, run_options);
  ASSERT_TRUE(run.ok());
  ResEngine engine(module, run.value().dump);
  ResResult result = engine.Run();
  ASSERT_TRUE(result.suffix.has_value() && result.suffix->verified);

  auto classic =
      ReplaySuffix(module, run.value().dump, *result.suffix, engine.pool());
  ASSERT_TRUE(classic.ok());
  PredecodedModule pm = PredecodedModule::Build(module);
  auto predecoded = ReplaySuffix(module, run.value().dump, *result.suffix,
                                 engine.pool(), &pm);
  ASSERT_TRUE(predecoded.ok());
  EXPECT_TRUE(predecoded.value().trap_matches);
  EXPECT_TRUE(predecoded.value().state_matches);
  EXPECT_EQ(SerializeCoredump(classic.value().replay_dump),
            SerializeCoredump(predecoded.value().replay_dump));
}

TEST(PredecodeTest, SweepIsPredecodeInvariant) {
  // Flipping the sweep's engine must not change any minted byte — the
  // fixture corpus and its manifest are downstream of this invariance.
  ScenarioGrid grid;
  grid.workloads = {"racy_counter"};
  grid.policies = {"rr:quantum=1", "random:seed=1,permille=350"};
  grid.seeds_per_cell = 4;
  grid.max_steps_per_run = 20000;

  grid.predecode = true;
  auto on = RunSweep(grid);
  ASSERT_TRUE(on.ok());
  grid.predecode = false;
  auto off = RunSweep(grid);
  ASSERT_TRUE(off.ok());

  ASSERT_EQ(on.value().fixtures.size(), off.value().fixtures.size());
  EXPECT_EQ(on.value().stats.crashes, off.value().stats.crashes);
  EXPECT_EQ(on.value().dump_blobs, off.value().dump_blobs);
  for (size_t i = 0; i < on.value().fixtures.size(); ++i) {
    EXPECT_EQ(on.value().fixtures[i].dump_fingerprint,
              off.value().fixtures[i].dump_fingerprint);
    EXPECT_EQ(on.value().fixtures[i].steps, off.value().fixtures[i].steps);
  }
}

TEST(ModuleSerializeTest, CorpusRoundTripsByteIdentically) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    Module module = spec.build();
    std::vector<uint8_t> bytes = SerializeModule(module);
    ASSERT_TRUE(LooksLikeBinaryModule(bytes)) << spec.name;

    auto back = DeserializeModule(bytes);
    ASSERT_TRUE(back.ok()) << spec.name << ": " << back.status().ToString();
    ASSERT_TRUE(VerifyModule(back.value()).ok()) << spec.name;
    // Byte-identical re-serialization and structurally identical text: the
    // binary format is a faithful carrier, not a lossy cache.
    EXPECT_EQ(SerializeModule(back.value()), bytes) << spec.name;
    EXPECT_EQ(PrintModule(back.value()), PrintModule(module)) << spec.name;
    EXPECT_EQ(back.value().entry(), module.entry()) << spec.name;
  }
}

TEST(ModuleSerializeTest, TextFormatIsNeverMistakenForBinary) {
  Module module = BuildSemanticAssert();
  std::string text = PrintModule(module);
  std::vector<uint8_t> bytes(text.begin(), text.end());
  EXPECT_FALSE(LooksLikeBinaryModule(bytes));
  EXPECT_FALSE(LooksLikeBinaryModule({}));
}

TEST(ModuleSerializeTest, TruncationIsDataLossNeverACrash) {
  Module module = BuildUseAfterFree();
  std::vector<uint8_t> bytes = SerializeModule(module);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    auto result = DeserializeModule(prefix);
    EXPECT_FALSE(result.ok()) << "prefix of " << len << " bytes parsed";
  }
}

TEST(ModuleSerializeTest, CorruptionFuzzNeverCrashes) {
  Module module = BuildBufferOverflow();
  const std::vector<uint8_t> bytes = SerializeModule(module);
  // Deterministic LCG: no ambient randomness, failures reproduce.
  uint64_t rng = 0x9e3779b97f4a7c15ULL;
  auto next = [&rng]() {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  for (int round = 0; round < 2000; ++round) {
    std::vector<uint8_t> fuzzed = bytes;
    switch (next() % 4) {
      case 0:  // single bit flip
        fuzzed[next() % fuzzed.size()] ^= 1u << (next() % 8);
        break;
      case 1:  // byte overwrite
        fuzzed[next() % fuzzed.size()] = static_cast<uint8_t>(next());
        break;
      case 2:  // truncate
        fuzzed.resize(next() % fuzzed.size());
        break;
      default:  // append garbage
        for (uint64_t i = 0, n = 1 + next() % 16; i < n; ++i) {
          fuzzed.push_back(static_cast<uint8_t>(next()));
        }
        break;
    }
    auto result = DeserializeModule(fuzzed);
    if (result.ok()) {
      // Accepted bytes must re-serialize byte-identically — the codec's
      // canonical-form contract survives fuzzing.
      EXPECT_EQ(SerializeModule(result.value()), fuzzed) << "round " << round;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
          << "round " << round << ": " << result.status().ToString();
    }
  }
}

}  // namespace
}  // namespace res
