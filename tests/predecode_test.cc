// Golden VM signatures and wire-format tests for the execution substrate
// (docs/ARCHITECTURE.md §12).
//
// Each golden line hashes everything observable about VM runs — traps, step
// counts, block traces, consumed inputs, recorder streams and serialized
// coredumps — over the workload corpus under every scheduler policy, the
// scaling modules, an invalid opcode, a scenario sweep and a replayed
// suffix. The lines were generated when the VM still had a second, classic
// tree-walking interpreter beside the predecoded one, and both engines
// produced every line, so they pin the VM's semantics rather than one
// implementation of them: a mismatch means the VM changed what it executes
// or what it freezes. On a mismatch the test prints the line the current VM
// would check in; update the table only after reviewing why the runs moved.
//
// The RESMOD1 binary module format gets the same treatment as the coredump
// codec: byte-identical round-trips for accepted inputs, kDataLoss (never a
// crash) for truncated or corrupted bytes.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "src/coredump/coredump.h"
#include "src/ir/module_serialize.h"
#include "src/ir/printer.h"
#include "src/replay/replay.h"
#include "src/res/res_api.h"
#include "src/res/runtime.h"
#include "src/scenario/scenario.h"
#include "src/support/hash.h"
#include "src/support/string_util.h"
#include "src/vm/predecode.h"
#include "src/vm/scheduler_spec.h"
#include "src/vm/vm.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"
#include "tests/ground_truth_recorder.h"

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

// `<case> <summary> <hash of text>`.
std::string GoldenLine(const char* name, const std::string& summary,
                       const std::string& text) {
  return StrFormat("%s %s %016" PRIx64, name, summary.c_str(),
                   FnvHashString(text));
}

// Everything observable about one VM run, rendered to one string. Includes
// the serialized coredump bytes on failure traps — the strongest
// byte-identity statement the repo has.
struct VmSignature {
  RunResult run;
  std::string text;
};

// `slice` 0 runs the VM with Run(); k > 0 drives it with RunBounded(k)
// calls to the same end.
VmSignature RunSignature(const Module& module, const std::string& policy,
                         uint64_t seed, const std::vector<int64_t>& inputs,
                         uint64_t slice = 0) {
  VmSignature out;
  std::string& sig = out.text;
  auto spec = ParseSchedulerSpec(policy);
  if (!spec.ok()) {
    sig = "bad spec: " + spec.status().ToString();
    return out;
  }
  auto scheduler = MakeScheduler(spec.value(), seed);
  if (!scheduler.ok()) {
    sig = "bad scheduler: " + scheduler.status().ToString();
    return out;
  }
  VmOptions options;
  options.max_steps = 200000;
  Vm vm(&module, options);
  vm.set_scheduler(scheduler.value().get());
  QueueInputProvider provider(/*fallback=*/0);
  provider.PushAll(0, inputs);
  vm.set_input_provider(&provider);
  GroundTruthRecorder recorder;
  vm.set_recorder(&recorder);
  if (Status s = vm.Reset(); !s.ok()) {
    sig = "reset failed: " + s.ToString();
    return out;
  }
  RunResult run;
  if (slice == 0) {
    run = vm.Run();
  } else {
    do {
      run = vm.RunBounded(slice);
    } while (run.outcome == RunOutcome::kStepLimit &&
             run.steps < options.max_steps);
  }
  out.run = run;

  sig += StrFormat("outcome=%d steps=%llu\n", static_cast<int>(run.outcome),
                   static_cast<unsigned long long>(run.steps));
  sig += StrFormat("trap=%s thread=%u pc=%s addr=%llu msg=%s\n",
                   std::string(TrapKindName(run.trap.kind)).c_str(),
                   run.trap.thread, module.PcToString(run.trap.pc).c_str(),
                   static_cast<unsigned long long>(run.trap.address),
                   run.trap.message.c_str());
  sig += StrFormat("block_trace=%zu\n", recorder.block_trace().size());
  for (const BlockTraceEntry& e : recorder.block_trace()) {
    sig += StrFormat("  t%u %u.%u\n", e.thread, e.block.func, e.block.block);
  }
  sig += StrFormat("inputs=%zu\n", recorder.inputs().size());
  for (const InputRecord& in : recorder.inputs()) {
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
  return out;
}

// `<trap> <steps>` of one run.
std::string RunSummary(const RunResult& run) {
  return StrFormat("%s %llu", std::string(TrapKindName(run.trap.kind)).c_str(),
                   static_cast<unsigned long long>(run.steps));
}

// Golden lines. A single run's line is `<case> <trap> <steps> <hash>`; a
// workload's covers its 5 policies x 3 seeds as `<workload> <trapped runs>
// <total steps> <hash>`; the sweep's is `sweep <crashes> <fixtures> <hash>`.
constexpr const char* kCorpusGolden[] = {
    "racy_counter 4 877 8769c19b2c5f3f75",
    "atomicity_violation 6 455 f46a9c89758515d6",
    "order_violation 14 173 94fa59388ec5f45b",
    "buffer_overflow 15 270 eb58c1168bce203e",
    "use_after_free 15 285 83d15c612b91da99",
    "double_free 15 225 6284cf2257cffad8",
    "div_by_zero_input 15 120 88af520c882e71f6",
    "semantic_assert 15 165 7be43eb26f1e7bea",
    "deadlock 6 378 616f7b156d4e8c32",
    "locked_counter_input_bug 15 232 f02bcede5f3b491e",
};
constexpr const char* kScalingGolden[] = {
    "long_execution_2000 none 49022 831bdaf6413fffc6",
    "hash_chain_spilled assert_failure 29 680490a9159bb814",
    "hash_chain_unspilled assert_failure 27 da0a3c38d325db79",
    "root_cause_distance_64 none 460 9c00c53fa3447925",
};
constexpr const char* kInvalidOpcodeGolden =
    "invalid_opcode invalid_opcode 1 e0a7f85630d580c5";
constexpr const char* kSweepGolden = "sweep 4 2 0d8b9750adcad8a6";
constexpr const char* kReplayGolden =
    "replay_div_by_zero_input div_by_zero 8 9344a3d73c898a17";

TEST(VmGoldenTest, WorkloadCorpusUnderEveryPolicy) {
  const std::vector<WorkloadSpec>& specs = AllWorkloads();
  ASSERT_EQ(specs.size(), std::size(kCorpusGolden));
  for (size_t i = 0; i < specs.size(); ++i) {
    const WorkloadSpec& spec = specs[i];
    Module module = spec.build();
    std::string text;
    size_t trapped = 0;
    uint64_t steps = 0;
    for (const char* policy : kPolicies) {
      for (uint64_t seed : {1u, 7u, 23u}) {
        VmSignature sig =
            RunSignature(module, policy, seed, spec.channel0_inputs);
        trapped += sig.run.outcome == RunOutcome::kTrapped ? 1 : 0;
        steps += sig.run.steps;
        text += sig.text;
      }
    }
    EXPECT_EQ(GoldenLine(spec.name.c_str(),
                         StrFormat("%zu %llu", trapped,
                                   static_cast<unsigned long long>(steps)),
                         text),
              kCorpusGolden[i]);
  }
}

TEST(VmGoldenTest, RunBoundedSlicesMatchRun) {
  // The fault injector runs to RunBounded(flip_after_steps) and then on,
  // and the suffix debugger steps with RunBounded(1): a run sliced into
  // bounded calls must be the run, whatever the slice length and policy.
  for (const WorkloadSpec& spec : AllWorkloads()) {
    Module module = spec.build();
    for (const char* policy : kPolicies) {
      for (uint64_t seed : {1u, 7u, 23u}) {
        VmSignature whole =
            RunSignature(module, policy, seed, spec.channel0_inputs);
        for (uint64_t slice : {1u, 3u, 7u, 17u}) {
          VmSignature sliced = RunSignature(module, policy, seed,
                                            spec.channel0_inputs, slice);
          EXPECT_TRUE(sliced.text == whole.text)
              << spec.name << " " << policy << " seed " << seed
              << " slice " << slice << ": " << RunSummary(sliced.run)
              << " vs " << RunSummary(whole.run);
        }
      }
    }
  }
}

TEST(VmGoldenTest, ScalingModules) {
  // The deep-loop and hash-mix generators: long single-thread hot paths,
  // exactly where a dispatch bug would hide from the tiny corpus programs.
  const Module modules[] = {BuildLongExecution(2000), BuildHashChain(true),
                            BuildHashChain(false), BuildRootCauseDistance(64)};
  static_assert(std::size(modules) == std::size(kScalingGolden));
  const char* names[] = {"long_execution_2000", "hash_chain_spilled",
                         "hash_chain_unspilled", "root_cause_distance_64"};
  for (size_t i = 0; i < std::size(modules); ++i) {
    VmSignature sig = RunSignature(modules[i], "rr:quantum=16", 1, {42});
    EXPECT_EQ(GoldenLine(names[i], RunSummary(sig.run), sig.text),
              kScalingGolden[i]);
  }
}

TEST(VmGoldenTest, InvalidOpcodeTrapsHonestly) {
  // An opcode byte outside the enum must raise kInvalidOpcode (not a
  // misleading memory fault), and the dump must survive the coredump codec.
  Module module = BuildSemanticAssert();
  Function* fn = module.mutable_function(module.entry());
  ASSERT_FALSE(fn->blocks.empty());
  ASSERT_FALSE(fn->blocks[0].instructions.empty());
  fn->blocks[0].instructions[0].op = static_cast<Opcode>(200);

  Vm vm(&module);
  ASSERT_TRUE(vm.Reset().ok());
  RunResult run = vm.Run();
  ASSERT_EQ(run.outcome, RunOutcome::kTrapped);
  EXPECT_EQ(run.trap.kind, TrapKind::kInvalidOpcode);
  EXPECT_EQ(run.trap.pc, (Pc{module.entry(), 0, 0}));
  EXPECT_EQ(run.trap.message, "invalid opcode 200");

  std::vector<uint8_t> bytes = SerializeCoredump(CaptureCoredump(vm));
  auto dump = DeserializeCoredump(bytes);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_EQ(dump.value().trap.kind, TrapKind::kInvalidOpcode);

  VmSignature sig = RunSignature(module, "rr:quantum=16", 1, {});
  EXPECT_EQ(GoldenLine("invalid_opcode", RunSummary(sig.run), sig.text),
            kInvalidOpcodeGolden);
}

TEST(VmGoldenTest, SweepDumpBlobs) {
  // The fixture corpus and its manifest are downstream of these bytes.
  ScenarioGrid grid;
  grid.workloads = {"racy_counter"};
  grid.policies = {"rr:quantum=1", "random:seed=1,permille=350"};
  grid.seeds_per_cell = 4;
  grid.max_steps_per_run = 20000;

  auto sweep = RunSweep(grid);
  ASSERT_TRUE(sweep.ok());
  const SweepResult& result = sweep.value();
  ASSERT_EQ(result.fixtures.size(), result.dump_blobs.size());
  std::string text;
  for (size_t i = 0; i < result.fixtures.size(); ++i) {
    const FixtureRecord& f = result.fixtures[i];
    text += StrFormat("%s %s seed=%llu steps=%llu\n", f.workload.c_str(),
                      f.policy.c_str(),
                      static_cast<unsigned long long>(f.seed),
                      static_cast<unsigned long long>(f.steps));
    text.append(result.dump_blobs[i].begin(), result.dump_blobs[i].end());
  }
  EXPECT_EQ(GoldenLine("sweep",
                       StrFormat("%llu %zu",
                                 static_cast<unsigned long long>(
                                     result.stats.crashes),
                                 result.fixtures.size()),
                       text),
            kSweepGolden);
}

TEST(VmGoldenTest, ReplayedDump) {
  const WorkloadSpec& spec = WorkloadByName("div_by_zero_input");
  Module module = spec.build();
  FailureRunOptions run_options;
  run_options.require_live_peers = spec.requires_live_peers;
  auto run = RunToFailure(module, spec, run_options);
  ASSERT_TRUE(run.ok());
  ResEngine engine(module, run.value().dump);
  ResResult result = engine.Run();
  ASSERT_TRUE(result.suffix.has_value() && result.suffix->verified);

  // A VM that builds its own lowering, and one given a shared lowering.
  const PredecodedModule pm = PredecodedModule::Build(module);
  const PredecodedModule* lowerings[] = {nullptr, &pm};
  for (const PredecodedModule* lowering : lowerings) {
    auto replay = ReplaySuffix(module, run.value().dump, *result.suffix,
                               engine.pool(), lowering);
    ASSERT_TRUE(replay.ok());
    EXPECT_TRUE(replay.value().trap_matches);
    EXPECT_TRUE(replay.value().state_matches);
    std::vector<uint8_t> bytes =
        SerializeCoredump(replay.value().replay_dump);
    EXPECT_EQ(GoldenLine("replay_div_by_zero_input",
                         RunSummary(replay.value().run),
                         std::string(bytes.begin(), bytes.end())),
              kReplayGolden)
        << "shared lowering=" << (lowering != nullptr);
  }
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
