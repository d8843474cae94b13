#include <gtest/gtest.h>

#include "src/coredump/coredump.h"
#include "src/ir/builder.h"
#include "src/ir/verifier.h"
#include "src/support/string_util.h"
#include "src/vm/vm.h"
#include "src/workloads/workloads.h"
#include "tests/ground_truth_recorder.h"

namespace res {
namespace {

// Builds main() that stores the result of `emit`(fb) into global "out".
template <typename Emit>
Module SingleExprProgram(Emit emit) {
  ModuleBuilder mb;
  mb.AddGlobal("out", 1);
  FunctionBuilder fb = mb.DefineFunction("main", 0);
  RegId r = emit(fb);
  fb.StoreGlobal("out", r);
  fb.Halt();
  fb.Finish();
  mb.SetEntry("main");
  Module m = std::move(mb).Build();
  EXPECT_TRUE(VerifyModule(m).ok());
  return m;
}

int64_t RunAndReadOut(const Module& m, InputProvider* inputs = nullptr) {
  Vm vm(&m);
  if (inputs != nullptr) {
    vm.set_input_provider(inputs);
  }
  EXPECT_TRUE(vm.Reset().ok());
  RunResult r = vm.Run();
  EXPECT_EQ(r.outcome, RunOutcome::kHalted) << r.trap.ToString(m);
  auto out = vm.memory().ReadWord(m.FindGlobal("out")->address);
  EXPECT_TRUE(out.ok());
  return out.value_or(0);
}

struct AluCase {
  Opcode op;
  int64_t a;
  int64_t b;
  int64_t expected;
  const char* name;
};

class AluSemanticsTest : public ::testing::TestWithParam<AluCase> {};

TEST_P(AluSemanticsTest, Computes) {
  const AluCase& c = GetParam();
  Module m = SingleExprProgram([&c](FunctionBuilder& fb) {
    RegId a = fb.Const(c.a);
    RegId b = fb.Const(c.b);
    return fb.Binary(c.op, a, b);
  });
  EXPECT_EQ(RunAndReadOut(m), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, AluSemanticsTest,
    ::testing::Values(
        AluCase{Opcode::kAdd, 2, 3, 5, "add"},
        AluCase{Opcode::kAdd, INT64_MAX, 1, INT64_MIN, "add_wraps"},
        AluCase{Opcode::kSub, 2, 3, -1, "sub"},
        AluCase{Opcode::kMul, -4, 3, -12, "mul"},
        AluCase{Opcode::kDivS, 7, 2, 3, "divs"},
        AluCase{Opcode::kDivS, -7, 2, -3, "divs_trunc"},
        AluCase{Opcode::kRemS, 7, 3, 1, "rems"},
        AluCase{Opcode::kRemS, -7, 3, -1, "rems_sign"},
        AluCase{Opcode::kAnd, 0b1100, 0b1010, 0b1000, "and"},
        AluCase{Opcode::kOr, 0b1100, 0b1010, 0b1110, "or"},
        AluCase{Opcode::kXor, 0b1100, 0b1010, 0b0110, "xor"},
        AluCase{Opcode::kShl, 1, 4, 16, "shl"},
        AluCase{Opcode::kShl, 1, 64, 1, "shl_mod64"},
        AluCase{Opcode::kShrL, -1, 60, 15, "shrl_logical"},
        AluCase{Opcode::kShrA, -16, 2, -4, "shra_arith"},
        AluCase{Opcode::kCmpEq, 4, 4, 1, "cmpeq"},
        AluCase{Opcode::kCmpNe, 4, 4, 0, "cmpne"},
        AluCase{Opcode::kCmpLtS, -1, 0, 1, "cmplts"},
        AluCase{Opcode::kCmpLtU, -1, 0, 0, "cmpltu_unsigned"},
        AluCase{Opcode::kCmpLeS, 3, 3, 1, "cmples"},
        AluCase{Opcode::kCmpLeU, 1, 2, 1, "cmpleu"}),
    [](const auto& info) { return info.param.name; });

TEST(VmSemanticsTest, SelectPicksByCondition) {
  Module m = SingleExprProgram([](FunctionBuilder& fb) {
    RegId c = fb.Const(1);
    RegId a = fb.Const(10);
    RegId b = fb.Const(20);
    return fb.Select(c, a, b);
  });
  EXPECT_EQ(RunAndReadOut(m), 10);
}

TEST(VmSemanticsTest, InputFeedsProgram) {
  Module m = SingleExprProgram([](FunctionBuilder& fb) { return fb.Input(3); });
  QueueInputProvider q;
  q.Push(3, 77);
  EXPECT_EQ(RunAndReadOut(m, &q), 77);
}

TEST(VmSemanticsTest, CallReturnsValue) {
  ModuleBuilder mb;
  mb.AddGlobal("out", 1);
  FuncId twice = mb.DeclareFunction("twice", 1);
  {
    FunctionBuilder fb = mb.DefineDeclared(twice);
    RegId two = fb.Const(2);
    RegId r = fb.Mul(0, two);
    fb.Ret(r);
    fb.Finish();
  }
  FunctionBuilder fb = mb.DefineFunction("main", 0);
  BlockId cont = fb.NewBlock("cont");
  fb.SetInsertPoint(0);
  RegId a = fb.Const(21);
  RegId r = fb.Call(twice, {a}, cont);
  fb.StoreGlobal("out", r);
  fb.Halt();
  fb.Finish();
  mb.SetEntry("main");
  Module m = std::move(mb).Build();
  ASSERT_TRUE(VerifyModule(m).ok());
  EXPECT_EQ(RunAndReadOut(m), 42);
}

TEST(VmSemanticsTest, AtomicRmwAddReturnsOldValue) {
  ModuleBuilder mb;
  mb.AddGlobal("out", 1);
  mb.AddGlobal("cell", 1, {5});
  FunctionBuilder fb = mb.DefineFunction("main", 0);
  RegId addr = fb.GlobalAddr("cell");
  RegId delta = fb.Const(3);
  RegId old = fb.AtomicRmwAdd(addr, delta);
  fb.StoreGlobal("out", old);
  fb.Halt();
  fb.Finish();
  mb.SetEntry("main");
  Module m = std::move(mb).Build();
  Vm vm(&m);
  ASSERT_TRUE(vm.Reset().ok());
  ASSERT_EQ(vm.Run().outcome, RunOutcome::kHalted);
  EXPECT_EQ(vm.memory().ReadWord(m.FindGlobal("out")->address).value(), 5);
  EXPECT_EQ(vm.memory().ReadWord(m.FindGlobal("cell")->address).value(), 8);
}

// --- Trap behaviour. ---

Module TrapProgram(TrapKind kind) {
  ModuleBuilder mb;
  mb.AddGlobal("out", 1);
  FunctionBuilder fb = mb.DefineFunction("main", 0);
  switch (kind) {
    case TrapKind::kDivByZero: {
      RegId a = fb.Const(1);
      RegId z = fb.Const(0);
      RegId r = fb.DivS(a, z);
      fb.StoreGlobal("out", r);
      break;
    }
    case TrapKind::kMemoryFault: {
      RegId bad = fb.Const(0x13);  // unaligned AND unmapped
      RegId r = fb.Load(bad, 0);
      fb.StoreGlobal("out", r);
      break;
    }
    case TrapKind::kAssertFailure: {
      RegId z = fb.Const(0);
      fb.Assert(z, "boom");
      break;
    }
    case TrapKind::kUnlockNotOwned: {
      RegId m = fb.GlobalAddr("out");
      fb.Unlock(m);
      break;
    }
    default:
      break;
  }
  fb.Halt();
  fb.Finish();
  mb.SetEntry("main");
  return std::move(mb).Build();
}

TEST(VmTrapTest, DivByZeroTraps) {
  Module m = TrapProgram(TrapKind::kDivByZero);
  Vm vm(&m);
  ASSERT_TRUE(vm.Reset().ok());
  RunResult r = vm.Run();
  ASSERT_EQ(r.outcome, RunOutcome::kTrapped);
  EXPECT_EQ(r.trap.kind, TrapKind::kDivByZero);
  // The trap PC points AT the division, not after it.
  const Instruction& inst =
      m.function(r.trap.pc.func).blocks[r.trap.pc.block].instructions[r.trap.pc.index];
  EXPECT_EQ(inst.op, Opcode::kDivS);
}

TEST(VmTrapTest, UnalignedLoadTraps) {
  Module m = TrapProgram(TrapKind::kMemoryFault);
  Vm vm(&m);
  ASSERT_TRUE(vm.Reset().ok());
  RunResult r = vm.Run();
  ASSERT_EQ(r.outcome, RunOutcome::kTrapped);
  EXPECT_EQ(r.trap.kind, TrapKind::kMemoryFault);
  EXPECT_EQ(r.trap.address, 0x13u);
}

// main: allocates two 2-word blocks (kHeapBase and kHeapBase + 16), frees
// the second, then applies `op` to `addr`. Globals: "out" at kGlobalBase,
// then the 2-word "cell".
Module MemoryOpProgram(Opcode op, uint64_t addr) {
  ModuleBuilder mb;
  mb.AddGlobal("out", 1);
  mb.AddGlobal("cell", 2);
  FunctionBuilder fb = mb.DefineFunction("main", 0);
  RegId size = fb.Const(16);
  fb.Alloc(size);
  fb.Free(fb.Alloc(size));
  RegId a = fb.Const(static_cast<int64_t>(addr));
  RegId v = fb.Const(7);
  if (op == Opcode::kLoad) {
    fb.StoreGlobal("out", fb.Load(a, 0));
  } else if (op == Opcode::kStore) {
    fb.Store(a, 0, v);
  } else {
    fb.StoreGlobal("out", fb.AtomicRmwAdd(a, v));
  }
  fb.Halt();
  fb.Finish();
  mb.SetEntry("main");
  return std::move(mb).Build();
}

// A memory trap's kind, address and message are captured into every
// coredump, so each faulting access keeps its exact trap.
TEST(VmTrapTest, MemoryFaultsKeepTheirTraps) {
  struct Case {
    uint64_t addr;
    TrapKind kind;
    const char* read;   // kLoad and kAtomicRmwAdd (which reads first)
    const char* write;  // kStore
  };
  const Case cases[] = {
      {0x1000c, TrapKind::kMemoryFault, "unaligned read at 0x1000c",
       "unaligned write at 0x1000c"},
      {0x10018, TrapKind::kMemoryFault, "read of unmapped 0x10018",
       "write to unmapped 0x10018"},
      {0x8, TrapKind::kMemoryFault, "read of unmapped 0x8", "write to unmapped 0x8"},
      {kGlobalLimit, TrapKind::kMemoryFault, "read of unmapped 0x1000000",
       "write to unmapped 0x1000000"},
      {kHeapLimit, TrapKind::kMemoryFault, "read of unmapped 0x40000000",
       "write to unmapped 0x40000000"},
      {kHeapBase + 4, TrapKind::kMemoryFault, "unaligned read at 0x10000004",
       "unaligned write at 0x10000004"},
      {kHeapBase + 24, TrapKind::kUseAfterFree, "read of freed memory",
       "write to freed memory"},
      {kHeapBase + 28, TrapKind::kUseAfterFree, "read of freed memory",
       "write to freed memory"},
      {kHeapBase + 32, TrapKind::kMemoryFault, "read of unallocated heap",
       "write to unallocated heap"},
  };
  for (Opcode op : {Opcode::kLoad, Opcode::kStore, Opcode::kAtomicRmwAdd}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(StrFormat("%s at 0x%llx", std::string(OpcodeName(op)).c_str(),
                             static_cast<unsigned long long>(c.addr)));
      Module m = MemoryOpProgram(op, c.addr);
      ASSERT_TRUE(VerifyModule(m).ok());
      Vm vm(&m);
      ASSERT_TRUE(vm.Reset().ok());
      RunResult r = vm.Run();
      ASSERT_EQ(r.outcome, RunOutcome::kTrapped);
      EXPECT_EQ(r.trap.kind, c.kind);
      EXPECT_EQ(r.trap.thread, 0u);
      EXPECT_EQ(r.trap.address, c.addr);
      EXPECT_EQ(r.trap.message, op == Opcode::kStore ? c.write : c.read);
      EXPECT_EQ(m.function(r.trap.pc.func)
                    .blocks[r.trap.pc.block]
                    .instructions[r.trap.pc.index]
                    .op,
                op);
    }
  }
}

TEST(VmTrapTest, AssertFailureCarriesMessage) {
  Module m = TrapProgram(TrapKind::kAssertFailure);
  Vm vm(&m);
  ASSERT_TRUE(vm.Reset().ok());
  RunResult r = vm.Run();
  ASSERT_EQ(r.outcome, RunOutcome::kTrapped);
  EXPECT_EQ(r.trap.kind, TrapKind::kAssertFailure);
  EXPECT_EQ(r.trap.message, "boom");
}

TEST(VmTrapTest, UnlockNotOwnedTraps) {
  Module m = TrapProgram(TrapKind::kUnlockNotOwned);
  Vm vm(&m);
  ASSERT_TRUE(vm.Reset().ok());
  EXPECT_EQ(vm.Run().trap.kind, TrapKind::kUnlockNotOwned);
}

TEST(VmTrapTest, UseAfterFreeTraps) {
  ModuleBuilder mb;
  mb.AddGlobal("out", 1);
  FunctionBuilder fb = mb.DefineFunction("main", 0);
  RegId sz = fb.Const(16);
  RegId p = fb.Alloc(sz);
  fb.Free(p);
  RegId v = fb.Load(p, 0);
  fb.StoreGlobal("out", v);
  fb.Halt();
  fb.Finish();
  mb.SetEntry("main");
  Module m = std::move(mb).Build();
  Vm vm(&m);
  ASSERT_TRUE(vm.Reset().ok());
  EXPECT_EQ(vm.Run().trap.kind, TrapKind::kUseAfterFree);
}

TEST(VmTrapTest, DoubleFreeTraps) {
  ModuleBuilder mb;
  FunctionBuilder fb = mb.DefineFunction("main", 0);
  RegId sz = fb.Const(16);
  RegId p = fb.Alloc(sz);
  fb.Free(p);
  fb.Free(p);
  fb.Halt();
  fb.Finish();
  mb.SetEntry("main");
  Module m = std::move(mb).Build();
  Vm vm(&m);
  ASSERT_TRUE(vm.Reset().ok());
  EXPECT_EQ(vm.Run().trap.kind, TrapKind::kDoubleFree);
}

TEST(VmTrapTest, StepLimitReported) {
  // Infinite loop.
  ModuleBuilder mb;
  FunctionBuilder fb = mb.DefineFunction("main", 0);
  BlockId loop = fb.NewBlock("loop");
  fb.SetInsertPoint(0);
  fb.Br(loop);
  fb.SetInsertPoint(loop);
  fb.Br(loop);
  fb.Finish();
  mb.SetEntry("main");
  Module m = std::move(mb).Build();
  VmOptions opts;
  opts.max_steps = 100;
  Vm vm(&m, opts);
  ASSERT_TRUE(vm.Reset().ok());
  EXPECT_EQ(vm.Run().outcome, RunOutcome::kStepLimit);
}

// --- Threads and scheduling. ---

TEST(VmThreadTest, DeadlockDetected) {
  Module m = BuildDeadlock();
  // Force the ABBA interleaving: run t1 to just after lock A, then t2.
  for (uint64_t seed = 1; seed < 200; ++seed) {
    Vm vm(&m);
    RandomScheduler sched(seed, 400);
    vm.set_scheduler(&sched);
    ASSERT_TRUE(vm.Reset().ok());
    RunResult r = vm.Run();
    if (r.outcome == RunOutcome::kTrapped) {
      EXPECT_EQ(r.trap.kind, TrapKind::kDeadlock);
      return;
    }
  }
  FAIL() << "no seed produced the deadlock";
}

TEST(VmThreadTest, JoinWaitsForChild) {
  ModuleBuilder mb;
  mb.AddGlobal("out", 1);
  FuncId child = mb.DeclareFunction("child", 1);
  {
    FunctionBuilder fb = mb.DefineDeclared(child);
    RegId v = fb.Const(123);
    fb.StoreGlobal("out", v);
    fb.Ret();
    fb.Finish();
  }
  FunctionBuilder fb = mb.DefineFunction("main", 0);
  RegId arg = fb.Const(0);
  RegId t = fb.Spawn(child, arg);
  fb.Join(t);
  RegId v = fb.LoadGlobal("out");
  RegId expected = fb.Const(123);
  RegId ok = fb.CmpEq(v, expected);
  fb.Assert(ok, "child must have written before join returned");
  fb.Halt();
  fb.Finish();
  mb.SetEntry("main");
  Module m = std::move(mb).Build();
  // Under ANY seed the join must order the child's write before the assert.
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Vm vm(&m);
    RandomScheduler sched(seed, 500);
    vm.set_scheduler(&sched);
    ASSERT_TRUE(vm.Reset().ok());
    RunResult r = vm.Run();
    EXPECT_EQ(r.outcome, RunOutcome::kHalted) << "seed " << seed;
  }
}

TEST(VmThreadTest, LockProvidesMutualExclusion) {
  // Two workers, each 50 locked increments: final counter must be 100 under
  // every schedule seed (property test over the scheduler).
  ModuleBuilder mb;
  mb.AddGlobal("counter", 1);
  mb.AddGlobal("mutex", 1);
  FuncId worker = mb.DeclareFunction("worker", 1);
  {
    FunctionBuilder fb = mb.DefineDeclared(worker);
    BlockId head = fb.NewBlock("head");
    BlockId body = fb.NewBlock("body");
    BlockId done = fb.NewBlock("done");
    fb.SetInsertPoint(0);
    RegId i = fb.Const(0);
    fb.Br(head);
    fb.SetInsertPoint(head);
    RegId n = fb.Const(50);
    RegId cont = fb.CmpLtS(i, n);
    fb.CondBr(cont, body, done);
    fb.SetInsertPoint(body);
    RegId mu = fb.GlobalAddr("mutex");
    fb.Lock(mu);
    RegId c = fb.LoadGlobal("counter");
    RegId c1 = fb.AddImm(c, 1);
    fb.StoreGlobal("counter", c1);
    RegId mu2 = fb.GlobalAddr("mutex");
    fb.Unlock(mu2);
    RegId i1 = fb.AddImm(i, 1);
    fb.MovInto(i, i1);
    fb.Br(head);
    fb.SetInsertPoint(done);
    fb.Ret();
    fb.Finish();
  }
  FunctionBuilder fb = mb.DefineFunction("main", 0);
  RegId arg = fb.Const(0);
  RegId t1 = fb.Spawn(worker, arg);
  RegId t2 = fb.Spawn(worker, arg);
  fb.Join(t1);
  fb.Join(t2);
  fb.Halt();
  fb.Finish();
  mb.SetEntry("main");
  Module m = std::move(mb).Build();
  ASSERT_TRUE(VerifyModule(m).ok());
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Vm vm(&m);
    RandomScheduler sched(seed, 300);
    vm.set_scheduler(&sched);
    ASSERT_TRUE(vm.Reset().ok());
    ASSERT_EQ(vm.Run().outcome, RunOutcome::kHalted) << "seed " << seed;
    EXPECT_EQ(vm.memory().ReadWord(m.FindGlobal("counter")->address).value(), 100)
        << "seed " << seed;
  }
}

TEST(VmDeterminismTest, SameSeedSameExecution) {
  Module m = BuildRacyCounter();
  for (uint64_t seed : {3ull, 17ull, 99ull}) {
    Vm vm1(&m);
    Vm vm2(&m);
    RandomScheduler s1(seed, 350);
    RandomScheduler s2(seed, 350);
    GroundTruthRecorder g1;
    GroundTruthRecorder g2;
    vm1.set_scheduler(&s1);
    vm2.set_scheduler(&s2);
    vm1.set_recorder(&g1);
    vm2.set_recorder(&g2);
    ASSERT_TRUE(vm1.Reset().ok());
    ASSERT_TRUE(vm2.Reset().ok());
    RunResult r1 = vm1.Run();
    RunResult r2 = vm2.Run();
    EXPECT_EQ(r1.outcome, r2.outcome);
    EXPECT_EQ(r1.steps, r2.steps);
    EXPECT_EQ(g1.block_trace(), g2.block_trace());
  }
}

TEST(VmLbrTest, RecordsLastBranches) {
  Module m = BuildDivByZeroInput();
  Vm vm(&m);
  QueueInputProvider q;
  q.Push(0, 0);
  vm.set_input_provider(&q);
  ASSERT_TRUE(vm.Reset().ok());
  ASSERT_EQ(vm.Run().outcome, RunOutcome::kTrapped);
  auto lbr = vm.lbr(0).Harvest();
  ASSERT_FALSE(lbr.empty());
  // The last branch is entry -> divide.
  EXPECT_EQ(lbr.back().dest.block, 1u);
}

TEST(VmLbrTest, RingKeepsOnlyLast16) {
  LbrRing ring;
  for (uint32_t i = 0; i < 40; ++i) {
    BranchRecord rec;
    rec.source = Pc{0, i, 0};
    ring.Record(rec);
  }
  auto entries = ring.Harvest();
  ASSERT_EQ(entries.size(), kLbrDepth);
  EXPECT_EQ(entries.front().source.block, 24u);  // oldest surviving
  EXPECT_EQ(entries.back().source.block, 39u);   // newest
}

TEST(VmErrorLogTest, RotatesAtCapacity) {
  ErrorLog log;
  const int64_t n = static_cast<int64_t>(kErrorLogCapacity) + 6;
  for (int64_t i = 0; i < n; ++i) {
    ErrorLogEntry e;
    e.value = i;
    log.Append(e);
    if (i == 2) {
      // Before it fills, the log holds everything appended, in order.
      std::vector<ErrorLogEntry> early = log.entries();
      ASSERT_EQ(early.size(), 3u);
      EXPECT_EQ(early[0].value, 0);
      EXPECT_EQ(early[2].value, 2);
    }
  }
  // Every survivor, oldest first: the 6 oldest rotated out.
  std::vector<ErrorLogEntry> entries = log.entries();
  ASSERT_EQ(entries.size(), kErrorLogCapacity);
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].value, static_cast<int64_t>(i) + 6) << "entry " << i;
  }
}

TEST(VmErrorLogTest, CoredumpKeepsTheLastOutputsOldestFirst) {
  // 100 loop iterations each log their counter (1..100); input 0 then
  // divides by zero.
  Module m = BuildLongExecution(100);
  QueueInputProvider inputs;
  inputs.Push(0, 0);
  Vm vm(&m);
  vm.set_input_provider(&inputs);
  ASSERT_TRUE(vm.Reset().ok());
  RunResult r = vm.Run();
  ASSERT_EQ(r.outcome, RunOutcome::kTrapped);
  EXPECT_EQ(r.trap.kind, TrapKind::kDivByZero);
  EXPECT_EQ(r.steps, 2469u);

  Coredump dump = CaptureCoredump(vm);
  ASSERT_EQ(dump.error_log.size(), kErrorLogCapacity);
  for (size_t i = 0; i < dump.error_log.size(); ++i) {
    EXPECT_EQ(dump.error_log[i].value, static_cast<int64_t>(i) + 37)
        << "entry " << i;
  }
}

TEST(VmRecorderTest, FullMemoryRecorderSeesEveryAccess) {
  Module m = SingleExprProgram([](FunctionBuilder& fb) { return fb.Const(5); });
  Vm vm(&m);
  FullMemoryRecorder recorder;
  vm.set_recorder(&recorder);
  ASSERT_TRUE(vm.Reset().ok());
  ASSERT_EQ(vm.Run().outcome, RunOutcome::kHalted);
  // One store (to "out").
  ASSERT_EQ(recorder.memory_ops().size(), 1u);
  EXPECT_TRUE(recorder.memory_ops()[0].is_write);
  EXPECT_GT(recorder.LogBytes(), 0u);
}

TEST(VmRecorderTest, InputScheduleRecorderIsSmaller) {
  Module m = BuildLongExecution(200);
  QueueInputProvider q1, q2;
  q1.Push(0, 1);
  q2.Push(0, 1);

  FullMemoryRecorder full;
  Vm vm1(&m);
  vm1.set_recorder(&full);
  vm1.set_input_provider(&q1);
  ASSERT_TRUE(vm1.Reset().ok());
  vm1.Run();

  InputScheduleRecorder light;
  Vm vm2(&m);
  vm2.set_recorder(&light);
  vm2.set_input_provider(&q2);
  ASSERT_TRUE(vm2.Reset().ok());
  vm2.Run();

  EXPECT_GT(full.LogBytes(), 10 * light.LogBytes())
      << "full memory logging must dwarf input+schedule logging";
}

TEST(SliceSchedulerTest, FollowsSlices) {
  SliceScheduler sched({{0, 2}, {1, 3}, {0, 1}});
  std::vector<uint32_t> runnable = {0, 1};
  std::vector<uint32_t> picks;
  for (int i = 0; i < 6; ++i) {
    picks.push_back(sched.Pick(runnable, picks.empty() ? 0 : picks.back()));
  }
  EXPECT_EQ(picks, (std::vector<uint32_t>{0, 0, 1, 1, 1, 0}));
}

TEST(SliceSchedulerTest, DivergesWhenThreadUnavailable) {
  SliceScheduler sched({{1, 1}});
  std::vector<uint32_t> runnable = {0};  // thread 1 not runnable
  EXPECT_EQ(sched.Pick(runnable, 0), Scheduler::kDiverged);
}

// main spawns "child", which writes 123 to "out", and joins it. Both run
// straight-line code, so a thread's steps are its instruction count (plus
// one for a join that blocks and is retried).
Module SpawnJoinProgram() {
  ModuleBuilder mb;
  mb.AddGlobal("out", 1);
  FuncId child = mb.DeclareFunction("child", 1);
  {
    FunctionBuilder fb = mb.DefineDeclared(child);
    RegId v = fb.Const(123);
    fb.StoreGlobal("out", v);
    fb.Ret();
    fb.Finish();
  }
  FunctionBuilder fb = mb.DefineFunction("main", 0);
  RegId arg = fb.Const(0);
  RegId t = fb.Spawn(child, arg);
  fb.Join(t);
  fb.Halt();
  fb.Finish();
  mb.SetEntry("main");
  Module m = std::move(mb).Build();
  EXPECT_TRUE(VerifyModule(m).ok());
  return m;
}

TEST(SliceSchedulerTest, DivergingScheduleEndsTheRun) {
  Module m = SpawnJoinProgram();
  // main's first three steps spawn the child and block on the join; the
  // next slice names main again, which cannot run until the child exits.
  SliceScheduler sched({{0, 3}, {0, 2}});
  Vm vm(&m);
  vm.set_scheduler(&sched);
  ASSERT_TRUE(vm.Reset().ok());
  RunResult r = vm.Run();
  EXPECT_EQ(r.outcome, RunOutcome::kScheduleDiverged);
  EXPECT_EQ(r.steps, 3u);
  EXPECT_EQ(vm.threads()[0].state, ThreadState::kBlockedOnJoin);
  EXPECT_EQ(vm.memory().ReadWord(m.FindGlobal("out")->address).value(), 0);
  // The run stays where it diverged.
  EXPECT_EQ(vm.Run().outcome, RunOutcome::kScheduleDiverged);
  EXPECT_EQ(vm.steps(), 3u);
}

TEST(SliceSchedulerTest, FollowedScheduleDoesNotDiverge) {
  Module m = SpawnJoinProgram();
  const uint64_t main_ops = m.function(m.entry()).blocks[0].instructions.size();
  const uint64_t child_ops =
      m.function(*m.FindFunction("child")).blocks[0].instructions.size();
  // main up to its blocked join, the whole child, then main to its halt
  // (the join again, and what follows it).
  SliceScheduler sched({{0, 3}, {1, child_ops}, {0, main_ops - 2}});
  Vm vm(&m);
  vm.set_scheduler(&sched);
  ASSERT_TRUE(vm.Reset().ok());
  RunResult r = vm.Run();
  EXPECT_EQ(r.outcome, RunOutcome::kHalted);
  EXPECT_EQ(r.steps, 3 + child_ops + main_ops - 2);
  EXPECT_EQ(vm.memory().ReadWord(m.FindGlobal("out")->address).value(), 123);
}

}  // namespace
}  // namespace res
