#include <gtest/gtest.h>

#include "src/ir/builder.h"
#include "src/ir/layout.h"
#include "src/ir/module.h"
#include "src/ir/opcode.h"
#include "src/ir/parser.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/support/string_util.h"
#include "src/workloads/workloads.h"

namespace res {
namespace {

TEST(OpcodeTest, NamesRoundTrip) {
  for (int o = 0; o <= static_cast<int>(Opcode::kHalt); ++o) {
    Opcode op = static_cast<Opcode>(o);
    Opcode parsed;
    ASSERT_TRUE(ParseOpcode(OpcodeName(op), &parsed)) << OpcodeName(op);
    EXPECT_EQ(parsed, op);
  }
  Opcode dummy;
  EXPECT_FALSE(ParseOpcode("frobnicate", &dummy));
}

TEST(OpcodeTest, TerminatorClassification) {
  EXPECT_TRUE(IsTerminator(Opcode::kBr));
  EXPECT_TRUE(IsTerminator(Opcode::kCondBr));
  EXPECT_TRUE(IsTerminator(Opcode::kCall));
  EXPECT_TRUE(IsTerminator(Opcode::kRet));
  EXPECT_TRUE(IsTerminator(Opcode::kHalt));
  EXPECT_FALSE(IsTerminator(Opcode::kAdd));
  EXPECT_FALSE(IsTerminator(Opcode::kStore));
  EXPECT_FALSE(IsTerminator(Opcode::kSpawn));
}

TEST(InstructionTest, ReadWriteSets) {
  Instruction add;
  add.op = Opcode::kAdd;
  add.rd = 2;
  add.ra = 0;
  add.rb = 1;
  EXPECT_EQ(InstructionReadRegs(add), (std::vector<RegId>{0, 1}));
  EXPECT_EQ(InstructionWrittenReg(add).value(), 2);
  EXPECT_FALSE(InstructionWritesMemory(add));

  Instruction store;
  store.op = Opcode::kStore;
  store.ra = 3;
  store.rb = 4;
  EXPECT_EQ(InstructionReadRegs(store), (std::vector<RegId>{3, 4}));
  EXPECT_FALSE(InstructionWrittenReg(store).has_value());
  EXPECT_TRUE(InstructionWritesMemory(store));

  Instruction load;
  load.op = Opcode::kLoad;
  load.rd = 5;
  load.ra = 3;
  EXPECT_TRUE(InstructionReadsMemory(load));
  EXPECT_EQ(InstructionWrittenReg(load).value(), 5);

  Instruction lock;
  lock.op = Opcode::kLock;
  lock.ra = 1;
  EXPECT_TRUE(InstructionReadsMemory(lock));
  EXPECT_TRUE(InstructionWritesMemory(lock));
}

TEST(BuilderTest, GlobalLayoutIsSequential) {
  ModuleBuilder mb;
  uint64_t a = mb.AddGlobal("a", 2);
  uint64_t b = mb.AddGlobal("b", 1);
  EXPECT_EQ(a, kGlobalBase);
  EXPECT_EQ(b, kGlobalBase + 2 * kWordSize);
  const GlobalVar* g = mb.module().FindGlobal("b");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->address, b);
}

TEST(BuilderTest, GlobalInitializerPadded) {
  ModuleBuilder mb;
  mb.AddGlobal("g", 4, {1, 2});
  const GlobalVar* g = mb.module().FindGlobal("g");
  ASSERT_EQ(g->init.size(), 4u);
  EXPECT_EQ(g->init[1], 2);
  EXPECT_EQ(g->init[3], 0);
}

TEST(BuilderTest, BuildsVerifiableFunction) {
  ModuleBuilder mb;
  mb.AddGlobal("x", 1);
  FunctionBuilder fb = mb.DefineFunction("main", 0);
  BlockId next = fb.NewBlock("next");
  fb.SetInsertPoint(0);
  RegId v = fb.Const(10);
  fb.StoreGlobal("x", v);
  fb.Br(next);
  fb.SetInsertPoint(next);
  fb.Halt();
  fb.Finish();
  mb.SetEntry("main");
  Module m = std::move(mb).Build();
  EXPECT_TRUE(VerifyModule(m).ok());
  EXPECT_EQ(m.function(m.entry()).blocks.size(), 2u);
}

TEST(BuilderTest, CallMovesInsertPointToContinuation) {
  ModuleBuilder mb;
  FuncId callee = mb.DeclareFunction("callee", 1);
  {
    FunctionBuilder fb = mb.DefineDeclared(callee);
    fb.Ret(0);  // returns its argument (register 0)
    fb.Finish();
  }
  {
    FunctionBuilder fb = mb.DefineFunction("main", 0);
    BlockId cont = fb.NewBlock("cont");
    fb.SetInsertPoint(0);
    RegId arg = fb.Const(7);
    RegId r = fb.Call(callee, {arg}, cont);
    // Emitted into `cont` now.
    RegId one = fb.Const(1);
    RegId sum = fb.Add(r, one);
    (void)sum;
    fb.Halt();
    fb.Finish();
  }
  mb.SetEntry("main");
  Module m = std::move(mb).Build();
  EXPECT_TRUE(VerifyModule(m).ok());
  const Function& main_fn = m.function(*m.FindFunction("main"));
  EXPECT_EQ(main_fn.blocks[0].terminator().op, Opcode::kCall);
  EXPECT_EQ(main_fn.blocks[1].instructions.back().op, Opcode::kHalt);
}

TEST(ModuleTest, InternStringDeduplicates) {
  Module m;
  StrId a = m.InternString("hello");
  StrId b = m.InternString("hello");
  StrId c = m.InternString("world");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(m.str(a), "hello");
}

TEST(ModuleTest, PcToString) {
  Module m = BuildDivByZeroInput();
  Pc pc{m.entry(), 0, 0};
  EXPECT_EQ(m.PcToString(pc), "main.entry[0]");
  Pc bad{999, 0, 0};
  EXPECT_EQ(m.PcToString(bad), "<invalid-pc>");
}

TEST(VerifierTest, AcceptsAllWorkloads) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    Module m = spec.build();
    EXPECT_TRUE(VerifyModule(m).ok()) << spec.name;
  }
}

TEST(VerifierTest, RejectsMissingEntry) {
  Module m;
  EXPECT_FALSE(VerifyModule(m).ok());
}

TEST(VerifierTest, RejectsEmptyBlock) {
  Module m;
  Function fn;
  fn.name = "main";
  fn.blocks.emplace_back();
  fn.blocks[0].name = "entry";
  FuncId id = m.AddFunction(std::move(fn));
  m.set_entry(id);
  EXPECT_FALSE(VerifyModule(m).ok());
}

TEST(VerifierTest, RejectsMidBlockTerminator) {
  Module m;
  Function fn;
  fn.name = "main";
  fn.num_regs = 1;
  BasicBlock bb;
  bb.name = "entry";
  Instruction halt;
  halt.op = Opcode::kHalt;
  Instruction nop;
  nop.op = Opcode::kNop;
  bb.instructions = {halt, nop};  // terminator not last
  fn.blocks.push_back(bb);
  FuncId id = m.AddFunction(std::move(fn));
  m.set_entry(id);
  EXPECT_FALSE(VerifyModule(m).ok());
}

TEST(VerifierTest, RejectsOutOfRangeRegister) {
  Module m;
  Function fn;
  fn.name = "main";
  fn.num_regs = 1;
  BasicBlock bb;
  bb.name = "entry";
  Instruction add;
  add.op = Opcode::kAdd;
  add.rd = 0;
  add.ra = 5;  // out of range
  add.rb = 0;
  Instruction halt;
  halt.op = Opcode::kHalt;
  bb.instructions = {add, halt};
  fn.blocks.push_back(bb);
  FuncId id = m.AddFunction(std::move(fn));
  m.set_entry(id);
  EXPECT_FALSE(VerifyModule(m).ok());
}

TEST(VerifierTest, RejectsBadBranchTarget) {
  Module m;
  Function fn;
  fn.name = "main";
  BasicBlock bb;
  bb.name = "entry";
  Instruction br;
  br.op = Opcode::kBr;
  br.target0 = 7;  // no such block
  bb.instructions = {br};
  fn.blocks.push_back(bb);
  FuncId id = m.AddFunction(std::move(fn));
  m.set_entry(id);
  EXPECT_FALSE(VerifyModule(m).ok());
}

TEST(VerifierTest, RejectsCallArityMismatch) {
  ModuleBuilder mb;
  FuncId callee = mb.DeclareFunction("callee", 2);
  {
    FunctionBuilder fb = mb.DefineDeclared(callee);
    fb.Ret();
    fb.Finish();
  }
  FunctionBuilder fb = mb.DefineFunction("main", 0);
  BlockId cont = fb.NewBlock("cont");
  fb.SetInsertPoint(0);
  RegId a = fb.Const(1);
  fb.CallVoid(callee, {a}, cont);  // one arg, callee wants two
  fb.Halt();
  fb.Finish();
  mb.SetEntry("main");
  Module m = std::move(mb).Build();
  EXPECT_FALSE(VerifyModule(m).ok());
}

// Round-trip property: print -> parse -> print must be a fixpoint, and the
// reparsed module must verify, for every workload in the corpus.
class RoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RoundTripTest, PrintParsePrintIsStable) {
  Module original = WorkloadByName(GetParam()).build();
  std::string text1 = PrintModule(original);
  auto reparsed = ParseModule(text1);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(VerifyModule(reparsed.value()).ok());
  std::string text2 = PrintModule(reparsed.value());
  EXPECT_EQ(text1, text2);
}

INSTANTIATE_TEST_SUITE_P(Corpus, RoundTripTest,
                         ::testing::Values("racy_counter", "atomicity_violation",
                                           "order_violation", "buffer_overflow",
                                           "use_after_free", "double_free",
                                           "div_by_zero_input", "semantic_assert",
                                           "deadlock", "locked_counter_input_bug"),
                         [](const auto& info) { return info.param; });

TEST(ParserTest, ParsesHandWrittenModule) {
  const char* text = R"(
; a tiny module
global x 1 = 5
entry main

func main params 0 regs 4 {
block entry:
  const r0, 65536
  load r1, r0, 0
  const r2, 2
  mul r3, r1, r2
  store r0, 0, r3
  condbr r3, done, done
block done:
  halt
}
)";
  auto m = ParseModule(text);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_TRUE(VerifyModule(m.value()).ok());
  EXPECT_EQ(m.value().globals().size(), 1u);
  EXPECT_EQ(m.value().globals()[0].init[0], 5);
}

TEST(ParserTest, ReportsLineNumbers) {
  auto m = ParseModule("func main params 0 regs 1 {\nblock entry:\n  bogus r0\n}\nentry main\n");
  ASSERT_FALSE(m.ok());
  EXPECT_NE(m.status().message().find("line 3"), std::string::npos);
}

TEST(ParserTest, RejectsUnknownBlockLabel) {
  auto m = ParseModule(
      "entry main\nfunc main params 0 regs 1 {\nblock entry:\n  br nowhere\n}\n");
  EXPECT_FALSE(m.ok());
}

TEST(ParserTest, RejectsDuplicateFunction) {
  auto m = ParseModule(
      "func main params 0 regs 0 {\nblock e:\n  halt\n}\n"
      "func main params 0 regs 0 {\nblock e:\n  halt\n}\nentry main\n");
  EXPECT_FALSE(m.ok());
}

TEST(ParserTest, RejectsOutOfRangeSizesAndCounts) {
  // Each is data loss, before anything is allocated from the bad count: a
  // global past the globals segment (the first size once threw bad_alloc,
  // the second length_error), initializers beyond the global's words, and a
  // params count outside [0, kNoReg] (both once wrapped to uint16_t).
  const char* bad[] = {
      "global g 1000000000000\n",
      "global g 2305843009213693952\n",
      "global g 1 = 5 6 7\n",
      "func main params 65536 regs 0 {\nblock e:\n  halt\n}\nentry main\n",
      "func main params -1 regs 0 {\nblock e:\n  halt\n}\nentry main\n",
  };
  for (const char* text : bad) {
    auto m = ParseModule(text);
    ASSERT_FALSE(m.ok()) << text;
    EXPECT_EQ(m.status().code(), StatusCode::kDataLoss) << text;
  }
  // The largest global that still fits, and a full initializer list, parse.
  EXPECT_TRUE(ParseModule(StrFormat("global g %llu\n",
                                    static_cast<unsigned long long>(
                                        (kGlobalLimit - kGlobalBase) /
                                        kWordSize)))
                  .ok());
  EXPECT_TRUE(ParseModule("global g 3 = 5 6 7\n").ok());
}

TEST(ParserTest, ParsesQuotedAssertMessages) {
  auto m = ParseModule(
      "entry main\nfunc main params 0 regs 1 {\nblock entry:\n"
      "  const r0, 1\n  assert r0, \"with \\\"escape\\\"\"\n  halt\n}\n");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m.value().strings()[0], "with \"escape\"");
}

}  // namespace
}  // namespace res
