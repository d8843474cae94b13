#include <gtest/gtest.h>

#include "src/cfg/cfg.h"
#include "src/ir/builder.h"
#include "src/ir/verifier.h"
#include "src/workloads/workloads.h"

namespace res {
namespace {

// Diamond CFG: entry -> (then | else) -> merge.
Module DiamondModule() {
  ModuleBuilder mb;
  mb.AddGlobal("g", 1);
  FunctionBuilder fb = mb.DefineFunction("main", 0);
  BlockId then_b = fb.NewBlock("then");
  BlockId else_b = fb.NewBlock("else");
  BlockId merge = fb.NewBlock("merge");
  fb.SetInsertPoint(0);
  RegId c = fb.LoadGlobal("g");
  fb.CondBr(c, then_b, else_b);
  fb.SetInsertPoint(then_b);
  RegId one = fb.Const(1);
  fb.StoreGlobal("g", one);
  fb.Br(merge);
  fb.SetInsertPoint(else_b);
  RegId two = fb.Const(2);
  fb.StoreGlobal("g", two);
  fb.Br(merge);
  fb.SetInsertPoint(merge);
  fb.Halt();
  fb.Finish();
  mb.SetEntry("main");
  Module m = std::move(mb).Build();
  EXPECT_TRUE(VerifyModule(m).ok());
  return m;
}

TEST(CfgTest, DiamondEdges) {
  Module m = DiamondModule();
  ModuleCfg cfg = ModuleCfg::Build(m);
  FuncId f = m.entry();
  // merge (block 3) has two predecessors, both local branches.
  const auto& preds = cfg.Predecessors(BlockRef{f, 3});
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_EQ(preds[0].kind, PredKind::kLocalBranch);
  // entry's successors carry the condition edge markers.
  const auto& succs = cfg.Successors(BlockRef{f, 0});
  ASSERT_EQ(succs.size(), 2u);
  EXPECT_EQ(succs[0].cond_edge, 0);
  EXPECT_EQ(succs[1].cond_edge, 1);
}

TEST(CfgTest, CallAndReturnEdges) {
  Module m = BuildUseAfterFree();
  ModuleCfg cfg = ModuleCfg::Build(m);
  FuncId release = *m.FindFunction("release");
  // release is called from two sites in main.
  EXPECT_EQ(cfg.CallSites(release).size(), 1u);
  // Its entry block's preds include the call-entry edge.
  const auto& preds = cfg.Predecessors(BlockRef{release, 0});
  bool has_call_entry = false;
  for (const PredEdge& e : preds) {
    has_call_entry |= e.kind == PredKind::kCallEntry;
  }
  EXPECT_TRUE(has_call_entry);
  // The continuation of main's first call has a kReturn pred.
  FuncId main_fn = m.entry();
  const Function& fn = m.function(main_fn);
  BlockId cont = fn.blocks[0].terminator().target0;
  bool has_return = false;
  for (const PredEdge& e : cfg.Predecessors(BlockRef{main_fn, cont})) {
    has_return |= e.kind == PredKind::kReturn;
  }
  EXPECT_TRUE(has_return);
}

TEST(CfgTest, SpawnEdges) {
  Module m = BuildRacyCounter();
  ModuleCfg cfg = ModuleCfg::Build(m);
  FuncId worker = *m.FindFunction("worker");
  EXPECT_EQ(cfg.SpawnSites(worker).size(), 2u);
  bool has_spawn_entry = false;
  for (const PredEdge& e : cfg.Predecessors(BlockRef{worker, 0})) {
    has_spawn_entry |= e.kind == PredKind::kSpawnEntry;
  }
  EXPECT_TRUE(has_spawn_entry);
}

}  // namespace
}  // namespace res
