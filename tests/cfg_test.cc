#include <gtest/gtest.h>

#include "src/cfg/cfg.h"
#include "src/ir/builder.h"
#include "src/ir/verifier.h"
#include "src/workloads/workloads.h"

namespace res {
namespace {

// How many of `b`'s predecessor edges are of `kind`.
size_t CountPreds(const ModuleCfg& cfg, BlockRef b, PredKind kind) {
  size_t n = 0;
  for (const PredEdge& e : cfg.Predecessors(b)) {
    n += e.kind == kind ? 1 : 0;
  }
  return n;
}

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
  // then and else each arrive from entry's condbr, carrying its edge marker.
  const auto& then_preds = cfg.Predecessors(BlockRef{f, 1});
  ASSERT_EQ(then_preds.size(), 1u);
  EXPECT_EQ(then_preds[0].pred, (BlockRef{f, 0}));
  EXPECT_EQ(then_preds[0].cond_edge, 0);
  const auto& else_preds = cfg.Predecessors(BlockRef{f, 2});
  ASSERT_EQ(else_preds.size(), 1u);
  EXPECT_EQ(else_preds[0].cond_edge, 1);
}

TEST(CfgTest, CallAndReturnEdges) {
  Module m = BuildUseAfterFree();
  ModuleCfg cfg = ModuleCfg::Build(m);
  FuncId release = *m.FindFunction("release");
  // release is called from one site in main: its entry block has exactly
  // one call-entry edge.
  EXPECT_EQ(CountPreds(cfg, BlockRef{release, 0}, PredKind::kCallEntry), 1u);
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
  // Two kSpawns start worker: one spawn-entry edge each.
  EXPECT_EQ(CountPreds(cfg, BlockRef{worker, 0}, PredKind::kSpawnEntry), 2u);
}

}  // namespace
}  // namespace res
