#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "src/support/rng.h"
#include "src/support/string_util.h"
#include "src/symbolic/expr.h"
#include "src/symbolic/solver.h"

namespace res {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  ExprPool pool_;
};

TEST_F(ExprTest, ConstantsAreInterned) {
  EXPECT_EQ(pool_.Const(5), pool_.Const(5));
  EXPECT_NE(pool_.Const(5), pool_.Const(6));
}

TEST_F(ExprTest, StructuralInterning) {
  const Expr* v = pool_.Var("v", VarOrigin::kInput);
  const Expr* a = pool_.Add(v, pool_.Const(3));
  const Expr* b = pool_.Add(v, pool_.Const(3));
  EXPECT_EQ(a, b);
}

TEST_F(ExprTest, ConstantFolding) {
  const Expr* e = pool_.Binary(BinOp::kMul, pool_.Const(6), pool_.Const(7));
  ASSERT_TRUE(e->is_const());
  EXPECT_EQ(e->value, 42);
}

TEST_F(ExprTest, AlgebraicIdentities) {
  const Expr* v = pool_.Var("v", VarOrigin::kInput);
  EXPECT_EQ(pool_.Add(v, pool_.Const(0)), v);
  EXPECT_EQ(pool_.Binary(BinOp::kMul, v, pool_.Const(1)), v);
  EXPECT_EQ(pool_.Binary(BinOp::kMul, v, pool_.Const(0)), pool_.Const(0));
  EXPECT_EQ(pool_.Binary(BinOp::kSub, v, v), pool_.Const(0));
  EXPECT_EQ(pool_.Binary(BinOp::kXor, v, v), pool_.Const(0));
  EXPECT_EQ(pool_.Binary(BinOp::kAnd, v, pool_.Const(0)), pool_.Const(0));
  EXPECT_EQ(pool_.Eq(v, v), pool_.Const(1));
}

TEST_F(ExprTest, AddReassociation) {
  const Expr* v = pool_.Var("v", VarOrigin::kInput);
  // (v + 3) + 4 -> v + 7
  const Expr* e = pool_.Add(pool_.Add(v, pool_.Const(3)), pool_.Const(4));
  EXPECT_EQ(e, pool_.Add(v, pool_.Const(7)));
  // v - 3 -> v + (-3)
  EXPECT_EQ(pool_.Binary(BinOp::kSub, v, pool_.Const(3)),
            pool_.Add(v, pool_.Const(-3)));
}

TEST_F(ExprTest, SelectFolding) {
  const Expr* v = pool_.Var("v", VarOrigin::kInput);
  const Expr* w = pool_.Var("w", VarOrigin::kInput);
  EXPECT_EQ(pool_.Select(pool_.Const(1), v, w), v);
  EXPECT_EQ(pool_.Select(pool_.Const(0), v, w), w);
  EXPECT_EQ(pool_.Select(v, w, w), w);
}

TEST_F(ExprTest, NotInvertsComparisons) {
  const Expr* v = pool_.Var("v", VarOrigin::kInput);
  const Expr* lt = pool_.Binary(BinOp::kLtS, v, pool_.Const(5));
  const Expr* not_lt = pool_.Not(lt);
  ASSERT_EQ(not_lt->kind, ExprKind::kBinary);
  EXPECT_EQ(not_lt->bin_op, BinOp::kLeS);  // !(v < 5) == (5 <= v)
}

TEST_F(ExprTest, EvalMatchesApplyBinOp) {
  const Expr* v = pool_.Var("v", VarOrigin::kInput);
  const Expr* e = pool_.Binary(BinOp::kShl, v, pool_.Const(3));
  Assignment a{{v->var, 5}};
  EXPECT_EQ(EvalExpr(e, a), 40);
}

TEST_F(ExprTest, DivisionByZeroIsTotal) {
  EXPECT_EQ(ApplyBinOp(BinOp::kDivS, 5, 0), 0);
  EXPECT_EQ(ApplyBinOp(BinOp::kRemS, 5, 0), 0);
  EXPECT_EQ(ApplyBinOp(BinOp::kDivS, INT64_MIN, -1), 0);
}

TEST_F(ExprTest, SubstituteRebuildsAndSimplifies) {
  const Expr* v = pool_.Var("v", VarOrigin::kInput);
  const Expr* w = pool_.Var("w", VarOrigin::kInput);
  const Expr* e = pool_.Add(pool_.Binary(BinOp::kMul, v, pool_.Const(2)), w);
  Bindings bindings;
  bindings.Set(v->var, pool_.Const(10));
  bindings.Set(w->var, pool_.Const(2));
  const Expr* s = Substitute(&pool_, e, bindings);
  ASSERT_TRUE(s->is_const());
  EXPECT_EQ(s->value, 22);
}

TEST_F(ExprTest, CollectVarsFindsAll) {
  const Expr* v = pool_.Var("v", VarOrigin::kInput);
  const Expr* w = pool_.Var("w", VarOrigin::kHavocMem);
  const Expr* e = pool_.Select(v, pool_.Add(w, pool_.Const(1)), pool_.Const(0));
  std::unordered_set<VarId> vars;
  CollectVars(e, &vars);
  EXPECT_EQ(vars.size(), 2u);
  EXPECT_TRUE(vars.count(v->var));
  EXPECT_TRUE(vars.count(w->var));
}

// --- Pool contracts: reclaim, keyed variables, rendered names. ---

VarKey MakeKey(VarTag tag, uint64_t ns, uint32_t seq) {
  VarKey key;
  key.tag = tag;
  key.ns = ns;
  key.seq = seq;
  return key;
}

TEST_F(ExprTest, ReclaimRestartsCountsAndHandsOutLiveNodes) {
  const Expr* v = pool_.InternVar(MakeKey(VarTag::kReg, 7, 0), VarOrigin::kHavocReg, 11);
  pool_.Add(v, pool_.Const(5));
  pool_.Select(v, pool_.Const(1), pool_.Const(-1));
  ASSERT_GT(pool_.node_count(), 0u);
  ASSERT_EQ(pool_.var_count(), 1u);
  EXPECT_EQ(pool_.Reclaim(), 6u);
  EXPECT_EQ(pool_.node_count(), 0u);
  EXPECT_EQ(pool_.var_count(), 0u);

  // A constant cached before Reclaim must be re-interned, not handed back:
  // the count shows the intern, and ASan flags any read of the freed node.
  const Expr* five = pool_.Const(5);
  ASSERT_TRUE(five->is_const());
  EXPECT_EQ(five->value, 5);
  EXPECT_EQ(pool_.node_count(), 1u);
  EXPECT_EQ(pool_.Const(5), five);
  EXPECT_EQ(pool_.node_count(), 1u);

  const Expr* w = pool_.InternVar(MakeKey(VarTag::kReg, 7, 0), VarOrigin::kHavocReg, 11);
  ASSERT_TRUE(w->is_var());
  EXPECT_EQ(w->var, 0u);
  EXPECT_EQ(pool_.var_count(), 1u);
  EXPECT_EQ(pool_.var_intern_hits(), 0u);  // the registry was emptied too
  const Expr* sum = pool_.Add(w, five);
  EXPECT_EQ(sum->kind, ExprKind::kBinary);
  EXPECT_EQ(sum->a, w);
  EXPECT_EQ(sum->b, five);
  EXPECT_EQ(pool_.node_count(), 3u);
  EXPECT_EQ(pool_.reclaim_epochs(), 1u);
}

TEST_F(ExprTest, KeyedVariablesInternByKeyAndUid) {
  const VarKey key = MakeKey(VarTag::kMem, 0x1f, 4);
  const Expr* v = pool_.InternVar(key, VarOrigin::kHavocMem, 42);
  EXPECT_EQ(pool_.var_intern_hits(), 0u);
  EXPECT_EQ(pool_.InternVar(key, VarOrigin::kHavocMem, 42), v);
  EXPECT_EQ(pool_.var_intern_hits(), 1u);
  EXPECT_EQ(pool_.var_count(), 1u);
  EXPECT_EQ(pool_.var_origin(v->var), VarOrigin::kHavocMem);
  EXPECT_EQ(pool_.var_uid(v->var), 42u);

  // One uid under two keys: two variables.
  const Expr* other_key = pool_.InternVar(MakeKey(VarTag::kMem, 0x1f, 5),
                                          VarOrigin::kHavocMem, 42);
  EXPECT_NE(other_key, v);
  const Expr* other_tag = pool_.InternVar(MakeKey(VarTag::kReg, 0x1f, 4),
                                          VarOrigin::kHavocReg, 42);
  EXPECT_NE(other_tag, v);
  EXPECT_NE(other_tag, other_key);
  // One key under two uids: two variables, and the key then names the newer.
  const Expr* other_uid = pool_.InternVar(key, VarOrigin::kHavocMem, 43);
  EXPECT_NE(other_uid, v);
  EXPECT_EQ(pool_.InternVar(key, VarOrigin::kHavocMem, 43), other_uid);
  EXPECT_EQ(pool_.var_count(), 4u);
  EXPECT_EQ(pool_.var_intern_hits(), 2u);
}

TEST_F(ExprTest, EngineVariableNamesRenderAndParse) {
  struct Case {
    VarTag tag;
    const char* tag_name;
    uint64_t ns;
    uint32_t seq;
  };
  const Case cases[] = {{VarTag::kReg, "reg", 0x1a2b3c4d5e6f7081ULL, 0},
                        {VarTag::kMem, "mem", 0, 17},
                        {VarTag::kIn, "in", 0xffffffffffffffffULL, 4294967295u}};
  for (const Case& c : cases) {
    const VarKey key = MakeKey(c.tag, c.ns, c.seq);
    const uint64_t uid = c.ns ^ c.seq;
    const Expr* v = pool_.InternVar(key, VarOrigin::kHavocReg, uid);
    // The spelling engine variables had when they were named by StrFormat.
    const std::string name = StrFormat(
        "%s_%llx_%u", c.tag_name, static_cast<unsigned long long>(c.ns), c.seq);
    EXPECT_EQ(VarKeyName(key), name);
    EXPECT_EQ(ExprToString(pool_, v), name);
    EXPECT_EQ(pool_.var_name(v->var), name);
    ASSERT_TRUE(ParseVarKeyName(name).has_value());
    EXPECT_EQ(*ParseVarKeyName(name), key);
  }

  const Expr* canonical =
      pool_.InternVar(MakeKey(VarTag::kReg, 0xa, 1), VarOrigin::kHavocReg, 9);
  EXPECT_EQ(ExprToString(pool_, canonical), "reg_a_1");
  for (const char* spelling : {"reg_0A_01", "reg_A_1", "reg_a_01", "reg_0a_1"}) {
    EXPECT_FALSE(ParseVarKeyName(spelling).has_value()) << spelling;
  }
  for (const char* malformed :
       {"reg", "reg_a", "reg__1", "reg_a_", "foo_a_1", "reg_a_1_2", "reg_-a_1",
        "reg_a_4294967296", "reg_10000000000000000_1", "in_a_+1", ""}) {
    EXPECT_FALSE(ParseVarKeyName(malformed).has_value()) << malformed;
  }
  // Names registered by Var keep their spelling, whatever it looks like.
  EXPECT_EQ(ExprToString(pool_, pool_.Var("reg_a_1", VarOrigin::kUnknown)),
            "reg_a_1");
}

// Property: random expressions evaluate identically before and after
// substitution with constant bindings (simplification is semantics-
// preserving). This is the soundness spine of the whole symbolic layer.
class ExprPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExprPropertyTest, SimplificationPreservesSemantics) {
  ExprPool pool;
  Rng rng(GetParam());
  std::vector<const Expr*> vars;
  for (int i = 0; i < 4; ++i) {
    vars.push_back(pool.Var("v" + std::to_string(i), VarOrigin::kUnknown));
  }
  // Random expression tree.
  std::function<const Expr*(int)> gen = [&](int depth) -> const Expr* {
    if (depth == 0 || rng.NextChance(1, 4)) {
      if (rng.NextBool()) {
        return vars[rng.NextBelow(vars.size())];
      }
      return pool.Const(rng.NextInRange(-8, 8));
    }
    BinOp op = static_cast<BinOp>(rng.NextBelow(17));
    return pool.Binary(op, gen(depth - 1), gen(depth - 1));
  };
  for (int trial = 0; trial < 50; ++trial) {
    const Expr* e = gen(4);
    Assignment a;
    Bindings bindings;
    for (const Expr* v : vars) {
      int64_t value = rng.NextInRange(-16, 16);
      a[v->var] = value;
      bindings.Set(v->var, pool.Const(value));
    }
    const Expr* substituted = Substitute(&pool, e, bindings);
    ASSERT_TRUE(substituted->is_const());
    EXPECT_EQ(substituted->value, EvalExpr(e, a))
        << ExprToString(pool, e);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Solver. ---

class SolverTest : public ::testing::Test {
 protected:
  ExprPool pool_;
  Solver solver_{&pool_, 99};
};

TEST_F(SolverTest, TrivialSat) {
  EXPECT_EQ(solver_.Check({pool_.Const(1)}).result, SatResult::kSat);
  EXPECT_EQ(solver_.Check({}).result, SatResult::kSat);
}

TEST_F(SolverTest, TrivialUnsat) {
  EXPECT_EQ(solver_.Check({pool_.Const(0)}).result, SatResult::kUnsat);
}

TEST_F(SolverTest, EqualityPropagation) {
  const Expr* x = pool_.Var("x", VarOrigin::kUnknown);
  auto out = solver_.Check({pool_.Eq(x, pool_.Const(7))});
  ASSERT_EQ(out.result, SatResult::kSat);
  EXPECT_EQ(out.model->at(x->var), 7);
}

TEST_F(SolverTest, ConflictingEqualitiesUnsat) {
  const Expr* x = pool_.Var("x", VarOrigin::kUnknown);
  EXPECT_EQ(solver_
                .Check({pool_.Eq(x, pool_.Const(1)), pool_.Eq(x, pool_.Const(2))})
                .result,
            SatResult::kUnsat);
}

TEST_F(SolverTest, BindingChainsResolve) {
  const Expr* x = pool_.Var("x", VarOrigin::kUnknown);
  const Expr* y = pool_.Var("y", VarOrigin::kUnknown);
  const Expr* z = pool_.Var("z", VarOrigin::kUnknown);
  auto out = solver_.Check({pool_.Eq(x, y), pool_.Eq(y, z),
                            pool_.Eq(z, pool_.Const(3)),
                            pool_.Ne(pool_.Ne(x, pool_.Const(0)), pool_.Const(0))});
  ASSERT_EQ(out.result, SatResult::kSat);
  EXPECT_EQ(out.model->at(x->var), 3);
}

TEST_F(SolverTest, LinearInversion) {
  const Expr* x = pool_.Var("x", VarOrigin::kUnknown);
  // x + 5 == 12
  auto out = solver_.Check({pool_.Eq(pool_.Add(x, pool_.Const(5)), pool_.Const(12))});
  ASSERT_EQ(out.result, SatResult::kSat);
  EXPECT_EQ(out.model->at(x->var), 7);
  // 20 - x == 12
  auto out2 = solver_.Check(
      {pool_.Eq(pool_.Binary(BinOp::kSub, pool_.Const(20), x), pool_.Const(12))});
  ASSERT_EQ(out2.result, SatResult::kSat);
  EXPECT_EQ(out2.model->at(x->var), 8);
  // x ^ 0xff == 0xf0
  auto out3 = solver_.Check({pool_.Eq(pool_.Binary(BinOp::kXor, x, pool_.Const(0xff)),
                                      pool_.Const(0xf0))});
  ASSERT_EQ(out3.result, SatResult::kSat);
  EXPECT_EQ(out3.model->at(x->var), 0x0f);
}

TEST_F(SolverTest, IntervalUnsat) {
  const Expr* x = pool_.Var("x", VarOrigin::kUnknown);
  // x < 5 && 10 <= x is unsatisfiable.
  auto out = solver_.Check({pool_.Binary(BinOp::kLtS, x, pool_.Const(5)),
                            pool_.Binary(BinOp::kLeS, pool_.Const(10), x)});
  EXPECT_EQ(out.result, SatResult::kUnsat);
}

TEST_F(SolverTest, BoundedEnumeration) {
  const Expr* x = pool_.Var("x", VarOrigin::kUnknown);
  // 0 <= x <= 20 and x*x == 169 -> x == 13.
  auto out = solver_.Check({pool_.Binary(BinOp::kLeS, pool_.Const(0), x),
                            pool_.Binary(BinOp::kLeS, x, pool_.Const(20)),
                            pool_.Eq(pool_.Binary(BinOp::kMul, x, x),
                                     pool_.Const(169))});
  ASSERT_EQ(out.result, SatResult::kSat);
  EXPECT_EQ(out.model->at(x->var), 13);
}

TEST_F(SolverTest, BoundedEnumerationProvesUnsat) {
  const Expr* x = pool_.Var("x", VarOrigin::kUnknown);
  // 0 <= x <= 20 and x*x == 7 has no solution: complete enumeration.
  auto out = solver_.Check({pool_.Binary(BinOp::kLeS, pool_.Const(0), x),
                            pool_.Binary(BinOp::kLeS, x, pool_.Const(20)),
                            pool_.Eq(pool_.Binary(BinOp::kMul, x, x),
                                     pool_.Const(7))});
  EXPECT_EQ(out.result, SatResult::kUnsat);
}

TEST_F(SolverTest, HardInversionIsUnknownNotWrong) {
  const Expr* x = pool_.Var("x", VarOrigin::kUnknown);
  // hash-like: (x * 2654435761) ^ ((x * 2654435761) >> 13) == K for a K that
  // does have a preimage; the solver may fail to find it but must not claim
  // UNSAT.
  const Expr* m = pool_.Binary(BinOp::kMul, x, pool_.Const(2654435761LL));
  const Expr* h = pool_.Binary(BinOp::kXor, m,
                               pool_.Binary(BinOp::kShrL, m, pool_.Const(13)));
  int64_t k = ApplyBinOp(
      BinOp::kXor, ApplyBinOp(BinOp::kMul, 42, 2654435761LL),
      ApplyBinOp(BinOp::kShrL, ApplyBinOp(BinOp::kMul, 42, 2654435761LL), 13));
  auto out = solver_.Check({pool_.Eq(h, pool_.Const(k))});
  EXPECT_NE(out.result, SatResult::kUnsat);
}

TEST_F(SolverTest, SatModelsAreAlwaysVerified) {
  // Property: every kSat answer's model satisfies every constraint.
  Rng rng(777);
  for (int trial = 0; trial < 40; ++trial) {
    ExprPool pool;
    Solver solver(&pool, trial + 1);
    std::vector<const Expr*> vars;
    for (int i = 0; i < 3; ++i) {
      vars.push_back(pool.Var("v" + std::to_string(i), VarOrigin::kUnknown));
    }
    std::vector<const Expr*> cs;
    for (int i = 0; i < 4; ++i) {
      const Expr* v = vars[rng.NextBelow(vars.size())];
      const Expr* w = vars[rng.NextBelow(vars.size())];
      int64_t c = rng.NextInRange(-10, 10);
      switch (rng.NextBelow(3)) {
        case 0:
          cs.push_back(pool.Eq(pool.Add(v, pool.Const(c)), w));
          break;
        case 1:
          cs.push_back(pool.Binary(BinOp::kLeS, v, pool.Const(c)));
          break;
        default:
          cs.push_back(pool.Eq(v, pool.Const(c)));
          break;
      }
    }
    auto out = solver.Check(cs);
    if (out.result == SatResult::kSat) {
      for (const Expr* c : cs) {
        EXPECT_NE(EvalExpr(c, *out.model), 0) << ExprToString(pool, c);
      }
    }
  }
}

TEST_F(SolverTest, EnumerateValuesComplete) {
  const Expr* x = pool_.Var("x", VarOrigin::kUnknown);
  std::vector<const Expr*> cs = {pool_.Binary(BinOp::kLeS, pool_.Const(3), x),
                                 pool_.Binary(BinOp::kLeS, x, pool_.Const(5))};
  bool complete = false;
  std::vector<int64_t> values = solver_.EnumerateValues(x, cs, 10, &complete);
  EXPECT_TRUE(complete);
  ASSERT_EQ(values.size(), 3u);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<int64_t>{3, 4, 5}));
}

TEST_F(SolverTest, EnumerateValuesHitsLimit) {
  const Expr* x = pool_.Var("x", VarOrigin::kUnknown);
  std::vector<const Expr*> cs = {pool_.Binary(BinOp::kLeS, pool_.Const(0), x),
                                 pool_.Binary(BinOp::kLeS, x, pool_.Const(100))};
  bool complete = true;
  std::vector<int64_t> values = solver_.EnumerateValues(x, cs, 5, &complete);
  EXPECT_FALSE(complete);
  EXPECT_EQ(values.size(), 5u);
}

TEST_F(SolverTest, IncrementalAgreesWithMonolithicOnRandomSuites) {
  // Differential property: feeding a constraint suite one batch at a time
  // through a persistent SolverContext must agree with a fresh monolithic
  // Check of each prefix. The generated constraints are linear equalities
  // and bounds, which the solver decides completely (propagation +
  // intervals + enumeration), so the verdicts must be *equal*, not merely
  // non-contradictory.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    ExprPool pool;
    Solver incremental_solver(&pool, 1000 + seed);
    Solver monolithic_solver(&pool, 2000 + seed);
    SolverContext ctx;
    std::vector<const Expr*> vars;
    for (int i = 0; i < 4; ++i) {
      vars.push_back(pool.Var("v" + std::to_string(i), VarOrigin::kUnknown));
    }
    // Box every variable into a small finite interval up front so the whole
    // suite stays inside the solver's complete fragment (interval widths
    // multiply to less than the enumeration cap) — no kUnknown verdicts.
    std::vector<const Expr*> suite;
    for (const Expr* v : vars) {
      suite.push_back(pool.Binary(BinOp::kLeS, pool.Const(-4), v));
      suite.push_back(pool.Binary(BinOp::kLeS, v, pool.Const(4)));
    }
    bool prefix_unsat = false;
    for (int batch = 0; batch < 8; ++batch) {
      for (int i = 0; i < 3; ++i) {
        const Expr* v = vars[rng.NextBelow(vars.size())];
        const Expr* w = vars[rng.NextBelow(vars.size())];
        int64_t c = rng.NextInRange(-6, 6);
        const Expr* cons = nullptr;
        switch (rng.NextBelow(4)) {
          case 0:
            // v == w with an offset would be trivially UNSAT-by-wraparound
            // (outside the complete fragment); keep the sides distinct.
            cons = v != w ? pool.Eq(pool.Add(v, pool.Const(c)), w)
                          : pool.Eq(v, pool.Const(c));
            break;
          case 1:
            cons = pool.Binary(BinOp::kLeS, v, pool.Const(c));
            break;
          case 2:
            cons = pool.Binary(BinOp::kLeS, pool.Const(c), v);
            break;
          default:
            cons = pool.Eq(v, pool.Const(c));
            break;
        }
        suite.push_back(cons);
      }
      SolveOutcome inc = incremental_solver.CheckIncremental(&ctx, suite);
      SolveOutcome mono = monolithic_solver.Check(suite);
      // Both paths are complete on this fragment; never disagree.
      EXPECT_EQ(inc.result, mono.result)
          << "seed=" << seed << " batch=" << batch;
      ASSERT_NE(inc.result, SatResult::kUnknown);
      if (inc.result == SatResult::kSat) {
        for (const Expr* c : suite) {
          EXPECT_NE(EvalExpr(c, *inc.model), 0) << ExprToString(pool, c);
        }
      } else {
        prefix_unsat = true;
        // Monotonicity: every extension of an UNSAT prefix stays UNSAT.
        suite.push_back(pool.Eq(vars[0], pool.Const(0)));
        EXPECT_EQ(incremental_solver.CheckIncremental(&ctx, suite).result,
                  SatResult::kUnsat);
        break;
      }
    }
    (void)prefix_unsat;
  }
}

TEST_F(SolverTest, IncrementalModelReuseAndCacheStatsAdvance) {
  const Expr* x = pool_.Var("x", VarOrigin::kUnknown);
  const Expr* y = pool_.Var("y", VarOrigin::kUnknown);
  SolverContext ctx;
  std::vector<const Expr*> cs = {pool_.Eq(x, pool_.Const(4))};
  ASSERT_EQ(solver_.CheckIncremental(&ctx, cs).result, SatResult::kSat);
  // The cached model (x=4, y defaults to 0) satisfies the appended
  // constraint, so this check must resolve via model reuse.
  uint64_t reuse_before = solver_.stats().model_reuse_hits;
  cs.push_back(pool_.Binary(BinOp::kLeS, y, pool_.Const(0)));
  ASSERT_EQ(solver_.CheckIncremental(&ctx, cs).result, SatResult::kSat);
  EXPECT_GT(solver_.stats().model_reuse_hits, reuse_before);

  // A cold context over the same (permuted) set must hit the memo cache:
  // the key is order-insensitive.
  SolveOutcome direct = solver_.Check({pool_.Eq(y, pool_.Const(9)),
                                       pool_.Eq(x, pool_.Const(1))});
  ASSERT_EQ(direct.result, SatResult::kSat);
  uint64_t hits_before = solver_.stats().cache_hits;
  SolveOutcome again = solver_.Check({pool_.Eq(x, pool_.Const(1)),
                                      pool_.Eq(y, pool_.Const(9))});
  ASSERT_EQ(again.result, SatResult::kSat);
  EXPECT_GT(solver_.stats().cache_hits, hits_before);
}

TEST_F(SolverTest, IncrementalResolvesStaleBindingChains) {
  // Regression: binding values are never back-patched, so after absorbing
  // a == b+1 (binding a -> b+1) and then b == 7, a fresh constraint
  // mentioning `a` substitutes to an expression still containing the bound
  // `b`. The incremental path must chase the chain to a fixpoint and prove
  // UNSAT exactly like a cold monolithic check would.
  const Expr* a = pool_.Var("a", VarOrigin::kUnknown);
  const Expr* b = pool_.Var("b", VarOrigin::kUnknown);
  SolverContext ctx;
  std::vector<const Expr*> cs = {pool_.Eq(a, pool_.Add(b, pool_.Const(1)))};
  ASSERT_EQ(solver_.CheckIncremental(&ctx, cs).result, SatResult::kSat);
  cs.push_back(pool_.Eq(b, pool_.Const(7)));
  ASSERT_EQ(solver_.CheckIncremental(&ctx, cs).result, SatResult::kSat);
  // a == 8 here; a > 10 is a constant contradiction once the chain resolves.
  cs.push_back(pool_.Binary(BinOp::kLtS, pool_.Const(10), a));
  SolveOutcome inc = solver_.CheckIncremental(&ctx, cs);
  Solver cold(&pool_, 5);
  SolveOutcome mono = cold.Check(cs);
  EXPECT_EQ(mono.result, SatResult::kUnsat);
  EXPECT_EQ(inc.result, SatResult::kUnsat);
}

TEST_F(SolverTest, IncrementalContextForkMatchesIndependentChecks) {
  // Fork a context the way the reverse engine forks hypotheses: two
  // children extend the same parent prefix with conflicting constraints.
  const Expr* x = pool_.Var("x", VarOrigin::kUnknown);
  std::vector<const Expr*> parent = {pool_.Binary(BinOp::kLeS, pool_.Const(0), x),
                                     pool_.Binary(BinOp::kLeS, x, pool_.Const(10))};
  SolverContext parent_ctx;
  ASSERT_EQ(solver_.CheckIncremental(&parent_ctx, parent).result, SatResult::kSat);

  SolverContext left = parent_ctx;
  SolverContext right = parent_ctx;
  std::vector<const Expr*> left_cs = parent;
  left_cs.push_back(pool_.Eq(x, pool_.Const(7)));
  std::vector<const Expr*> right_cs = parent;
  right_cs.push_back(pool_.Binary(BinOp::kLtS, pool_.Const(10), x));

  SolveOutcome l = solver_.CheckIncremental(&left, left_cs);
  SolveOutcome r = solver_.CheckIncremental(&right, right_cs);
  ASSERT_EQ(l.result, SatResult::kSat);
  EXPECT_EQ(EvalExpr(pool_.Eq(x, pool_.Const(7)), *l.model), 1);
  EXPECT_EQ(r.result, SatResult::kUnsat);
  // The left fork must be unaffected by the right fork's contradiction.
  left_cs.push_back(pool_.Binary(BinOp::kLeS, pool_.Const(0), x));
  EXPECT_EQ(solver_.CheckIncremental(&left, left_cs).result, SatResult::kSat);
}

TEST_F(SolverTest, EnumerateDerivedExpression) {
  const Expr* x = pool_.Var("x", VarOrigin::kUnknown);
  std::vector<const Expr*> cs = {pool_.Eq(x, pool_.Const(5))};
  bool complete = false;
  std::vector<int64_t> values = solver_.EnumerateValues(
      pool_.Add(pool_.Binary(BinOp::kMul, x, pool_.Const(8)), pool_.Const(100)),
      cs, 4, &complete);
  EXPECT_TRUE(complete);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], 140);
}

}  // namespace
}  // namespace res
