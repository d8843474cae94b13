// The solver strategy portfolio must be observationally invisible: with
// ResOptions::solver_portfolio on or off, the engine's StopReason,
// synthesized suffix, root causes, and hardware verdict must be
// byte-identical — the classic fixed pipeline (each strategy run to
// completion, no clause sharing) is the differential oracle the budgeted
// round-robin scheduler and the learned-clause store are pinned to
// (mirroring root_cause_incremental_test.cc for the detector). Like that
// oracle, on/off byte-identity is a corpus-level contract: a stored core
// refuting a set the incomplete solver alone would keep as kUnknown is a
// legitimate (sound-direction) divergence window — these tests pin that
// the window never opens on the corpus at default options (see
// docs/ARCHITECTURE.md §5.2). Repeat-run identity, by contrast, holds by
// construction: clause publication happens in commit order, so the screen
// verdicts — and with them the whole search — repeat exactly.
//
// What MAY differ between the modes is exactly the solver work economy:
// per-strategy step/win counters, budget exhaustions, and the learned-
// clause counters, which the last tests pin directionally.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ir/builder.h"
#include "src/res/res_api.h"
#include "src/support/string_util.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

namespace res {
namespace {

// ---------------------------------------------------------------------------
// Solver-level: strategy scheduling, budgets, cores, and the clause store.
// ---------------------------------------------------------------------------

class PortfolioSolverTest : public ::testing::Test {
 protected:
  SolveOutcome Run(const std::vector<const Expr*>& constraints, bool portfolio,
                   SolverStats* stats, uint64_t budget = 0) {
    SolverOptions options;
    options.portfolio = portfolio;
    if (budget != 0) {
      options.budget_steps = budget;
    }
    Solver solver(&pool_, /*seed=*/1, options);
    return solver.Check(constraints, stats);
  }

  ExprPool pool_;
};

TEST_F(PortfolioSolverTest, EnumerationDecidesIdenticallyInBothModes) {
  // x in [0, 20] with x % 3 == 2: propagation cannot invert kRemS, so the
  // verdict comes from exhaustive enumeration — which must pick the same
  // (first-in-odometer-order) model under portfolio slicing as under the
  // fixed pipeline.
  const Expr* x = pool_.Var("x", VarOrigin::kInput);
  std::vector<const Expr*> constraints = {
      pool_.Binary(BinOp::kLeS, pool_.Const(0), x),
      pool_.Binary(BinOp::kLeS, x, pool_.Const(20)),
      pool_.Eq(pool_.Binary(BinOp::kRemS, x, pool_.Const(3)), pool_.Const(2)),
  };
  SolverStats fixed_stats;
  SolveOutcome fixed = Run(constraints, /*portfolio=*/false, &fixed_stats);
  SolverStats port_stats;
  SolveOutcome port = Run(constraints, /*portfolio=*/true, &port_stats);
  ASSERT_EQ(fixed.result, SatResult::kSat);
  ASSERT_EQ(port.result, SatResult::kSat);
  EXPECT_EQ(fixed.model.at(x->var), 2);  // first odometer point that fits
  EXPECT_EQ(port.model.at(x->var), fixed.model.at(x->var));
  EXPECT_EQ(fixed_stats.strategy_wins[static_cast<size_t>(
                StrategyKind::kEnumeration)],
            1u);
  EXPECT_EQ(port_stats.strategy_wins[static_cast<size_t>(
                StrategyKind::kEnumeration)],
            1u);
}

TEST_F(PortfolioSolverTest, EnumerationUnsatCarriesASoundCore) {
  // x in [5, 20] with x % 3 == 7: no remainder ever reaches 7, so complete
  // enumeration proves UNSAT. The reported core must be a subset of the
  // inputs that is *itself* UNSAT (re-checking just the core must refute).
  const Expr* x = pool_.Var("x", VarOrigin::kInput);
  std::vector<const Expr*> constraints = {
      pool_.Binary(BinOp::kLeS, pool_.Const(5), x),
      pool_.Binary(BinOp::kLeS, x, pool_.Const(20)),
      pool_.Eq(pool_.Binary(BinOp::kRemS, x, pool_.Const(3)), pool_.Const(7)),
  };
  SolverStats stats;
  SolveOutcome out = Run(constraints, /*portfolio=*/true, &stats);
  ASSERT_EQ(out.result, SatResult::kUnsat);
  ASSERT_FALSE(out.core.empty());
  for (const Expr* c : out.core) {
    EXPECT_NE(std::find(constraints.begin(), constraints.end(), c),
              constraints.end())
        << "core constraint is not one of the inputs";
  }
  SolverStats core_stats;
  SolveOutcome recheck = Run(out.core, /*portfolio=*/true, &core_stats);
  EXPECT_EQ(recheck.result, SatResult::kUnsat)
      << "the core alone must still be UNSAT";
  // The fixed-pipeline oracle reaches the same verdict but derives no core:
  // provenance tracking is active only when the clause store can consume
  // it (portfolio mode), so the oracle arm pays nothing for it.
  SolverStats fixed_stats;
  SolveOutcome fixed = Run(constraints, /*portfolio=*/false, &fixed_stats);
  EXPECT_EQ(fixed.result, SatResult::kUnsat);
  EXPECT_TRUE(fixed.core.empty());
}

TEST_F(PortfolioSolverTest, PropagationConflictClosesCoreOverBindings) {
  // x = 5, y = x, y = 7: the contradiction surfaces only after substituting
  // through both bindings, so the core must close over their sources — all
  // three constraints.
  const Expr* x = pool_.Var("x", VarOrigin::kInput);
  const Expr* y = pool_.Var("y", VarOrigin::kInput);
  std::vector<const Expr*> constraints = {
      pool_.Eq(x, pool_.Const(5)),
      pool_.Eq(y, x),
      pool_.Eq(y, pool_.Const(7)),
  };
  SolverStats stats;
  SolveOutcome out = Run(constraints, /*portfolio=*/true, &stats);
  ASSERT_EQ(out.result, SatResult::kUnsat);
  EXPECT_EQ(out.core.size(), 3u);
}

TEST_F(PortfolioSolverTest, SearchWinsWhenEnumerationCannotApply) {
  // x & 3 == 3 with no range constraints: intervals stay infinite, so
  // enumeration is inapplicable and local search must find a model. The
  // trajectory is seeded from the constraint set's content hash, so this is
  // deterministic.
  const Expr* x = pool_.Var("x", VarOrigin::kInput);
  std::vector<const Expr*> constraints = {
      pool_.Eq(pool_.Binary(BinOp::kAnd, x, pool_.Const(3)), pool_.Const(3)),
  };
  for (bool portfolio : {false, true}) {
    SolverStats stats;
    SolveOutcome out = Run(constraints, portfolio, &stats);
    ASSERT_EQ(out.result, SatResult::kSat) << "portfolio=" << portfolio;
    EXPECT_EQ((out.model.at(x->var) & 3), 3);
    EXPECT_EQ(
        stats.strategy_wins[static_cast<size_t>(StrategyKind::kSearch)], 1u);
    EXPECT_GT(
        stats.strategy_steps[static_cast<size_t>(StrategyKind::kSearch)], 0u);
  }
}

TEST_F(PortfolioSolverTest, BudgetExhaustionIsSoundAndCounted) {
  // The [5, 20] x % 3 == 7 refutation needs 16 enumerated points; a budget
  // of 8 steps cannot finish any strategy, so the portfolio must give up
  // with kUnknown (sound: the engine keeps the hypothesis unverified) and
  // count exactly one exhaustion. The fixed pipeline ignores the budget and
  // still decides.
  const Expr* x = pool_.Var("x", VarOrigin::kInput);
  std::vector<const Expr*> constraints = {
      pool_.Binary(BinOp::kLeS, pool_.Const(5), x),
      pool_.Binary(BinOp::kLeS, x, pool_.Const(20)),
      pool_.Eq(pool_.Binary(BinOp::kRemS, x, pool_.Const(3)), pool_.Const(7)),
  };
  SolverStats port_stats;
  SolveOutcome port = Run(constraints, /*portfolio=*/true, &port_stats,
                          /*budget=*/8);
  EXPECT_EQ(port.result, SatResult::kUnknown);
  EXPECT_EQ(port_stats.budget_exhaustions, 1u);
  SolverStats fixed_stats;
  SolveOutcome fixed = Run(constraints, /*portfolio=*/false, &fixed_stats,
                           /*budget=*/8);
  EXPECT_EQ(fixed.result, SatResult::kUnsat);
  EXPECT_EQ(fixed_stats.budget_exhaustions, 0u);
}

TEST_F(PortfolioSolverTest, StrategyKindNamesMatchRotationOrder) {
  // The JSONL per-strategy fields (bench/README.md) are keyed by these
  // names in rotation order; renaming or reordering a strategy must show
  // up here before it silently skews the bench schema.
  EXPECT_EQ(StrategyKindName(StrategyKind::kInterval), "interval");
  EXPECT_EQ(StrategyKindName(StrategyKind::kEnumeration), "enumeration");
  EXPECT_EQ(StrategyKindName(StrategyKind::kSearch), "search");
}

TEST(ClauseStoreTest, PublishAndRefute) {
  ExprPool pool;
  const Expr* a = pool.Var("a", VarOrigin::kInput);
  const Expr* b = pool.Var("b", VarOrigin::kInput);
  const Expr* c = pool.Var("c", VarOrigin::kInput);
  std::vector<const Expr*> core = {a, b};
  std::sort(core.begin(), core.end(), DetExprLess);

  ClauseStore store;
  EXPECT_EQ(store.published(), 0u);
  EXPECT_TRUE(store.Publish(core));
  EXPECT_EQ(store.published(), 1u);
  EXPECT_FALSE(store.Publish(core)) << "duplicate cores are not re-published";
  EXPECT_EQ(store.published(), 1u);

  auto in_abc = [&](const Expr* e) { return e == a || e == b || e == c; };
  auto in_ac = [&](const Expr* e) { return e == a || e == c; };
  // {a,b} is a subset of {a,b,c} but not of {a,c}.
  EXPECT_TRUE(store.RefutesByMember(a, store.published(), in_abc));
  EXPECT_FALSE(store.RefutesByMember(a, store.published(), in_ac));
  // Sequence bounds: a snapshot taken before publication sees nothing.
  EXPECT_FALSE(store.RefutesByMember(a, /*up_to=*/0, in_abc));
  EXPECT_TRUE(store.RefutesNewSince(/*after=*/0, store.published(), in_abc));
  EXPECT_FALSE(store.RefutesNewSince(/*after=*/1, store.published(), in_abc));
}

TEST(ClauseStoreTest, EvictionKeepsLearningAndFollowsHits) {
  ExprPool pool;
  const Expr* a = pool.Var("a", VarOrigin::kInput);
  const Expr* b = pool.Var("b", VarOrigin::kInput);
  const Expr* c = pool.Var("c", VarOrigin::kInput);
  const Expr* d = pool.Var("d", VarOrigin::kInput);
  auto core = [](std::vector<const Expr*> elems) {
    std::sort(elems.begin(), elems.end(), DetExprLess);
    return elems;
  };

  ClauseStore store(/*live_capacity=*/2, /*slot_capacity=*/8);
  ASSERT_TRUE(store.Publish(core({a, b})));  // seq 0
  ASSERT_TRUE(store.Publish(core({a, c})));  // seq 1
  EXPECT_EQ(store.evicted_count(), 0u);

  // Protect seq 0 with a screen hit: the eviction forced by the third core
  // must pick seq 1 (fewest hits; ties would go to the oldest).
  store.RecordHit(0);
  ASSERT_TRUE(store.Publish(core({a, d})));  // seq 2, evicts seq 1
  EXPECT_EQ(store.published(), 3u);
  EXPECT_EQ(store.evicted_count(), 1u);
  EXPECT_EQ(store.live_count(), 2u);
  EXPECT_TRUE(store.IsEvicted(1));

  // An evicted core no longer refutes...
  auto in_ac = [&](const Expr* e) { return e == a || e == c; };
  EXPECT_FALSE(store.RefutesByMember(a, store.published(), in_ac));
  EXPECT_FALSE(store.RefutesNewSince(0, store.published(), in_ac));
  // ...while the survivors still do.
  auto in_ab = [&](const Expr* e) { return e == a || e == b; };
  auto in_ad = [&](const Expr* e) { return e == a || e == d; };
  uint64_t hit_seq = 99;
  EXPECT_TRUE(store.RefutesByMember(a, store.published(), in_ab, &hit_seq));
  EXPECT_EQ(hit_seq, 0u);
  EXPECT_TRUE(store.RefutesByMember(a, store.published(), in_ad, &hit_seq));
  EXPECT_EQ(hit_seq, 2u);

  // A re-derived conflict re-learns into a fresh slot (dedup was purged).
  store.RecordHit(0);
  store.RecordHit(2);
  EXPECT_TRUE(store.Publish(core({a, c})));  // seq 3, evicts seq 2 (1 hit < 2)
  EXPECT_EQ(store.published(), 4u);
  EXPECT_EQ(store.evicted_count(), 2u);
  EXPECT_TRUE(store.RefutesByMember(a, store.published(), in_ac, &hit_seq));
  EXPECT_EQ(hit_seq, 3u);
}

// ---------------------------------------------------------------------------
// Engine-level: the portfolio (and its clause sharing) must not change what
// the engine concludes — only what the work costs.
// ---------------------------------------------------------------------------

// Everything observable about an engine run, rendered to one string so a
// mismatch diff shows exactly which facet diverged (same shape as
// root_cause_incremental_test.cc's signature).
std::string RunSignature(const Module& module, const Coredump& dump,
                         ResOptions options, bool portfolio,
                         ResStats* stats_out = nullptr) {
  options.solver_portfolio = portfolio;
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
  // The fixed-pipeline oracle: the reference signature.
  std::string oracle = RunSignature(module, dump, options, /*portfolio=*/false);
  std::string portfolio =
      RunSignature(module, dump, options, /*portfolio=*/true);
  EXPECT_EQ(oracle, portfolio)
      << label << ": portfolio diverged from the fixed-pipeline oracle";
}

TEST(SolverPortfolioTest, WorkloadCorpusIsModeInvariant) {
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

TEST(SolverPortfolioTest, DeepSuffixChainIsModeInvariant) {
  // The depth-scaling workload: a long linear chain keeps the incremental
  // solver contexts (and their conflict provenance) forked down a deep
  // chain.
  Module module = BuildRootCauseDistance(48);
  WorkloadSpec spec = WorkloadByName("semantic_assert");
  auto run = RunToFailure(module, spec, {});
  ASSERT_TRUE(run.ok());
  ResOptions options;
  options.max_units = 128;
  ExpectModeInvariant("root_cause_distance_48", module, run.value().dump,
                      options);
}

TEST(SolverPortfolioTest, MonolithicGatesAreModeInvariant) {
  // incremental_solving=false: every gate is a cold monolithic check, which
  // exercises the portfolio through the memo-cache path.
  Module module = BuildRacyCounter();
  const WorkloadSpec& spec = WorkloadByName("racy_counter");
  FailureRunOptions run_options;
  run_options.require_live_peers = spec.requires_live_peers;
  auto run = RunToFailure(module, spec, run_options);
  ASSERT_TRUE(run.ok());
  ResOptions options;
  options.incremental_solving = false;
  ExpectModeInvariant("racy_counter_monolithic", module, run.value().dump,
                      options);
}

TEST(SolverPortfolioTest, LearnedClausesAreReusedOnTheDeepChain) {
  // Full synthesis over the 4-worker interleaving space: sibling subtrees
  // repeatedly re-derive permutations of the same conflicting constraint
  // pairs over shared-ancestor havoc values, so the clause store must show
  // genuine reuse (hits), and the fixed-pipeline oracle — with clause
  // sharing off — must reach byte-identical conclusions without any.
  Module module = BuildRacyCounterWide(4);
  WorkloadSpec spec = WorkloadByName("racy_counter");
  FailureRunOptions run_options;
  run_options.require_live_peers = spec.requires_live_peers;
  auto run = RunToFailure(module, spec, run_options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ResOptions options;
  options.stop_at_root_cause = false;  // explore, don't stop at first cause
  options.max_units = 48;
  options.max_hypotheses = 1000;

  ResStats portfolio_stats;
  std::string portfolio = RunSignature(module, run.value().dump, options,
                                       /*portfolio=*/true, &portfolio_stats);
  ResStats oracle_stats;
  std::string oracle = RunSignature(module, run.value().dump, options,
                                    /*portfolio=*/false, &oracle_stats);
  EXPECT_EQ(oracle, portfolio)
      << "clause sharing changed the engine's conclusions";
  EXPECT_GT(portfolio_stats.solver.clauses_learned, 0u);
  EXPECT_GT(portfolio_stats.solver.clause_hits, 0u)
      << "no learned clause ever refuted a sibling hypothesis";
  EXPECT_EQ(oracle_stats.solver.clauses_learned, 0u);
  EXPECT_EQ(oracle_stats.solver.clause_hits, 0u);

  // Publication happens in commit order, so the hit count itself is
  // deterministic: a repeat run reproduces it.
  ResStats repeat_stats;
  EXPECT_EQ(portfolio, RunSignature(module, run.value().dump, options,
                                    /*portfolio=*/true, &repeat_stats));
  EXPECT_EQ(portfolio_stats.solver.clause_hits, repeat_stats.solver.clause_hits);
}

TEST(SolverPortfolioTest, TightBudgetStaysDeterministic) {
  // A starved budget may weaken verdicts (kUnknown instead of a decision),
  // which legitimately changes the search — but it must do so as a pure
  // function of the constraint sets: identical across repeated runs.
  Module module = BuildRootCauseDistance(16);
  WorkloadSpec spec = WorkloadByName("semantic_assert");
  auto run = RunToFailure(module, spec, {});
  ASSERT_TRUE(run.ok());
  ResOptions options;
  options.max_units = 64;
  options.solver_budget_steps = 16;
  std::string first =
      RunSignature(module, run.value().dump, options, /*portfolio=*/true);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(first, RunSignature(module, run.value().dump, options,
                                  /*portfolio=*/true))
        << "round " << round;
  }
}

}  // namespace
}  // namespace res
