// Learned-clause sharing must be observationally invisible: with
// ResOptions::clause_sharing on or off, the engine's StopReason, synthesized
// suffix, root causes, and hardware verdict must be byte-identical — the
// engine without sharing, where every hypothesis goes to its solver gate, is
// the reference the commit-order clause store is pinned to. On/off
// byte-identity is a corpus-level contract: a stored core refuting a set the
// incomplete solver alone would keep as kUnknown is a legitimate
// (sound-direction) divergence window — these tests pin that the window
// never opens on the corpus at default options (see docs/ARCHITECTURE.md
// §5.2). Repeat-run identity, by contrast, holds by construction: clause
// publication happens in commit order, so the screen verdicts — and with
// them the whole search — repeat exactly.
//
// What MAY differ between the modes is exactly the solver work economy:
// the learned-clause counters, which the last test pins directionally. The
// first tests pin the solver's one decision order and the cores it derives.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/ir/builder.h"
#include "src/res/res_api.h"
#include "src/support/string_util.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

namespace res {
namespace {

// ---------------------------------------------------------------------------
// Solver-level: the decision order, cores, and the clause store.
// ---------------------------------------------------------------------------

class SolverDecisionTest : public ::testing::Test {
 protected:
  SolveOutcome Run(const std::vector<const Expr*>& constraints,
                   SolverStats* stats) {
    Solver solver(&pool_, /*seed=*/1);
    return solver.Check(constraints, stats);
  }

  ExprPool pool_;
};

TEST_F(SolverDecisionTest, EnumerationRunsToTheFirstOdometerModel) {
  // x in [0, 65535] with 8191 < (x & 0xffff): interval tightening cannot
  // see through kAnd, so the check enumerates x upward from 0, and the
  // first point that fits is 8192. Enumeration runs to completion before
  // local search starts, so search takes no step.
  const Expr* x = pool_.Var("x", VarOrigin::kInput);
  std::vector<const Expr*> constraints = {
      pool_.Binary(BinOp::kLeS, pool_.Const(0), x),
      pool_.Binary(BinOp::kLeS, x, pool_.Const(65535)),
      pool_.Binary(BinOp::kLtS, pool_.Const(8191),
                   pool_.Binary(BinOp::kAnd, x, pool_.Const(0xffff))),
  };
  SolverStats stats;
  SolveOutcome out = Run(constraints, &stats);
  ASSERT_EQ(out.result, SatResult::kSat);
  EXPECT_EQ(out.model->at(x->var), 8192);
  EXPECT_EQ(stats.enumerated_points, 8193u);
  EXPECT_EQ(stats.search_steps, 0u);
}

TEST_F(SolverDecisionTest, EnumerationUnsatCarriesASoundCore) {
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
  SolveOutcome out = Run(constraints, &stats);
  ASSERT_EQ(out.result, SatResult::kUnsat);
  ASSERT_FALSE(out.core.empty());
  for (const Expr* c : out.core) {
    EXPECT_NE(std::find(constraints.begin(), constraints.end(), c),
              constraints.end())
        << "core constraint is not one of the inputs";
  }
  SolverStats core_stats;
  SolveOutcome recheck = Run(out.core, &core_stats);
  EXPECT_EQ(recheck.result, SatResult::kUnsat)
      << "the core alone must still be UNSAT";
}

TEST_F(SolverDecisionTest, PropagationConflictClosesCoreOverBindings) {
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
  SolveOutcome out = Run(constraints, &stats);
  ASSERT_EQ(out.result, SatResult::kUnsat);
  EXPECT_EQ(out.core.size(), 3u);
}

TEST_F(SolverDecisionTest, SearchWinsWhenEnumerationCannotApply) {
  // x & 3 == 3 with no range constraints: intervals stay infinite, so
  // enumeration is inapplicable and local search must find a model. The
  // trajectory is seeded from the constraint set's content hash, so this is
  // deterministic.
  const Expr* x = pool_.Var("x", VarOrigin::kInput);
  std::vector<const Expr*> constraints = {
      pool_.Eq(pool_.Binary(BinOp::kAnd, x, pool_.Const(3)), pool_.Const(3)),
  };
  SolverStats stats;
  SolveOutcome out = Run(constraints, &stats);
  ASSERT_EQ(out.result, SatResult::kSat);
  EXPECT_EQ((out.model->at(x->var) & 3), 3);
  EXPECT_EQ(stats.enumerated_points, 0u);
  EXPECT_GT(stats.search_steps, 0u);
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

// Core k of a store whose cores are {a, v_k}, DetExprLess-sorted.
std::vector<const Expr*> PairCore(const Expr* a, const Expr* v) {
  std::vector<const Expr*> core = {a, v};
  std::sort(core.begin(), core.end(), DetExprLess);
  return core;
}

TEST(ClauseStoreTest, SlabGrowsByChunkAndStopsAtCapacity) {
  // 150 slots is not a whole number of chunks, so the last chunk is partly
  // past the capacity.
  constexpr uint64_t kSlots = 150;
  ExprPool pool;
  const Expr* a = pool.Var("a", VarOrigin::kInput);
  std::vector<const Expr*> v;
  for (uint64_t k = 0; k <= kSlots; ++k) {
    v.push_back(pool.Var("v" + std::to_string(k), VarOrigin::kInput));
  }
  auto in_core = [&](uint64_t k) {
    return [&, k](const Expr* e) { return e == a || e == v[k]; };
  };

  ClauseStore store(kSlots);
  for (uint64_t k = 0; k < kSlots; ++k) {
    ASSERT_TRUE(store.Publish(PairCore(a, v[k]))) << "seq " << k;
  }
  const uint64_t published = store.published();
  EXPECT_EQ(published, kSlots);
  for (uint64_t k = 0; k < kSlots; ++k) {
    EXPECT_EQ(store.CoreElems(k), PairCore(a, v[k])) << "seq " << k;
    EXPECT_TRUE(store.RefutesByMember(v[k], published, in_core(k)))
        << "seq " << k;
    EXPECT_TRUE(store.RefutesNewSince(k, published, in_core(k)))
        << "seq " << k;
    EXPECT_FALSE(store.RefutesNewSince(k + 1, published, in_core(k)))
        << "seq " << k;
  }

  // The slab is full: a new core is refused, and nothing is forgotten.
  EXPECT_FALSE(store.Publish(PairCore(a, v[kSlots])));
  EXPECT_EQ(store.published(), kSlots);
  EXPECT_TRUE(store.RefutesByMember(v[0], kSlots, in_core(0)));

  store.Clear();
  EXPECT_EQ(store.published(), 0u);
  for (uint64_t k : {uint64_t{0}, uint64_t{64}, uint64_t{149}}) {
    EXPECT_FALSE(store.RefutesByMember(v[k], kSlots, in_core(k)));
    EXPECT_FALSE(store.RefutesNewSince(0, kSlots, in_core(k)));
  }
  ASSERT_TRUE(store.Publish(PairCore(a, v[149])));
  EXPECT_EQ(store.published(), 1u);
  EXPECT_TRUE(store.RefutesByMember(v[149], 1, in_core(149)));
  EXPECT_TRUE(store.RefutesNewSince(0, 1, in_core(149)));
}

TEST(ClauseStoreTest, ScreensWhilePromotionCrossesChunks) {
  // One publisher fills 16 chunks while three readers screen the newest
  // published core, as engines screen against a promoted store that Promote
  // extends.
  constexpr uint64_t kCapacity = 1000;
  constexpr int kReaders = 3;
  ExprPool pool;
  const Expr* a = pool.Var("a", VarOrigin::kInput);
  std::vector<const Expr*> v;
  for (uint64_t k = 0; k <= kCapacity; ++k) {
    v.push_back(pool.Var("v" + std::to_string(k), VarOrigin::kInput));
  }
  std::vector<std::vector<const Expr*>> cores;
  for (const Expr* var : v) {
    cores.push_back(PairCore(a, var));
  }

  ClauseStore store(kCapacity);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> refused_in_capacity{0};
  std::atomic<bool> refused_past_capacity{false};
  std::thread publisher([&] {
    for (uint64_t k = 0; k < kCapacity; ++k) {
      if (!store.Publish(cores[k])) {
        refused_in_capacity.fetch_add(1);
      }
      std::this_thread::yield();
    }
    refused_past_capacity = !store.Publish(cores[kCapacity]);
    done.store(true, std::memory_order_release);
  });

  std::atomic<uint64_t> screens{0};
  std::atomic<uint64_t> misses{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      // Ends one screen after the publisher does.
      for (bool last = false; !last;) {
        last = done.load(std::memory_order_acquire);
        const uint64_t n = store.published();
        if (n == 0) {
          continue;
        }
        const uint64_t seq = n - 1;
        auto contains = [&](const Expr* e) { return e == a || e == v[seq]; };
        // Only core seq holds v[seq], and the window [seq, n) holds only
        // core seq, so both screens name it.
        const bool refuted = store.RefutesByMember(v[seq], n, contains) &&
                             store.RefutesNewSince(seq, n, contains) &&
                             store.CoreElems(seq) == cores[seq];
        misses.fetch_add(refuted ? 0 : 1);
        screens.fetch_add(1);
      }
    });
  }
  publisher.join();
  for (std::thread& t : readers) {
    t.join();
  }

  EXPECT_EQ(refused_in_capacity.load(), 0u);
  EXPECT_TRUE(refused_past_capacity.load());
  EXPECT_EQ(store.published(), kCapacity);
  EXPECT_GE(screens.load(), static_cast<uint64_t>(kReaders));
  EXPECT_EQ(misses.load(), 0u) << "of " << screens.load() << " screens";
}

// ---------------------------------------------------------------------------
// Engine-level: clause sharing must not change what the engine concludes —
// only what the work costs.
// ---------------------------------------------------------------------------

// Everything observable about an engine run, rendered to one string so a
// mismatch diff shows exactly which facet diverged: engine_golden_test.cc's
// rendering plus each cause's taint flag and threads.
std::string RunSignature(const Module& module, const Coredump& dump,
                         ResOptions options, bool sharing,
                         ResStats* stats_out = nullptr) {
  options.clause_sharing = sharing;
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

void ExpectSharingInvariant(const char* label, const Module& module,
                            const Coredump& dump, ResOptions options) {
  // Sharing off: the reference signature.
  std::string reference = RunSignature(module, dump, options, /*sharing=*/false);
  std::string shared = RunSignature(module, dump, options, /*sharing=*/true);
  EXPECT_EQ(reference, shared)
      << label << ": clause sharing diverged from the gate-only reference";
}

TEST(ClauseSharingTest, WorkloadCorpusIsSharingInvariant) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    Module module = spec.build();
    FailureRunOptions run_options;
    run_options.require_live_peers = spec.requires_live_peers;
    auto run = RunToFailure(module, spec, run_options);
    ASSERT_TRUE(run.ok()) << spec.name << ": " << run.status().ToString();
    ExpectSharingInvariant(spec.name.c_str(), module, run.value().dump,
                           ResOptions{});
  }
}

TEST(ClauseSharingTest, DeepSuffixChainIsSharingInvariant) {
  // The depth-scaling workload: a long linear chain keeps the incremental
  // solver contexts (and their conflict provenance) forked down a deep
  // chain.
  Module module = BuildRootCauseDistance(48);
  WorkloadSpec spec = WorkloadByName("semantic_assert");
  auto run = RunToFailure(module, spec, {});
  ASSERT_TRUE(run.ok());
  ResOptions options;
  options.max_units = 128;
  ExpectSharingInvariant("root_cause_distance_48", module, run.value().dump,
                         options);
}

TEST(ClauseSharingTest, LearnedClausesAreReusedOnTheDeepChain) {
  // Full synthesis over the 4-worker interleaving space: sibling subtrees
  // repeatedly re-derive permutations of the same conflicting constraint
  // pairs over shared-ancestor havoc values, so the clause store must show
  // genuine reuse (hits), and the reference with clause sharing off must
  // reach byte-identical conclusions without any.
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

  ResStats shared_stats;
  std::string shared = RunSignature(module, run.value().dump, options,
                                    /*sharing=*/true, &shared_stats);
  ResStats reference_stats;
  std::string reference = RunSignature(module, run.value().dump, options,
                                       /*sharing=*/false, &reference_stats);
  EXPECT_EQ(reference, shared)
      << "clause sharing changed the engine's conclusions";
  EXPECT_GT(shared_stats.solver.clauses_learned, 0u);
  EXPECT_GT(shared_stats.solver.clause_hits, 0u)
      << "no learned clause ever refuted a sibling hypothesis";
  EXPECT_EQ(reference_stats.solver.clauses_learned, 0u);
  EXPECT_EQ(reference_stats.solver.clause_hits, 0u);

  // Publication happens in commit order, so the hit count itself is
  // deterministic: a repeat run reproduces it.
  ResStats repeat_stats;
  EXPECT_EQ(shared, RunSignature(module, run.value().dump, options,
                                 /*sharing=*/true, &repeat_stats));
  EXPECT_EQ(shared_stats.solver.clause_hits, repeat_stats.solver.clause_hits);
}

}  // namespace
}  // namespace res
