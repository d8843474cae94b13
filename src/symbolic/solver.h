// Constraint solver over the Expr language.
//
// This replaces STP/KLEE's solver in the authors' prototype. It is *sound*:
// kSat answers carry a model that has been re-verified against every input
// constraint, and kUnsat is returned only via complete reasoning (constant
// contradiction, equality-propagation conflict, empty interval, or
// exhaustive enumeration of finite domains). Anything else is kUnknown,
// which RES treats conservatively (hypothesis kept, marked unverified).
//
// One decision procedure: after equality propagation, three steps run over
// the residual in a fixed order, each to completion under constant limits —
// interval tightening, exhaustive enumeration of small finite domains, then
// randomized local search — and the check returns the first definitive
// verdict. When all three give up, the answer is kUnknown.
//
// Incremental solving (the RES hot path): a SolverContext persists the
// equality-propagation bindings, interval state, and simplified residual of
// a hypothesis's constraint prefix, so CheckIncremental only propagates the
// constraints appended since the previous check. Two fast paths run before
// any propagation: re-evaluating the fresh constraints under the parent
// hypothesis's cached SAT model, and a memoized check cache keyed by an
// order-insensitive hash of the interned constraint-pointer set. The cache
// key is maintained *incrementally* on the SolverContext (a commutative
// hash over the distinct absorbed constraints plus a structurally-shared
// membership set), so the cold-path cache gate streams the input once —
// hits verify set equality by membership and absorb the stored canonical
// vector without ever sorting; only misses (which pay a full solve anyway)
// canonicalize.
//
// UNSAT cores: definitive kUnsat verdicts carry a minimized conflict — the
// subset of *input* constraints that alone is unsatisfiable — derived from
// provenance tracked through equality propagation (which source constraints
// produced each binding), interval tightening (which constraint set each
// bound), and enumeration (the residual that excluded every point); every
// check tracks it. Cores are capped at a fixed size (kMaxCoreSize in
// solver.cc); oversized conflicts are simply not reported. The reverse
// engine interns cores into a shared ClauseStore so sibling hypotheses
// repeating the conflict refute in O(1).
#ifndef RES_SYMBOLIC_SOLVER_H_
#define RES_SYMBOLIC_SOLVER_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/support/counters.h"
#include "src/support/faultpoint.h"
#include "src/support/persistent.h"
#include "src/support/rng.h"
#include "src/support/status.h"
#include "src/symbolic/expr.h"

namespace res {

enum class SatResult : uint8_t { kSat = 0, kUnsat = 1, kUnknown = 2 };

struct SolveOutcome {
  SatResult result = SatResult::kUnknown;
  // The witness, iff result == kSat (null otherwise). Immutable and shared:
  // the context that produced it, the check cache and the caller all hold
  // the same object.
  std::shared_ptr<const Assignment> model;
  // For kUnsat only: a minimized conflict — a DetExprLess-sorted, deduped
  // subset of the *input* constraints whose conjunction is itself UNSAT.
  // Empty when no small core could be derived (soundness never depends on
  // it; it exists purely so callers can learn and share the conflict).
  std::vector<const Expr*> core;
  // Non-OK only when the "solver.strategy" fault site fired on this check
  // (result is then kUnknown and nothing was cached). The engine treats it
  // as a task-fatal internal failure, not a solver verdict.
  Status fault;
};

// Closed interval over int64 with the usual lattice operations; empty when
// lo > hi. Used by interval propagation and persisted per SolverContext.
struct Interval {
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();

  bool empty() const { return lo > hi; }
  bool finite() const {
    return lo != std::numeric_limits<int64_t>::min() ||
           hi != std::numeric_limits<int64_t>::max();
  }
  // Width as unsigned count of points; saturates.
  uint64_t width() const {
    if (empty()) {
      return 0;
    }
    uint64_t w = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    return w == std::numeric_limits<uint64_t>::max() ? w : w + 1;
  }
};

// Identity of one memoized cold-check key: the commutative content hash of
// the deduped constraint set and its cardinality. This is what the
// cross-task promotion protocol publishes (see CheckCache): a promoted key
// makes every cache entry for that set visible to all engine epochs.
struct CheckKey {
  uint64_t set_key = 0;
  uint32_t distinct = 0;
};

// Every SolverStats counter, once (see src/support/counters.h).
#define RES_SOLVER_STATS(SUM, SUM_AS)                                          \
  SUM_AS(checks, solver_checks)  /* satisfiability checks issued */            \
  SUM(incremental_checks)        /* checks that reused a warm context */       \
  SUM(eq_bindings)               /* equality bindings propagated */            \
  SUM(interval_cuts)             /* interval bounds tightened */               \
  SUM(enumerated_points)         /* enumeration points tried */                \
  SUM(search_steps)              /* local-search mutation steps */             \
  SUM(propagation_rounds)        /* phase-1 fixpoint iterations */             \
  SUM(propagated_constraints)    /* per-constraint substitution visits */      \
  SUM(model_reuse_hits)          /* SAT via the cached-model fast path */      \
  SUM(cache_hits)                /* memoized check-cache hits */               \
  SUM(cache_misses)              /* checks the memo cache could not answer */  \
  SUM(sat)                       /* checks answered SAT */                     \
  SUM(unsat)                     /* checks answered UNSAT */                   \
  SUM(unknown)                   /* checks answered unknown */                 \
  SUM(clauses_learned)           /* UNSAT cores published to the store */      \
  SUM(clause_hits)               /* hypotheses refuted by a stored core */     \
  /* Hypotheses refuted by a core promoted from an earlier task's run          \
     (deterministic: screened against a store snapshot fixed at engine         \
     construction). */                                                         \
  SUM(promoted_clause_hits)                                                    \
  /* Cache hits whose entry was visible only through key promotion, i.e.       \
     another task's cold solve (scheduling-dependent, like the other cache     \
     counters). */                                                             \
  SUM(promoted_cache_hits)

struct SolverStats {
  RES_SOLVER_STATS(RES_COUNTER_FIELD, RES_COUNTER_FIELD)
  // Journal of the cold-check keys this run consulted the shared cache for.
  // The engine merges per-step journals in commit order, so a completed
  // run's journal is a pure function of the committed search — it is what
  // the triage daemon promotes (TriageStats::cache_promotions).
  std::vector<CheckKey> cold_check_keys;

  SolverStats& operator+=(const SolverStats& o) {
    RES_SOLVER_STATS(RES_COUNTER_SUM, RES_COUNTER_SUM)
    cold_check_keys.insert(cold_check_keys.end(), o.cold_check_keys.begin(),
                           o.cold_check_keys.end());
    return *this;
  }
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    RES_SOLVER_STATS(RES_COUNTER_VISIT, RES_COUNTER_VISIT_AS)
  }
};

struct SolverOptions {
  // --- Fault injection (see src/support/faultpoint.h). ---
  // Plan consulted by the "solver.strategy" site at every check; nullptr
  // falls back to the RES_FAULT_PLAN env plan. Not part of the solver
  // fingerprint: a fired fault returns before anything is cached or
  // learned, so it cannot poison cross-task reuse.
  FaultPlan* fault_plan = nullptr;
  int fault_task = FaultPlan::kAnyTask;
};

// Largest conflict (in constraints) still reported as an UNSAT core.
inline constexpr size_t kMaxCoreSize = 12;

// Per-hypothesis persistent solving state. The reverse engine stores one per
// hypothesis and copies it when a hypothesis forks; all cached facts are
// monotone (constraints are only ever appended), so a child context remains
// valid for every extension of the parent's constraint vector. A copy costs
// O(delta): the binding and interval maps are persistent (structurally
// shared with the parent), the witness model is a shared immutable object,
// and a provenance entry holds its sources inline.
//
// Thread-safety: a SolverContext belongs to exactly one hypothesis and must
// only be passed to one check at a time (it is mutable per-chain state).
// Copy-forking a context that no thread is currently checking is safe from
// any thread.
class SolverContext {
 public:
  SolverContext() = default;

  // Provenance of a derived fact: the input constraints it follows from.
  // Deduped and capped at kMaxCoreSize, so the sources live inline and a
  // copy never allocates; `overflow` poisons facts whose dependency set
  // outgrew the cap (no core will be derived through them).
  struct Prov {
    std::array<const Expr*, kMaxCoreSize> srcs{};
    uint8_t size = 0;
    bool overflow = false;

    const Expr* const* begin() const { return srcs.data(); }
    const Expr* const* end() const { return srcs.data() + size; }
  };

  // Prefix of the constraint vector already absorbed into bindings/residual.
  size_t absorbed() const { return absorbed_; }

 private:
  friend class Solver;

  Bindings bindings_;
  // Which source constraints produced each binding (aligned with bindings_).
  PersistentMap<VarId, Prov> binding_prov_;
  PersistentMap<VarId, Interval> intervals_;
  // Which source constraints set each var's current lo / hi bound.
  PersistentMap<VarId, std::pair<Prov, Prov>> interval_prov_;
  std::vector<const Expr*> residual_;  // simplified, non-constant survivors
  std::vector<Prov> residual_prov_;    // aligned with residual_
  size_t absorbed_ = 0;
  // Order-insensitive content hash (XOR of det_hash) of the absorbed
  // multiset; seeds the local-search RNG so every check's randomness is a
  // pure function of the constraint set rather than of global call order.
  uint64_t det_set_hash_ = 0;
  // Witness from the last SAT answer; null when the last answer was not SAT.
  std::shared_ptr<const Assignment> model_;
  bool unsat_ = false;   // a previous check proved the prefix UNSAT
  // The minimized conflict behind unsat_, when one was derivable.
  std::vector<const Expr*> conflict_core_;
};

// Shared learned-clause store: minimized UNSAT cores interned as sets of
// constraint pointers, so any hypothesis whose constraint set contains a
// stored core is refuted in O(|core|) membership probes, without a solver
// call. Sharded like the check cache: the per-constraint index (which cores
// contain this constraint?) is striped across independently locked shards,
// while the core slots themselves are an append-only array published
// through an atomic count (acquire/release), so readers never lock the
// payload. The array is a chunk table sized once from `capacity`; a chunk
// of slots is allocated when its first seq is published, before the count
// advances past it, so a store that learns little costs little. A full
// store refuses further cores: the search stops learning, it never forgets.
//
// Determinism protocol (see docs/ARCHITECTURE.md): each store has one
// logical publisher — a run-local store the engine's commit loop, in commit
// order; a module's promoted store ResRuntime::Promote, in submission
// order — which makes the sequence numbering, and therefore any query
// bounded by a published() snapshot, a pure function of the committed
// prefix of the search. Concurrent engines may read a promoted store while
// it is published to.
class ClauseStore {
 public:
  explicit ClauseStore(size_t capacity = 16384)
      : capacity_(capacity),
        chunks_((capacity_ + kChunkSlots - 1) / kChunkSlots) {}

  // Publishes a core (DetExprLess-sorted, deduped). Single-publisher: only
  // the engine's commit thread calls this. Returns true when the core was
  // new (not a duplicate) and a slot was available.
  bool Publish(std::vector<const Expr*> core);

  // Cores published so far (acquire; safe from any thread). Seq values are
  // stable until Clear.
  uint64_t published() const { return count_.load(std::memory_order_acquire); }

  // The core behind `seq` (publisher / post-run readers).
  const std::vector<const Expr*>& CoreElems(uint64_t seq) const {
    return Slot(seq);
  }

  // Does a core with seq < up_to containing `member` refute the set probed
  // by `contains`? `contains` must answer membership for the querying
  // hypothesis's constraint set.
  template <typename ContainsFn>
  bool RefutesByMember(const Expr* member, uint64_t up_to,
                       const ContainsFn& contains) const {
    uint64_t limit = std::min(up_to, published());
    const Shard& shard = shards_[ShardOf(member)];
    std::vector<uint32_t> ids;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.by_member.find(member);
      if (it == shard.by_member.end()) {
        return false;
      }
      ids = it->second;  // copy out: probe cores without holding the lock
    }
    for (uint32_t id : ids) {
      if (id < limit && CoreSubsetOf(Slot(id), contains)) {
        return true;
      }
    }
    return false;
  }

  // Does any core with seq in [after, up_to) refute the probed set?
  template <typename ContainsFn>
  bool RefutesNewSince(uint64_t after, uint64_t up_to,
                       const ContainsFn& contains) const {
    uint64_t limit = std::min(up_to, published());
    for (uint64_t id = after; id < limit; ++id) {
      if (CoreSubsetOf(Slot(id), contains)) {
        return true;
      }
    }
    return false;
  }

  // Drops every published core and resets seq numbering to 0. The substrate
  // eviction hook for ResRuntime::ReclaimSubstrate: promoted cores hold
  // Expr* into the shared pool, so they must be cleared before the pool
  // reclaims. REQUIRES quiescence (no engine holds a watermark over this
  // store): Clear breaks the "seq values are stable" guarantee, which is
  // only sound when nobody is watching.
  void Clear();

 private:
  using Core = std::vector<const Expr*>;  // sorted by DetExprLess, deduped
  static constexpr size_t kChunkSlots = 64;
  static constexpr size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<const Expr*, std::vector<uint32_t>> by_member;
  };

  // The slot behind `seq`. Its chunk exists once Publish has reached `seq`,
  // so any seq below published() is safe to read.
  Core& Slot(uint64_t seq) {
    return chunks_[seq / kChunkSlots][seq % kChunkSlots];
  }
  const Core& Slot(uint64_t seq) const {
    return chunks_[seq / kChunkSlots][seq % kChunkSlots];
  }
  static size_t ShardOf(const Expr* e) {
    return (reinterpret_cast<uintptr_t>(e) >> 4) % kShards;
  }
  template <typename ContainsFn>
  static bool CoreSubsetOf(const Core& core, const ContainsFn& contains) {
    for (const Expr* e : core) {
      if (!contains(e)) {
        return false;
      }
    }
    return true;
  }

  size_t capacity_;
  // kChunkSlots slots per chunk; never resized. Chunk k is null until seq
  // k * kChunkSlots is published, and Clear frees every chunk.
  std::vector<std::unique_ptr<Core[]>> chunks_;
  std::atomic<uint64_t> count_{0};     // published prefix of the slots
  std::array<Shard, kShards> shards_;  // member -> core ids (may run ahead
                                       // of count_; queries bound by it)
  // Publisher-private dedup index (commit thread only; no locking).
  std::unordered_map<uint64_t, std::vector<uint32_t>> dedup_;
};

// Memoized cold-check cache, extracted from the Solver so a ResRuntime can
// share one instance across every engine it hosts. Soundness of sharing
// rests on the pure-function contract (see Solver below): a cold check's
// outcome is a function of (constraint set, solver fingerprint) only, so
// whichever thread — in whichever engine — computes a set
// first stores exactly the verdict and model any other would have.
//
// Cross-task isolation: every entry is tagged with the owning engine's
// epoch. A lookup sees entries of its own epoch (exactly the cache a solo
// run would have built) plus entries for *promoted* keys — constraint sets
// published module-globally by a batch commit thread, in dump-submission
// order, after the owning task committed them (the check-cache half of the
// ResRuntime promotion protocol; the clause half is ClauseStore). Entries
// additionally carry the solver fingerprint, so engines whose solvers have
// different seeds never exchange outcomes.
//
// Thread-safety: fully thread-safe; striped shards exactly like the old
// in-Solver cache, plus a mutex-guarded promoted-key set.
class CheckCache {
 public:
  template <typename ContainsFn>
  bool Lookup(const CheckKey& k, uint64_t fingerprint, uint32_t epoch,
              const ContainsFn& contains, SolveOutcome* out,
              std::vector<const Expr*>* canonical, bool* via_promotion) {
    const bool promoted = IsPromoted(PromoKey(k, fingerprint));
    CacheShard& shard = shards_[k.set_key % kCacheShards];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(k.set_key);
    if (it == shard.map.end()) {
      return false;
    }
    for (const Entry& entry : it->second) {
      if (entry.key.size() != k.distinct || entry.fingerprint != fingerprint ||
          (entry.epoch != epoch && !promoted)) {
        continue;
      }
      // Exact set equality by membership (sizes match, both sides deduped).
      bool equal = true;
      for (const Expr* e : entry.key) {
        if (!contains(e)) {
          equal = false;
          break;
        }
      }
      if (equal) {
        *out = entry.outcome;    // copy out: the slot may be cleared later
        *canonical = entry.key;  // the stored canonical (sorted) vector
        if (via_promotion != nullptr) {
          *via_promotion = entry.epoch != epoch;
        }
        return true;
      }
    }
    return false;
  }

  void Store(const CheckKey& k, uint64_t fingerprint, uint32_t epoch,
             std::vector<const Expr*> sorted_unique,
             const SolveOutcome& outcome);

  // Marks the constraint set identified by `k` module-global: entries for
  // it (from any epoch, present or future) become visible to every engine
  // sharing this cache. Batch commit threads call this in dump-submission
  // order. Returns true when the key was newly promoted.
  bool Promote(const CheckKey& k, uint64_t fingerprint);

  uint64_t promoted_keys() const;

  // Drops every entry and every promoted key. The substrate eviction hook
  // for ResRuntime::ReclaimSubstrate: entries hold Expr* into the shared
  // pool, so the cache must be emptied before the pool reclaims. Cost-only
  // (outcomes are memoized pure functions); REQUIRES quiescence — no
  // concurrent Lookup/Store.
  void Clear();

 private:
  struct Entry {
    std::vector<const Expr*> key;  // sorted, deduped constraint pointers
    uint32_t epoch = 0;        // owning engine run
    uint64_t fingerprint = 0;  // solver seed + fixed limits
    SolveOutcome outcome;
  };
  static constexpr size_t kCacheShards = 16;
  struct CacheShard {
    std::mutex mu;
    std::unordered_map<uint64_t, std::vector<Entry>> map;
    size_t entries = 0;
  };

  static uint64_t PromoKey(const CheckKey& k, uint64_t fingerprint);
  bool IsPromoted(uint64_t promo_key) const {
    // Fast path: solver-private caches (and runtimes before any batch
    // committed) never promote, so the hot cold-check path skips the
    // mutex entirely.
    if (promoted_count_.load(std::memory_order_acquire) == 0) {
      return false;
    }
    std::lock_guard<std::mutex> lock(promoted_mu_);
    return promoted_.count(promo_key) != 0;
  }

  std::array<CacheShard, kCacheShards> shards_;
  mutable std::mutex promoted_mu_;
  std::unordered_set<uint64_t> promoted_;
  std::atomic<uint64_t> promoted_count_{0};
};

// Thread-safety: Check / CheckIncremental / EnumerateValues may be called
// concurrently from any number of threads PROVIDED each concurrent call (a)
// passes a distinct SolverContext (or none) and (b) passes a distinct
// `stats` sink — passing nullptr routes counters to the solver's internal
// stats, which is only safe single-threaded. The memoized check cache is
// striped across independently locked shards and is shared by all callers;
// this is sound because every cold-check outcome is a pure function of the
// constraint *set* (cold checks canonicalize their propagation order by
// DetExprLess and derive their local-search RNG seed from the set's content
// hash), so whichever thread computes a set first stores the same verdict
// and model any other thread would have.
class Solver {
 public:
  // `shared_cache`, when given, replaces the solver's private memo cache
  // (the ResRuntime wiring); `cache_epoch` is this engine run's isolation
  // tag in it — see CheckCache. The default (private cache, epoch 0) is
  // byte-identical to the historical behavior.
  explicit Solver(ExprPool* pool, uint64_t seed = 1, SolverOptions options = {},
                  CheckCache* shared_cache = nullptr, uint32_t cache_epoch = 0);

  // Is the conjunction of `constraints` satisfiable? Monolithic entry point:
  // propagates the whole vector against a cold context (still memoized).
  SolveOutcome Check(const std::vector<const Expr*>& constraints,
                     SolverStats* stats = nullptr);

  // Incremental entry point: `constraints` must extend the vector `ctx` last
  // saw by appending only. Propagates just the suffix past ctx->absorbed().
  SolveOutcome CheckIncremental(SolverContext* ctx,
                                const std::vector<const Expr*>& constraints,
                                SolverStats* stats = nullptr);

  // Persistent-vector entry point: the reverse engine stores hypothesis
  // constraint vectors structurally shared (O(delta) forks); this overload
  // consumes them without materializing — a warm incremental check copies
  // only the fresh suffix past ctx->absorbed().
  SolveOutcome CheckIncremental(SolverContext* ctx,
                                const PersistentVector<const Expr*>& constraints,
                                SolverStats* stats = nullptr);

  // Distinct values `target` can take subject to `constraints` (up to
  // `limit`). `complete` is set true when the returned set is provably
  // exhaustive. Used for pointer concretization (paper §2.4's omitted
  // "symbolic addresses" case). When the "solver.strategy" fault site fires
  // on one of its checks, the enumeration stops, returns no values, and
  // stores the injected error in `*fault` (when given) — like
  // SolveOutcome::fault, a task-fatal failure rather than an answer.
  std::vector<int64_t> EnumerateValues(const Expr* target,
                                       const std::vector<const Expr*>& constraints,
                                       size_t limit, bool* complete,
                                       SolverStats* stats = nullptr,
                                       Status* fault = nullptr);

  const SolverStats& stats() const { return stats_; }
  // Hash of the seed and the solver's fixed limits; the shared-cache
  // partition tag (see CheckCache) and the promotion key salt.
  uint64_t fingerprint() const { return fingerprint_; }

 private:
  // Non-owning view over either constraint-vector representation, so the
  // check core is written once. CopySuffix materializes [from, size()); the
  // full vector is only ever materialized on the cold cache path.
  struct ConstraintInput {
    const std::vector<const Expr*>* vec = nullptr;
    const PersistentVector<const Expr*>* pvec = nullptr;

    size_t size() const { return vec != nullptr ? vec->size() : pvec->size(); }
    void CopySuffix(size_t from, std::vector<const Expr*>* out) const {
      if (vec != nullptr) {
        out->insert(out->end(), vec->begin() + from, vec->end());
      } else {
        pvec->AppendSuffixTo(from, out);
      }
    }
    // True when every constraint evaluates nonzero under `model`.
    bool AllSatisfied(const Assignment& model) const;
  };

  SolveOutcome CheckWith(SolverContext* ctx, const ConstraintInput& constraints,
                         SolverStats* stats);
  // Phase 1: absorb `fresh` (the constraints not yet seen by `ctx`) into the
  // context (substitution + equality extraction to fixpoint) and advance
  // ctx->absorbed_ to `new_absorbed` (the caller's full vector length —
  // `fresh` may be a deduplicated/canonicalized copy of that suffix).
  void Propagate(SolverContext* ctx, const std::vector<const Expr*>& fresh,
                 size_t new_absorbed, SolverStats* stats);
  // The decision procedures over ctx's residual, called in this order. Each
  // runs to completion and returns true when it decided, filling `out` (SAT
  // with a model, UNSAT with a core). TightenIntervals also returns the
  // residual's free variables in the order the other two consume.
  bool TightenIntervals(SolverContext* ctx, std::vector<VarId>* order,
                        SolveOutcome* out, SolverStats* stats) const;
  bool Enumerate(SolverContext* ctx, const ConstraintInput& constraints,
                 const std::vector<VarId>& order, SolveOutcome* out,
                 SolverStats* stats);
  bool Search(SolverContext* ctx, const ConstraintInput& constraints,
              const std::vector<VarId>& order, SolveOutcome* out,
              SolverStats* stats);
  // Completes `free_assignment` into a full model (bound vars evaluated from
  // their bindings), re-verifies every input constraint, and fills `out` on
  // success.
  bool FinishSat(SolverContext* ctx, const ConstraintInput& constraints,
                 Assignment free_assignment, SolveOutcome* out,
                 SolverStats* stats);
  // Derives the UNSAT core for a conflict seeded by `seeds` (input-
  // constraint provenance of the contradicting facts), closing over the
  // bindings the contradiction substituted through. Empty when the closure
  // exceeds kMaxCoreSize.
  std::vector<const Expr*> BuildCore(
      const SolverContext& ctx,
      const std::vector<const SolverContext::Prov*>& seeds) const;

  ExprPool* pool_;
  uint64_t seed_;
  SolverOptions options_;
  SolverStats stats_;  // sink for callers that pass no explicit stats
  // The memo cache: private by default, a ResRuntime's shared instance when
  // one was passed at construction. Entries are partitioned by fingerprint_
  // so solvers with different seeds sharing a cache never adopt each
  // other's verdicts.
  CheckCache own_cache_;
  CheckCache* cache_;
  uint32_t cache_epoch_;
  uint64_t fingerprint_;
};

}  // namespace res

#endif  // RES_SYMBOLIC_SOLVER_H_
