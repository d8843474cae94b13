#include "src/symbolic/solver.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "src/support/hash.h"

namespace res {

namespace {

constexpr int64_t kIntMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kIntMax = std::numeric_limits<int64_t>::max();

// Fixed solver limits. Each one can change a check's outcome, so each is
// part of the solver fingerprint.
constexpr size_t kMaxPropagationRounds = 32;  // phase-1 fixpoint cap
constexpr size_t kMaxEnumVars = 4;            // exhaustive enumeration caps
constexpr uint64_t kMaxEnumPoints = 65536;
constexpr uint64_t kSearchRestarts = 8;
constexpr uint64_t kSearchSteps = 512;        // per restart
// Memo cache bound (a shard resets when it fills its share).
constexpr size_t kCheckCacheMaxEntries = 1 << 18;

// splitmix64 finalizer: decorrelates det_hash values before the commutative
// XOR fold of the cache key, so structurally-related constraints do not
// cancel each other systematically.
uint64_t MixKey(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// Tries to rewrite Eq(lhs, rhs) into a binding var := expr by peeling
// invertible operations (add/sub/xor with the variable on one side).
// Returns the variable and the solved expression, or nullopt.
struct SolvedEq {
  VarId var;
  const Expr* value;
};

std::optional<SolvedEq> SolveForVar(ExprPool* pool, const Expr* lhs, const Expr* rhs) {
  // Normalize: keep the side containing structure on the left.
  for (int peel = 0; peel < 64; ++peel) {
    if (lhs->is_var()) {
      std::unordered_set<VarId> rhs_vars;
      CollectVars(rhs, &rhs_vars);
      if (rhs_vars.count(lhs->var) != 0) {
        return std::nullopt;  // occurs check
      }
      return SolvedEq{lhs->var, rhs};
    }
    if (rhs->is_var()) {
      std::swap(lhs, rhs);
      continue;
    }
    if (lhs->kind != ExprKind::kBinary) {
      if (rhs->kind == ExprKind::kBinary) {
        std::swap(lhs, rhs);
        continue;
      }
      return std::nullopt;
    }
    // lhs = (op a b); move the constant-free side out.
    const Expr* a = lhs->a;
    const Expr* b = lhs->b;
    switch (lhs->bin_op) {
      case BinOp::kAdd:
        if (b->is_const()) {
          rhs = pool->Binary(BinOp::kSub, rhs, b);
          lhs = a;
          continue;
        }
        if (a->is_const()) {
          rhs = pool->Binary(BinOp::kSub, rhs, a);
          lhs = b;
          continue;
        }
        return std::nullopt;
      case BinOp::kSub:
        if (b->is_const()) {
          rhs = pool->Binary(BinOp::kAdd, rhs, b);
          lhs = a;
          continue;
        }
        if (a->is_const()) {
          // a - x == rhs  =>  x == a - rhs
          rhs = pool->Binary(BinOp::kSub, a, rhs);
          lhs = b;
          continue;
        }
        return std::nullopt;
      case BinOp::kXor:
        if (b->is_const()) {
          rhs = pool->Binary(BinOp::kXor, rhs, b);
          lhs = a;
          continue;
        }
        if (a->is_const()) {
          rhs = pool->Binary(BinOp::kXor, rhs, a);
          lhs = b;
          continue;
        }
        return std::nullopt;
      case BinOp::kMul:
        // Only invert multiplication by +-1 (odd-constant inversion exists
        // but is not needed by our workloads and complicates soundness).
        if (b->is_const() && (b->value == 1 || b->value == -1)) {
          rhs = pool->Binary(BinOp::kMul, rhs, b);
          lhs = a;
          continue;
        }
        return std::nullopt;
      default:
        return std::nullopt;
    }
  }
  return std::nullopt;
}

// Extracts (var, offset) from expressions of the form var or (add var c).
std::optional<std::pair<VarId, int64_t>> AsVarPlusConst(const Expr* e) {
  if (e->is_var()) {
    return std::make_pair(e->var, int64_t{0});
  }
  if (e->kind == ExprKind::kBinary && e->bin_op == BinOp::kAdd && e->a->is_var() &&
      e->b->is_const()) {
    return std::make_pair(e->a->var, e->b->value);
  }
  return std::nullopt;
}

int64_t SatSub(int64_t a, int64_t b) {
  // a - b with saturation (intervals only; wraparound constraints fall back
  // to search, which re-verifies, so saturation here is sound).
  __int128 r = static_cast<__int128>(a) - static_cast<__int128>(b);
  if (r < kIntMin) return kIntMin;
  if (r > kIntMax) return kIntMax;
  return static_cast<int64_t>(r);
}

using Prov = SolverContext::Prov;

// The provenance of an input constraint: itself.
Prov SourceProv(const Expr* c) {
  Prov p;
  p.srcs[0] = c;
  p.size = 1;
  return p;
}

// Merges `from` into `into`, deduping by pointer; growing past the core
// cap, or merging a poisoned Prov, poisons.
void MergeProv(Prov* into, const Prov& from) {
  if (from.overflow) {
    into->overflow = true;
  }
  for (const Expr* e : from) {
    if (into->overflow) {
      break;
    }
    if (std::find(into->begin(), into->end(), e) != into->end()) {
      continue;
    }
    if (into->size == kMaxCoreSize) {
      into->overflow = true;
      break;
    }
    into->srcs[into->size++] = e;
  }
  if (into->overflow) {
    into->size = 0;
  }
}

using IntervalMap = PersistentMap<VarId, Interval>;
using IntervalProvMap = PersistentMap<VarId, std::pair<Prov, Prov>>;

void TightenFromComparison(IntervalMap* intervals, IntervalProvMap* interval_prov,
                           const Expr* e, const Prov& prov, SolverStats* stats) {
  if (e->kind != ExprKind::kBinary) {
    return;
  }
  // Sets v's bound (`lo` or hi) to `bound` with `prov` behind it, when that
  // tightens the current one.
  auto tighten = [&](VarId v, int64_t bound, bool lo) {
    const Interval* cur = intervals->Find(v);
    Interval iv = cur != nullptr ? *cur : Interval{};
    if (lo ? bound <= iv.lo : bound >= iv.hi) {
      return;
    }
    (lo ? iv.lo : iv.hi) = bound;
    intervals->Set(v, iv);
    const std::pair<Prov, Prov>* cur_prov = interval_prov->Find(v);
    std::pair<Prov, Prov> provs =
        cur_prov != nullptr ? *cur_prov : std::pair<Prov, Prov>{};
    (lo ? provs.first : provs.second) = prov;
    interval_prov->Set(v, provs);
    ++stats->interval_cuts;
  };
  auto tighten_hi = [&](VarId v, int64_t hi) { tighten(v, hi, false); };
  auto tighten_lo = [&](VarId v, int64_t lo) { tighten(v, lo, true); };
  auto tighten_eq = [&](VarId v, int64_t c) {
    tighten_lo(v, c);
    tighten_hi(v, c);
  };

  const Expr* a = e->a;
  const Expr* b = e->b;
  switch (e->bin_op) {
    case BinOp::kEq:
      if (auto va = AsVarPlusConst(a); va && b->is_const()) {
        tighten_eq(va->first, SatSub(b->value, va->second));
      } else if (auto vb = AsVarPlusConst(b); vb && a->is_const()) {
        tighten_eq(vb->first, SatSub(a->value, vb->second));
      }
      break;
    case BinOp::kLtS:
      if (auto va = AsVarPlusConst(a); va && b->is_const()) {
        tighten_hi(va->first, SatSub(SatSub(b->value, 1), va->second));
      } else if (auto vb = AsVarPlusConst(b); vb && a->is_const()) {
        tighten_lo(vb->first, SatSub(a->value == kIntMax ? kIntMax
                                                         : a->value + 1,
                                     vb->second));
      }
      break;
    case BinOp::kLeS:
      if (auto va = AsVarPlusConst(a); va && b->is_const()) {
        tighten_hi(va->first, SatSub(b->value, va->second));
      } else if (auto vb = AsVarPlusConst(b); vb && a->is_const()) {
        tighten_lo(vb->first, SatSub(a->value, vb->second));
      }
      break;
    case BinOp::kLtU:
      // x <u c with c >= 0 implies 0 <= x < c in the signed order too.
      if (a->is_var() && b->is_const() && b->value > 0) {
        tighten_lo(a->var, 0);
        tighten_hi(a->var, b->value - 1);
      }
      break;
    case BinOp::kLeU:
      if (a->is_var() && b->is_const() && b->value >= 0) {
        tighten_lo(a->var, 0);
        tighten_hi(a->var, b->value);
      }
      break;
    default:
      break;
  }
}

// Substitution to a per-expression fixpoint. A single Substitute pass
// replaces a variable with its binding value verbatim; that value may itself
// mention variables bound *after* it was recorded (binding values are never
// back-patched), so one pass can leave bound variables behind. Iterating
// until stable resolves the whole chain; bindings are acyclic (SolveForVar's
// occurs check runs on fully-substituted sides), so this terminates.
const Expr* SubstituteFix(ExprPool* pool, const Expr* e,
                          const Bindings& bindings) {
  for (int i = 0; i < 64; ++i) {
    const Expr* s = Substitute(pool, e, bindings);
    if (s == e) {
      return e;
    }
    e = s;
  }
  return e;
}

}  // namespace

namespace {

// Pure function of everything that can change a check's outcome (the seed
// and the solver's fixed limits): a solver only ever adopts a shared-cache
// entry written by a solver that would have computed the identical result
// itself, and the promotion protocol tags promoted cold-check keys with it.
uint64_t SolverFingerprint(uint64_t seed) {
  uint64_t f = HashCombine(0x5e55u, seed);
  f = HashCombine(f, kMaxPropagationRounds);
  f = HashCombine(f, kMaxEnumVars);
  f = HashCombine(f, kMaxEnumPoints);
  f = HashCombine(f, kSearchRestarts);
  f = HashCombine(f, kSearchSteps);
  f = HashCombine(f, kMaxCoreSize);
  return f;
}

}  // namespace

Solver::Solver(ExprPool* pool, uint64_t seed, SolverOptions options,
               CheckCache* shared_cache, uint32_t cache_epoch)
    : pool_(pool),
      seed_(seed),
      options_(options),
      cache_(shared_cache != nullptr ? shared_cache : &own_cache_),
      cache_epoch_(cache_epoch),
      fingerprint_(SolverFingerprint(seed)) {}

// --- Learned-clause store. ---

void ClauseStore::Clear() {
  // Quiesced by contract (see header); locks taken so misuse is loud.
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.by_member.clear();
  }
  dedup_.clear();
  for (std::unique_ptr<Core[]>& chunk : chunks_) {
    chunk.reset();
  }
  count_.store(0, std::memory_order_release);
}

bool ClauseStore::Publish(std::vector<const Expr*> core) {
  if (core.empty()) {
    return false;
  }
  uint64_t count = count_.load(std::memory_order_relaxed);
  if (count >= capacity_) {
    return false;  // store full: stop learning
  }
  uint64_t h = 0;
  for (const Expr* e : core) {
    h ^= MixKey(e->det_hash);
  }
  auto& bucket = dedup_[h];
  for (uint32_t id : bucket) {
    if (Slot(id) == core) {
      return false;  // already learned
    }
  }
  uint32_t id = static_cast<uint32_t>(count);
  if (id % kChunkSlots == 0) {
    chunks_[id / kChunkSlots] = std::make_unique<Core[]>(kChunkSlots);
  }
  Core& slot = Slot(id);
  slot = std::move(core);
  bucket.push_back(id);
  for (const Expr* e : slot) {
    Shard& shard = shards_[ShardOf(e)];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.by_member[e].push_back(id);
  }
  // Release: the slot, its chunk and its index entries are fully written
  // before the published count advances past it.
  count_.store(count + 1, std::memory_order_release);
  return true;
}

// --- Memoized check cache (striped; shared, through ResRuntime, across
//     concurrently running engines). ---

void CheckCache::Store(const CheckKey& k, uint64_t fingerprint, uint32_t epoch,
                       std::vector<const Expr*> sorted_unique,
                       const SolveOutcome& outcome) {
  CacheShard& shard = shards_[k.set_key % kCacheShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.entries >= kCheckCacheMaxEntries / kCacheShards) {
    shard.map.clear();
    shard.entries = 0;
  }
  shard.map[k.set_key].push_back(
      Entry{std::move(sorted_unique), epoch, fingerprint, outcome});
  ++shard.entries;
}

uint64_t CheckCache::PromoKey(const CheckKey& k, uint64_t fingerprint) {
  return HashCombine(HashCombine(k.set_key, k.distinct), fingerprint);
}

bool CheckCache::Promote(const CheckKey& k, uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(promoted_mu_);
  bool inserted = promoted_.insert(PromoKey(k, fingerprint)).second;
  if (inserted) {
    promoted_count_.store(promoted_.size(), std::memory_order_release);
  }
  return inserted;
}

uint64_t CheckCache::promoted_keys() const {
  return promoted_count_.load(std::memory_order_acquire);
}

void CheckCache::Clear() {
  for (CacheShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
    shard.entries = 0;
  }
  std::lock_guard<std::mutex> lock(promoted_mu_);
  promoted_.clear();
  promoted_count_.store(0, std::memory_order_release);
}

// --- Phase 1: incremental equality propagation (with conflict provenance). -

void Solver::Propagate(SolverContext* ctx, const std::vector<const Expr*>& fresh,
                       size_t new_absorbed, SolverStats* stats) {
  assert(ctx->absorbed_ <= new_absorbed);
  const std::vector<const Expr*>& pending = fresh;
  ctx->absorbed_ = new_absorbed;
  for (const Expr* c : pending) {
    ctx->det_set_hash_ ^= c->det_hash;
  }
  if (ctx->unsat_ || pending.empty()) {
    return;
  }

  auto conflict = [&](const Prov& prov) {
    ctx->unsat_ = true;
    std::vector<const SolverContext::Prov*> seeds{&prov};
    ctx->conflict_core_ = BuildCore(*ctx, seeds);
  };
  auto record_binding = [&](VarId var, const Expr* value, const Prov& prov) {
    ctx->bindings_.Set(var, value);
    // Transitive store-time provenance: the creating constraint plus the
    // provenance of every binding already substituted into the stored
    // value. Late bindings (vars still free in `value`) are closed over at
    // core-build time instead.
    Prov p = prov;
    std::unordered_set<VarId> deps;
    CollectVars(value, &deps);
    for (VarId d : deps) {
      if (const Prov* dp = ctx->binding_prov_.Find(d)) {
        MergeProv(&p, *dp);
      }
    }
    ctx->binding_prov_.Set(var, p);
  };
  // A bound variable's provenance (record_binding keeps the maps aligned).
  auto binding_prov = [&](VarId var) -> const Prov& {
    const Prov* p = ctx->binding_prov_.Find(var);
    assert(p != nullptr);
    return *p;
  };

  // Round 0 runs over the fresh suffix only: the cached residual is already
  // at fixpoint under the cached bindings, so it is revisited below only if
  // this round discovers new bindings.
  bool new_binding = false;
  {
    ++stats->propagation_rounds;
    std::vector<const Expr*> next;
    std::vector<Prov> next_prov;
    next.reserve(pending.size());
    for (const Expr* c : pending) {
      ++stats->propagated_constraints;
      const Prov prov = SourceProv(c);
      const Expr* s = SubstituteFix(pool_, c, ctx->bindings_);
      if (s->is_const()) {
        if (s->value == 0) {
          conflict(prov);
          return;
        }
        continue;  // satisfied; drop
      }
      if (s->kind == ExprKind::kBinary && s->bin_op == BinOp::kEq) {
        if (auto solved = SolveForVar(pool_, s->a, s->b)) {
          const Expr* const* bound = ctx->bindings_.Find(solved->var);
          if (bound == nullptr) {
            record_binding(solved->var,
                           SubstituteFix(pool_, solved->value, ctx->bindings_),
                           prov);
            ++stats->eq_bindings;
            new_binding = true;
            continue;
          }
          // Derived equality: follows from this constraint plus the
          // binding's sources.
          Prov merged = prov;
          MergeProv(&merged, binding_prov(solved->var));
          next.push_back(pool_->Eq(*bound, solved->value));
          next_prov.push_back(merged);
          continue;
        }
      }
      next.push_back(s);
      next_prov.push_back(prov);
    }
    ctx->residual_.insert(ctx->residual_.end(), next.begin(), next.end());
    ctx->residual_prov_.insert(ctx->residual_prov_.end(), next_prov.begin(),
                               next_prov.end());
  }
  if (!new_binding) {
    return;
  }

  // New bindings may simplify older residual constraints (and vice versa):
  // iterate the classic substitution fixpoint over the whole residual.
  for (size_t round = 0; round + 1 < kMaxPropagationRounds; ++round) {
    ++stats->propagation_rounds;
    new_binding = false;
    bool any_rewrite = false;
    std::vector<const Expr*> next;
    std::vector<Prov> next_prov;
    next.reserve(ctx->residual_.size());
    for (size_t i = 0; i < ctx->residual_.size(); ++i) {
      const Expr* c = ctx->residual_[i];
      const Prov& prov = ctx->residual_prov_[i];
      ++stats->propagated_constraints;
      const Expr* s = SubstituteFix(pool_, c, ctx->bindings_);
      if (s != c) {
        any_rewrite = true;
      }
      if (s->is_const()) {
        if (s->value == 0) {
          conflict(prov);
          return;
        }
        continue;
      }
      if (s->kind == ExprKind::kBinary && s->bin_op == BinOp::kEq) {
        if (auto solved = SolveForVar(pool_, s->a, s->b)) {
          const Expr* const* bound = ctx->bindings_.Find(solved->var);
          if (bound == nullptr) {
            record_binding(solved->var,
                           SubstituteFix(pool_, solved->value, ctx->bindings_),
                           prov);
            ++stats->eq_bindings;
            new_binding = true;
            continue;
          }
          Prov merged = prov;
          MergeProv(&merged, binding_prov(solved->var));
          next.push_back(pool_->Eq(*bound, solved->value));
          next_prov.push_back(merged);
          continue;
        }
      }
      next.push_back(s);
      next_prov.push_back(prov);
    }
    ctx->residual_ = std::move(next);
    ctx->residual_prov_ = std::move(next_prov);
    if (!new_binding && !any_rewrite) {
      break;
    }
  }
}

// --- UNSAT core derivation. ---

std::vector<const Expr*> Solver::BuildCore(
    const SolverContext& ctx,
    const std::vector<const SolverContext::Prov*>& seeds) const {
  const size_t cap = kMaxCoreSize;
  std::vector<const Expr*> core;
  std::unordered_set<const Expr*> in_core;
  std::unordered_set<VarId> visited;
  std::vector<VarId> worklist;
  auto queue_vars = [&](const Expr* e) {
    std::unordered_set<VarId> vars;
    CollectVars(e, &vars);
    for (VarId v : vars) {
      if (visited.insert(v).second) {
        worklist.push_back(v);
      }
    }
  };
  auto add = [&](const Expr* c) -> bool {
    if (!in_core.insert(c).second) {
      return true;
    }
    if (in_core.size() > cap) {
      return false;
    }
    core.push_back(c);
    queue_vars(c);
    return true;
  };
  for (const SolverContext::Prov* p : seeds) {
    if (p->overflow) {
      return {};
    }
    for (const Expr* c : *p) {
      if (!add(c)) {
        return {};
      }
    }
  }
  // Close over the bindings the conflict substituted through: each binding
  // used contributes its source constraints, and its *stored value*'s vars
  // cover bindings that resolved later in the substitution chain.
  while (!worklist.empty()) {
    VarId v = worklist.back();
    worklist.pop_back();
    const Expr* const* bound = ctx.bindings_.Find(v);
    if (bound == nullptr) {
      continue;
    }
    if (const SolverContext::Prov* p = ctx.binding_prov_.Find(v)) {
      if (p->overflow) {
        return {};
      }
      for (const Expr* c : *p) {
        if (!add(c)) {
          return {};
        }
      }
    }
    queue_vars(*bound);
  }
  std::sort(core.begin(), core.end(), DetExprLess);
  return core;
}

// --- Model completion + verification (shared by every SAT exit). ---

bool Solver::FinishSat(SolverContext* ctx, const ConstraintInput& constraints,
                       Assignment free_assignment, SolveOutcome* out,
                       SolverStats* stats) {
  // Complete the model: free vars from `free_assignment`, bound vars by
  // evaluating their binding expressions, then re-verify everything.
  Assignment model = std::move(free_assignment);
  // The bindings once, in ascending VarId order (ForEach's order).
  std::vector<std::pair<VarId, const Expr*>> bindings;
  ctx->bindings_.ForEach([&bindings](VarId var, const Expr* expr) {
    bindings.emplace_back(var, expr);
  });
  auto bound = [&bindings](VarId v) {
    auto it = std::lower_bound(
        bindings.begin(), bindings.end(), v,
        [](const std::pair<VarId, const Expr*>& b, VarId k) { return b.first < k; });
    return it != bindings.end() && it->first == v;
  };
  // Bindings may reference other vars; iterate to fixpoint. Every round but
  // the last evaluates at least one more binding.
  for (bool progress = true; progress;) {
    progress = false;
    for (const auto& [var, expr] : bindings) {
      if (model.count(var) != 0) {
        continue;
      }
      std::unordered_set<VarId> deps;
      CollectVars(expr, &deps);
      bool ready = true;
      for (VarId d : deps) {
        if (model.count(d) == 0 && bound(d)) {
          ready = false;
          break;
        }
      }
      if (ready) {
        model[var] = EvalExpr(expr, model);
        progress = true;
      }
    }
  }
  for (const auto& [var, expr] : bindings) {
    if (model.count(var) == 0) {
      model[var] = EvalExpr(expr, model);  // best effort on cycles
    }
  }
  if (!constraints.AllSatisfied(model)) {
    return false;
  }
  out->result = SatResult::kSat;
  out->model = std::make_shared<const Assignment>(std::move(model));
  ++stats->sat;
  return true;
}

// --- The decision procedures, in their fixed order. ---

// Interval tightening: one pass over the residual, then an emptiness check
// per free variable. Also orders the free variables by their content-derived
// uid (NOT VarId: ids vary with interning arrival order across thread
// counts) for enumeration and search.
bool Solver::TightenIntervals(SolverContext* ctx, std::vector<VarId>* order,
                              SolveOutcome* out, SolverStats* stats) const {
  std::unordered_set<VarId> free_vars;
  for (size_t i = 0; i < ctx->residual_.size(); ++i) {
    const Expr* c = ctx->residual_[i];
    CollectVars(c, &free_vars);
    TightenFromComparison(&ctx->intervals_, &ctx->interval_prov_, c,
                          ctx->residual_prov_[i], stats);
  }
  std::vector<std::pair<uint64_t, VarId>> keyed;
  keyed.reserve(free_vars.size());
  for (VarId v : free_vars) {
    keyed.emplace_back(pool_->var_uid(v), v);
  }
  std::sort(keyed.begin(), keyed.end());
  order->reserve(keyed.size());
  for (const auto& [uid, v] : keyed) {
    order->push_back(v);
  }
  for (VarId v : free_vars) {
    const Interval* iv = ctx->intervals_.Find(v);
    if (iv != nullptr && iv->empty()) {
      out->result = SatResult::kUnsat;
      if (const auto* provs = ctx->interval_prov_.Find(v)) {
        std::vector<const SolverContext::Prov*> seeds{&provs->first,
                                                      &provs->second};
        out->core = BuildCore(*ctx, seeds);
      }
      return true;
    }
  }
  return false;
}

// Exhaustive enumeration of small finite domains: an odometer over the
// interval-bounded product space. Complete exhaustion proves UNSAT.
bool Solver::Enumerate(SolverContext* ctx, const ConstraintInput& constraints,
                       const std::vector<VarId>& order, SolveOutcome* out,
                       SolverStats* stats) {
  if (order.empty() || order.size() > kMaxEnumVars) {
    return false;
  }
  uint64_t points = 1;
  std::vector<Interval> domain;  // aligned with `order`
  domain.reserve(order.size());
  for (VarId v : order) {
    const Interval* iv = ctx->intervals_.Find(v);
    if (iv == nullptr || !iv->finite()) {
      return false;
    }
    uint64_t w = iv->width();
    if (w == 0 || w > kMaxEnumPoints || points > kMaxEnumPoints / w) {
      return false;
    }
    points *= w;
    domain.push_back(*iv);
  }
  std::vector<int64_t> cursor(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    cursor[i] = domain[i].lo;
  }
  while (true) {
    ++stats->enumerated_points;
    Assignment candidate;
    for (size_t i = 0; i < order.size(); ++i) {
      candidate[order[i]] = cursor[i];
    }
    bool all_ok = true;
    for (const Expr* c : ctx->residual_) {
      if (EvalExpr(c, candidate) == 0) {
        all_ok = false;
        break;
      }
    }
    if (all_ok && FinishSat(ctx, constraints, candidate, out, stats)) {
      return true;
    }
    // Advance the odometer.
    size_t i = 0;
    for (; i < order.size(); ++i) {
      if (cursor[i] < domain[i].hi) {
        ++cursor[i];
        for (size_t j = 0; j < i; ++j) {
          cursor[j] = domain[j].lo;
        }
        break;
      }
    }
    if (i == order.size()) {
      // Exhausted: complete enumeration proves UNSAT. The core is the
      // residual that excluded every point plus the constraints that
      // bounded the enumerated domains.
      out->result = SatResult::kUnsat;
      std::vector<const SolverContext::Prov*> seeds;
      seeds.reserve(ctx->residual_prov_.size() + 2 * order.size());
      for (const Prov& p : ctx->residual_prov_) {
        seeds.push_back(&p);
      }
      for (VarId v : order) {
        if (const auto* provs = ctx->interval_prov_.Find(v)) {
          seeds.push_back(&provs->first);
          seeds.push_back(&provs->second);
        }
      }
      out->core = BuildCore(*ctx, seeds);
      return true;
    }
  }
}

// Randomized local search (sound for SAT only). The RNG is seeded from the
// constraint set's content hash, so the search trajectory — and hence the
// model found (or the failure to find one) — is a pure function of the
// constraint set: identical across runs, thread counts, and regardless of
// which other checks ran before this one.
bool Solver::Search(SolverContext* ctx, const ConstraintInput& constraints,
                    const std::vector<VarId>& order, SolveOutcome* out,
                    SolverStats* stats) {
  Rng rng(HashCombine(seed_, ctx->det_set_hash_));
  Assignment candidate;
  for (uint64_t restart = 0; restart < kSearchRestarts; ++restart) {
    candidate.clear();
    for (VarId v : order) {
      const Interval* iv = ctx->intervals_.Find(v);
      int64_t seed_value = 0;
      if (iv != nullptr && iv->finite()) {
        seed_value = restart == 0
                         ? iv->lo
                         : rng.NextInRange(std::max<int64_t>(iv->lo, -4096),
                                           std::min<int64_t>(iv->hi, 4096));
      } else if (restart > 0) {
        seed_value = static_cast<int64_t>(rng.NextBelow(257)) - 128;
      }
      candidate[v] = seed_value;
    }
    for (uint64_t step = 0; step < kSearchSteps; ++step) {
      ++stats->search_steps;
      const Expr* violated = nullptr;
      for (const Expr* c : ctx->residual_) {
        if (EvalExpr(c, candidate) == 0) {
          violated = c;
          break;
        }
      }
      if (violated == nullptr) {
        if (FinishSat(ctx, constraints, candidate, out, stats)) {
          return true;
        }
        break;  // verification failed: next restart
      }
      std::unordered_set<VarId> involved;
      CollectVars(violated, &involved);
      if (involved.empty()) {
        break;
      }
      // Deterministic pick order (uid, not VarId — see TightenIntervals).
      std::vector<std::pair<uint64_t, VarId>> vs;
      vs.reserve(involved.size());
      for (VarId iv : involved) {
        vs.emplace_back(pool_->var_uid(iv), iv);
      }
      std::sort(vs.begin(), vs.end());
      VarId v = vs[rng.NextBelow(vs.size())].second;
      int64_t old = candidate[v];
      // Mutations wrap in unsigned space: the search is free to roam the
      // whole int64 ring, and signed overflow would be UB.
      auto wrap_add = [](int64_t a, int64_t b) {
        return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                    static_cast<uint64_t>(b));
      };
      switch (rng.NextBelow(6)) {
        case 0: candidate[v] = wrap_add(old, 1); break;
        case 1: candidate[v] = wrap_add(old, -1); break;
        case 2: candidate[v] = 0; break;
        case 3:
          candidate[v] =
              wrap_add(old, static_cast<int64_t>(rng.NextBelow(64)) - 32);
          break;
        case 4: candidate[v] = static_cast<int64_t>(rng.Next()); break;
        default: {
          // Try to satisfy an equality directly: v := value making both
          // sides equal if the other side is evaluable.
          if (violated->kind == ExprKind::kBinary &&
              violated->bin_op == BinOp::kEq) {
            Assignment probe = candidate;
            probe.erase(v);
            if (violated->a->is_var() && violated->a->var == v) {
              candidate[v] = EvalExpr(violated->b, probe);
            } else if (violated->b->is_var() && violated->b->var == v) {
              candidate[v] = EvalExpr(violated->a, probe);
            } else {
              candidate[v] =
                  old ^ static_cast<int64_t>(1ULL << rng.NextBelow(16));
            }
          } else {
            candidate[v] =
                old ^ static_cast<int64_t>(1ULL << rng.NextBelow(16));
          }
          break;
        }
      }
    }
  }
  return false;  // search cannot prove UNSAT; it just runs dry
}

// --- Shared check core (propagation + the decision procedures). ---

bool Solver::ConstraintInput::AllSatisfied(const Assignment& model) const {
  if (vec != nullptr) {
    for (const Expr* c : *vec) {
      if (EvalExpr(c, model) == 0) {
        return false;
      }
    }
    return true;
  }
  bool ok = true;
  pvec->ForEach([&ok, &model](const Expr* c) {
    if (ok && EvalExpr(c, model) == 0) {
      ok = false;
    }
  });
  return ok;
}

RES_FAULT_SITE(kFaultSolver, "solver.strategy", StatusCode::kInternal);

SolveOutcome Solver::CheckWith(SolverContext* ctx,
                               const ConstraintInput& constraints,
                               SolverStats* stats) {
  SolveOutcome out;
  {
    Status fault = FaultScope{options_.fault_plan, options_.fault_task}
                       .Check(kFaultSolver);
    if (!fault.ok()) {
      // Bail before touching the context, the cache, or the clause store:
      // a faulted check must leave no reusable state behind.
      out.fault = std::move(fault);
      ++stats->unknown;
      return out;
    }
  }
  if (ctx->unsat_) {
    // Constraints are append-only, so a proven-UNSAT prefix stays UNSAT.
    out.result = SatResult::kUnsat;
    out.core = ctx->conflict_core_;
    ++stats->unsat;
    return out;
  }

  const size_t total = constraints.size();
  // The fresh suffix past the context's absorbed prefix: every phase below
  // consumes at most this slice (plus, on the cold cache path, one full
  // canonicalized copy) — the warm-check cost stays O(delta).
  std::vector<const Expr*> fresh;
  constraints.CopySuffix(ctx->absorbed_, &fresh);

  // Fast path 1: the fresh suffix may already hold under the cached model
  // (every absorbed constraint was verified against it when it was cached).
  if (ctx->model_ != nullptr) {
    bool model_ok = true;
    for (const Expr* c : fresh) {
      if (EvalExpr(c, *ctx->model_) == 0) {
        model_ok = false;
        break;
      }
    }
    if (model_ok) {
      ++stats->model_reuse_hits;
      // Still absorb the suffix so future UNSAT pruning keeps full power.
      Propagate(ctx, fresh, total, stats);
      // A model verified against every constraint trumps any propagation
      // verdict; the conjunction is SAT by construction.
      ctx->unsat_ = false;
      out.result = SatResult::kSat;
      out.model = ctx->model_;
      ++stats->sat;
      return out;
    }
  }

  // Fast path 2: memoized outcome for this exact constraint set. Only cold
  // contexts consult the cache; warm contexts skip it NOT for cost (the key
  // is an O(delta) commutative-hash update away) but for determinism: a
  // cached outcome is the *cold-canonical* verdict and model for the set,
  // which can differ from what this context's own (chain-ordered) state
  // would compute, and whether the entry exists depends on which checks
  // ran first — adopting it on a warm chain would make engine output depend
  // on check history (and, under a shared runtime, on timing).
  //
  // Determinism: cold checks absorb the *canonical* (DetExprLess-sorted,
  // deduped) vector, on hits and misses alike, so the context's binding /
  // residual evolution — and with it every later check on this context — is
  // a pure function of the constraint set, never of which thread populated
  // the cache first. Hits take the stored canonical vector as-is; only
  // misses (which pay a full solve anyway) sort.
  const bool use_cache = ctx->absorbed_ == 0;
  std::vector<const Expr*> cache_vec;
  CheckKey cache_key;
  if (use_cache) {
    // A cold context has absorbed nothing, so the full-set key is a
    // commutative mix over the distinct members of the fresh slice.
    std::unordered_set<const Expr*> fresh_members;
    fresh_members.reserve(fresh.size() * 2);
    for (const Expr* c : fresh) {
      if (fresh_members.insert(c).second) {
        cache_key.set_key ^= MixKey(c->det_hash);
      }
    }
    cache_key.distinct = static_cast<uint32_t>(fresh_members.size());
    // Journal the key (hit or miss) — but only when a shared cache makes
    // promotion possible: the engine merges these in commit order, and the
    // batch scheduler promotes a committed run's keys. Private-cache
    // solvers skip the bookkeeping entirely.
    if (cache_ != &own_cache_) {
      stats->cold_check_keys.push_back(cache_key);
    }
    auto contains = [&](const Expr* e) { return fresh_members.count(e) != 0; };
    SolveOutcome cached;
    std::vector<const Expr*> canonical;
    bool via_promotion = false;
    if (cache_->Lookup(cache_key, fingerprint_, cache_epoch_, contains, &cached,
                       &canonical, &via_promotion)) {
      ++stats->cache_hits;
      if (via_promotion) {
        ++stats->promoted_cache_hits;
      }
      Propagate(ctx, canonical, total, stats);
      if (cached.result == SatResult::kSat) {
        ctx->model_ = cached.model;
        ctx->unsat_ = false;
        ++stats->sat;
      } else {
        // Only definitive verdicts are stored, so this is kUnsat.
        ctx->model_ = nullptr;
        ctx->unsat_ = true;
        ctx->conflict_core_ = cached.core;
        ++stats->unsat;
      }
      return cached;
    }
    ++stats->cache_misses;
    cache_vec = fresh;
    std::sort(cache_vec.begin(), cache_vec.end(), DetExprLess);
    cache_vec.erase(std::unique(cache_vec.begin(), cache_vec.end()),
                    cache_vec.end());
  }

  auto record = [&](const SolveOutcome& o) {
    // kUnknown is a search failure, not a fact about the constraint set:
    // a later check of the same set (fresh rng state, warmer context) may
    // still decide it, so only definitive verdicts are memoized.
    if (use_cache && o.result != SatResult::kUnknown) {
      cache_->Store(cache_key, fingerprint_, cache_epoch_, std::move(cache_vec),
                    o);
    }
    if (o.result == SatResult::kSat) {
      ctx->model_ = o.model;
    } else {
      ctx->model_ = nullptr;
      if (o.result == SatResult::kUnsat) {
        ctx->unsat_ = true;
        ctx->conflict_core_ = o.core;
      }
    }
  };

  // --- Phase 1: simplification + equality propagation to fixpoint. ---
  if (use_cache) {
    Propagate(ctx, cache_vec, total, stats);
  } else {
    Propagate(ctx, fresh, total, stats);
  }

  if (ctx->unsat_) {
    out.result = SatResult::kUnsat;
    out.core = ctx->conflict_core_;
    ++stats->unsat;
    record(out);
    return out;
  }
  if (ctx->residual_.empty()) {
    if (FinishSat(ctx, constraints, {}, &out, stats)) {
      record(out);
      return out;
    }
    // Verification failed (e.g. a binding cycle); fall through to the
    // decision procedures (search may still complete a model).
  }

  // --- The decision procedures over the residual, each to completion. ---
  std::vector<VarId> order;
  if (TightenIntervals(ctx, &order, &out, stats) ||
      Enumerate(ctx, constraints, order, &out, stats) ||
      Search(ctx, constraints, order, &out, stats)) {
    if (out.result == SatResult::kUnsat) {
      ++stats->unsat;
    }
    record(out);
    return out;
  }
  out.result = SatResult::kUnknown;
  ++stats->unknown;
  record(out);
  return out;
}

SolveOutcome Solver::Check(const std::vector<const Expr*>& constraints,
                           SolverStats* stats) {
  SolverStats* st = stats != nullptr ? stats : &stats_;
  ++st->checks;
  SolverContext cold;
  ConstraintInput input;
  input.vec = &constraints;
  return CheckWith(&cold, input, st);
}

SolveOutcome Solver::CheckIncremental(SolverContext* ctx,
                                      const std::vector<const Expr*>& constraints,
                                      SolverStats* stats) {
  SolverStats* st = stats != nullptr ? stats : &stats_;
  ++st->checks;
  if (ctx->absorbed_ > 0 || ctx->model_ != nullptr || ctx->unsat_) {
    ++st->incremental_checks;
  }
  ConstraintInput input;
  input.vec = &constraints;
  return CheckWith(ctx, input, st);
}

SolveOutcome Solver::CheckIncremental(
    SolverContext* ctx, const PersistentVector<const Expr*>& constraints,
    SolverStats* stats) {
  SolverStats* st = stats != nullptr ? stats : &stats_;
  ++st->checks;
  if (ctx->absorbed_ > 0 || ctx->model_ != nullptr || ctx->unsat_) {
    ++st->incremental_checks;
  }
  ConstraintInput input;
  input.pvec = &constraints;
  return CheckWith(ctx, input, st);
}

std::vector<int64_t> Solver::EnumerateValues(
    const Expr* target, const std::vector<const Expr*>& constraints, size_t limit,
    bool* complete, SolverStats* stats, Status* fault) {
  SolverStats* st = stats != nullptr ? stats : &stats_;
  *complete = false;
  std::vector<int64_t> values;
  std::vector<const Expr*> work = constraints;
  // The work vector is append-only (one exclusion constraint per found
  // value), so one warm context serves the whole enumeration.
  SolverContext ctx;
  ConstraintInput input;
  input.vec = &work;
  for (size_t i = 0; i < limit + 1; ++i) {
    ++st->checks;
    SolveOutcome outcome = CheckWith(&ctx, input, st);
    if (!outcome.fault.ok()) {
      if (fault != nullptr) {
        *fault = std::move(outcome.fault);
      }
      return {};
    }
    if (outcome.result == SatResult::kUnsat) {
      *complete = true;  // no further values exist
      return values;
    }
    if (outcome.result != SatResult::kSat) {
      return values;  // incomplete
    }
    int64_t v = EvalExpr(target, *outcome.model);
    if (values.size() >= limit) {
      return values;  // one more value exists than we may return
    }
    values.push_back(v);
    work.push_back(pool_->Ne(target, pool_->Const(v)));
  }
  return values;
}

}  // namespace res
