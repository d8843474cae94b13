// Hash-consed symbolic expression DAG over 64-bit bitvectors.
//
// This is the KLEE-substitute at the heart of RES's symbolic snapshots
// (paper §2.3): snapshot locations hold either concrete words or Expr nodes
// ("stand-ins for any possible value ... subject to constraints"). All nodes
// are interned in an ExprPool, so structural equality is pointer equality
// and snapshots can share structure freely.
#ifndef RES_SYMBOLIC_EXPR_H_
#define RES_SYMBOLIC_EXPR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/ir/opcode.h"
#include "src/support/persistent.h"
#include "src/support/status.h"

namespace res {

using VarId = uint32_t;

enum class ExprKind : uint8_t {
  kConst = 0,
  kVar = 1,
  kBinary = 2,
  kSelect = 3,
};

// Binary operators (semantics identical to the VM's EvalBinary).
enum class BinOp : uint8_t {
  kAdd, kSub, kMul, kDivS, kRemS, kAnd, kOr, kXor, kShl, kShrL, kShrA,
  kEq, kNe, kLtS, kLeS, kLtU, kLeU,
};

std::string_view BinOpName(BinOp op);
// Maps an ALU opcode to its BinOp; asserts on non-ALU opcodes.
BinOp BinOpFromOpcode(Opcode op);

// Immutable interned node. Never construct directly; use ExprPool.
//
// Thread-safety: nodes are immutable after interning, so any number of
// threads may read a node concurrently without synchronization (they must
// have received the pointer through a synchronized edge, which interning
// under the shard mutex, or the constant cache's acquire load, provides).
struct Expr {
  ExprKind kind;
  BinOp bin_op = BinOp::kAdd;
  // kConst: the constant. kVar: the variable's deterministic uid (see
  // ExprPool::var_uid) — stored here so content-based ordering and hashing
  // need no pool lookup. Code must check kind before interpreting `value` as a
  // constant (is_const() guards every such use).
  int64_t value = 0;
  VarId var = 0;              // kVar
  uint32_t id = 0;            // pool-assigned, unique (NOT deterministic)
  const Expr* a = nullptr;    // kBinary lhs / kSelect cond
  const Expr* b = nullptr;    // kBinary rhs / kSelect if-true
  const Expr* c = nullptr;    // kSelect if-false
  // Content hash: a pure function of the expression's structure (and var
  // uids), identical across runs and thread counts. The basis for every
  // ordering decision that must be deterministic under parallel interning.
  uint64_t det_hash = 0;

  bool is_const() const { return kind == ExprKind::kConst; }
  bool is_var() const { return kind == ExprKind::kVar; }
};

// Deterministic strict-weak order on interned expressions: compares content
// hashes, breaking the (astronomically rare) collisions structurally. Unlike
// ordering by `id` or by pointer, the result is identical across runs and
// thread counts, which keeps canonicalized solver decisions reproducible.
int DetExprCompare(const Expr* x, const Expr* y);
inline bool DetExprLess(const Expr* x, const Expr* y) {
  if (x == y) {
    return false;
  }
  if (x->det_hash != y->det_hash) {
    return x->det_hash < y->det_hash;
  }
  return DetExprCompare(x, y) < 0;
}

// Metadata about a symbolic variable (why it exists).
enum class VarOrigin : uint8_t {
  kHavocReg = 0,    // register overwritten by a reversed block
  kHavocMem = 1,    // memory word overwritten by a reversed block
  kInput = 2,       // external input consumed inside the suffix
  kUnknown = 3,
};

// The prefix of a reverse-engine variable's rendered name.
enum class VarTag : uint8_t { kReg = 0, kMem = 1, kIn = 2 };

// Integer identity of a reverse-engine variable: the creating task's
// deterministic namespace, its per-task sequence number and a tag. The pool
// stores the integers, never a string; VarKeyName renders the name
// "<tag>_<ns hex>_<seq>" only where one is printed (ExprToString).
struct VarKey {
  VarTag tag = VarTag::kReg;
  uint32_t seq = 0;
  uint64_t ns = 0;

  bool operator==(const VarKey&) const = default;
};

std::string VarKeyName(const VarKey& key);
// The key whose VarKeyName is exactly `name`, if there is one: "reg_1a_3"
// parses, while "reg_01a_3" and "reg_1A_3" do not (they do not render back).
std::optional<VarKey> ParseVarKeyName(std::string_view name);

// Owning, interning factory. Smart constructors simplify aggressively:
// constant folding, algebraic identities, select folding — so "concrete in,
// concrete out" holds wherever the coredump pins values.
//
// Nodes live in bump-allocated arena chunks. Each shard indexes its nodes
// in an open-addressing array of (mixed 64-bit hash, Expr*) slots: a probe
// compares hashes before it dereferences a node, and a miss claims an arena
// slot and an index slot, so interning allocates only when an arena chunk
// fills or an index array doubles. Const() first consults a direct-mapped
// cache of recently interned constants.
//
// Thread-safety: fully thread-safe. The intern index and arenas are striped
// into kShardCount independently locked shards (selected by content hash),
// so engines interning concurrently over a shared runtime pool contend only
// on same-shard collisions. The constant cache is lock-free: its entries
// are atomic pointers to immutable nodes. The variable registry has its own
// mutex; var_origin() and var_uid() read under it and copy no string.
// Interned node *reads* take no lock (see Expr).
class ExprPool {
 public:
  ExprPool();
  ExprPool(const ExprPool&) = delete;
  ExprPool& operator=(const ExprPool&) = delete;

  const Expr* Const(int64_t value);
  const Expr* True() { return Const(1); }
  const Expr* False() { return Const(0); }
  // Registers a fresh variable (same name twice yields two distinct vars).
  // The two-argument form derives the deterministic uid from the name and
  // registration order — fine for single-threaded callers. Concurrent
  // callers must pass an explicit collision-free uid (the reverse engine
  // derives one from its per-task namespace) or sort order becomes
  // schedule-dependent.
  const Expr* Var(const std::string& name, VarOrigin origin);
  const Expr* Var(const std::string& name, VarOrigin origin, uint64_t uid);
  // Content-addressed variant for pools shared across engine runs (the
  // ResRuntime substrate): returns the existing variable when (key, uid)
  // was already registered, registering a fresh one otherwise (a key that
  // comes back with another uid gets a new variable, which the key then
  // names). Within a single run the reverse engine's keys are collision-free
  // (they hold the deterministic task namespace), so InternVar behaves like
  // Var there; across runs over the same module, identical search positions
  // re-intern to the same node — which is what makes constraints, check
  // cache entries, and learned clauses pointer-comparable across tasks.
  // Cross-run hits are counted in var_intern_hits() (scheduling-dependent
  // when engines run concurrently; a reuse gauge, not an oracle).
  const Expr* InternVar(const VarKey& key, VarOrigin origin, uint64_t uid);
  const Expr* Binary(BinOp op, const Expr* a, const Expr* b);
  const Expr* Select(const Expr* cond, const Expr* if_true, const Expr* if_false);

  // Convenience.
  const Expr* Eq(const Expr* a, const Expr* b) { return Binary(BinOp::kEq, a, b); }
  const Expr* Ne(const Expr* a, const Expr* b) { return Binary(BinOp::kNe, a, b); }
  const Expr* Add(const Expr* a, const Expr* b) { return Binary(BinOp::kAdd, a, b); }
  // Boolean negation of a 0/1 expression (or any expression, != 0 semantics).
  const Expr* Not(const Expr* e);

  // The variable's printed name: its key rendered by VarKeyName, or the
  // string it was registered under.
  std::string var_name(VarId id) const;
  VarOrigin var_origin(VarId id) const;
  // Deterministic ordering key. VarIds are assigned in interning-arrival
  // order, which varies across thread counts; uids are derived from the
  // creator's deterministic namespace (reverse engine) or from the name
  // (legacy callers), so semantic decisions sort by uid instead of id.
  uint64_t var_uid(VarId id) const;
  size_t var_count() const;
  size_t node_count() const;
  // Cross-run variable reuse: InternVar calls answered by an existing
  // registration instead of minting a fresh variable.
  uint64_t var_intern_hits() const;

  // Drops every interned node and registered variable and empties the
  // constant cache, returning the pool to its empty just-constructed
  // baseline (cumulative counters like var_intern_hits survive). Returns
  // the number of nodes freed. This is the reclaimable-epoch hook for
  // long-lived shared pools: a standing daemon whose pool outgrows its
  // budget reclaims between waves instead of growing forever. REQUIRES
  // external quiescence — no concurrent pool use, and every holder of
  // Expr* / VarId from this pool (check caches, clause stores, synthesized
  // suffixes) dropped or cleared first; stale pointers dangle after
  // reclaim. ResRuntime::ReclaimSubstrate orchestrates that ordering —
  // callers should go through it rather than calling this directly.
  size_t Reclaim();
  // Completed Reclaim() calls (monotone across the pool's lifetime).
  uint64_t reclaim_epochs() const;

 private:
  static constexpr size_t kArenaChunkNodes = 1024;
  static constexpr size_t kShardCount = 16;
  static constexpr size_t kConstCacheSize = 1024;  // a power of two
  static constexpr uint32_t kNoName = UINT32_MAX;

  // Open-addressing hash index of (hash, handle) slots: linear probing over
  // a power-of-two array kept at most 3/4 full; Handle{} marks an empty
  // slot. Unsynchronized — the owner's mutex guards it.
  template <typename Handle>
  class FlatIndex {
   public:
    struct Slot {
      uint64_t hash = 0;
      Handle handle{};
    };
    // The slot holding a handle stored under `hash` that satisfies `eq`, or
    // else the empty slot where such a handle belongs. `eq` only sees
    // handles whose stored hash equals `hash`.
    template <typename Eq>
    Slot* Probe(uint64_t hash, Eq eq) {
      if (slots_.empty()) {
        slots_.resize(kMinSlots);
      }
      const size_t mask = slots_.size() - 1;
      for (size_t i = hash & mask;; i = (i + 1) & mask) {
        Slot& slot = slots_[i];
        if (slot.handle == Handle{} || (slot.hash == hash && eq(slot.handle))) {
          return &slot;
        }
      }
    }
    // Fills the empty slot Probe returned; the pointer is stale afterwards.
    void Fill(Slot* slot, uint64_t hash, Handle handle) {
      slot->hash = hash;
      slot->handle = handle;
      if (++used_ * 4 > slots_.size() * 3) {
        Grow();
      }
    }
    void Clear() {
      std::vector<Slot>().swap(slots_);
      used_ = 0;
    }

   private:
    static constexpr size_t kMinSlots = 64;

    void Grow() {
      std::vector<Slot> old(slots_.size() * 2);
      old.swap(slots_);
      const size_t mask = slots_.size() - 1;
      for (const Slot& slot : old) {
        if (slot.handle == Handle{}) {
          continue;
        }
        size_t i = slot.hash & mask;
        while (slots_[i].handle != Handle{}) {
          i = (i + 1) & mask;
        }
        slots_[i] = slot;
      }
    }

    std::vector<Slot> slots_;  // empty, or a power-of-two size
    size_t used_ = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::vector<std::unique_ptr<Expr[]>> arena;  // fixed-size, bump-filled
    size_t count = 0;
    FlatIndex<const Expr*> index;
  };

  // A registered variable: a key (engine variables) or an index into
  // names_ (variables registered by name).
  struct VarRecord {
    VarKey key;
    uint32_t name = kNoName;
    VarOrigin origin = VarOrigin::kUnknown;
    uint64_t uid = 0;
  };

  const Expr* Intern(Expr node);
  // Appends `record` to vars_ and returns its id. Requires vars_mu_.
  VarId AddVar(const VarRecord& record);
  const Expr* VarNode(VarId id, uint64_t uid);

  std::array<Shard, kShardCount> shards_;
  std::array<std::atomic<const Expr*>, kConstCacheSize> const_cache_{};
  mutable std::mutex vars_mu_;
  std::deque<VarRecord> vars_;  // guarded by vars_mu_
  // InternVar registry, guarded by vars_mu_: VarKey -> VarId + 1 (0 marks
  // an empty slot).
  FlatIndex<VarId> keyed_vars_;
  std::vector<std::string> names_;  // guarded by vars_mu_
  uint64_t var_intern_hits_ = 0;  // guarded by vars_mu_
  uint64_t reclaim_epochs_ = 0;   // guarded by vars_mu_
};

// Concrete evaluation under a variable assignment (missing vars read as 0).
using Assignment = std::unordered_map<VarId, int64_t>;
int64_t EvalExpr(const Expr* e, const Assignment& assignment);

// Applies the binary operator to concrete operands (division by zero yields
// 0, matching the solver's total-function semantics; the engine emits an
// explicit divisor!=0 constraint wherever the VM would trap).
int64_t ApplyBinOp(BinOp op, int64_t a, int64_t b);

// All variables appearing in `e`.
void CollectVars(const Expr* e, std::unordered_set<VarId>* out);

// Variable -> bound expression, structurally shared across solver-context
// forks.
using Bindings = PersistentMap<VarId, const Expr*>;

// Structural substitution: replaces variables by bound expressions,
// re-simplifying through `pool`.
const Expr* Substitute(ExprPool* pool, const Expr* e, const Bindings& bindings);

// Human-readable rendering ("(add v3 8)").
std::string ExprToString(const ExprPool& pool, const Expr* e);

}  // namespace res

#endif  // RES_SYMBOLIC_EXPR_H_
