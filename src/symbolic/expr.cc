#include "src/symbolic/expr.h"

#include <cassert>
#include <charconv>
#include <limits>

#include "src/support/hash.h"
#include "src/support/string_util.h"

namespace res {

std::string_view BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "add";
    case BinOp::kSub: return "sub";
    case BinOp::kMul: return "mul";
    case BinOp::kDivS: return "divs";
    case BinOp::kRemS: return "rems";
    case BinOp::kAnd: return "and";
    case BinOp::kOr: return "or";
    case BinOp::kXor: return "xor";
    case BinOp::kShl: return "shl";
    case BinOp::kShrL: return "shrl";
    case BinOp::kShrA: return "shra";
    case BinOp::kEq: return "eq";
    case BinOp::kNe: return "ne";
    case BinOp::kLtS: return "lts";
    case BinOp::kLeS: return "les";
    case BinOp::kLtU: return "ltu";
    case BinOp::kLeU: return "leu";
  }
  return "?";
}

BinOp BinOpFromOpcode(Opcode op) {
  switch (op) {
    case Opcode::kAdd: return BinOp::kAdd;
    case Opcode::kSub: return BinOp::kSub;
    case Opcode::kMul: return BinOp::kMul;
    case Opcode::kDivS: return BinOp::kDivS;
    case Opcode::kRemS: return BinOp::kRemS;
    case Opcode::kAnd: return BinOp::kAnd;
    case Opcode::kOr: return BinOp::kOr;
    case Opcode::kXor: return BinOp::kXor;
    case Opcode::kShl: return BinOp::kShl;
    case Opcode::kShrL: return BinOp::kShrL;
    case Opcode::kShrA: return BinOp::kShrA;
    case Opcode::kCmpEq: return BinOp::kEq;
    case Opcode::kCmpNe: return BinOp::kNe;
    case Opcode::kCmpLtS: return BinOp::kLtS;
    case Opcode::kCmpLeS: return BinOp::kLeS;
    case Opcode::kCmpLtU: return BinOp::kLtU;
    case Opcode::kCmpLeU: return BinOp::kLeU;
    default:
      assert(false && "not an ALU opcode");
      return BinOp::kAdd;
  }
}

int64_t ApplyBinOp(BinOp op, int64_t a, int64_t b) {
  uint64_t ua = static_cast<uint64_t>(a);
  uint64_t ub = static_cast<uint64_t>(b);
  switch (op) {
    case BinOp::kAdd: return static_cast<int64_t>(ua + ub);
    case BinOp::kSub: return static_cast<int64_t>(ua - ub);
    case BinOp::kMul: return static_cast<int64_t>(ua * ub);
    case BinOp::kDivS:
      if (b == 0 || (a == std::numeric_limits<int64_t>::min() && b == -1)) {
        return 0;  // total-function semantics; see header
      }
      return a / b;
    case BinOp::kRemS:
      if (b == 0 || (a == std::numeric_limits<int64_t>::min() && b == -1)) {
        return 0;
      }
      return a % b;
    case BinOp::kAnd: return static_cast<int64_t>(ua & ub);
    case BinOp::kOr: return static_cast<int64_t>(ua | ub);
    case BinOp::kXor: return static_cast<int64_t>(ua ^ ub);
    case BinOp::kShl: return static_cast<int64_t>(ua << (ub & 63));
    case BinOp::kShrL: return static_cast<int64_t>(ua >> (ub & 63));
    case BinOp::kShrA: return a >> (ub & 63);
    case BinOp::kEq: return a == b ? 1 : 0;
    case BinOp::kNe: return a != b ? 1 : 0;
    case BinOp::kLtS: return a < b ? 1 : 0;
    case BinOp::kLeS: return a <= b ? 1 : 0;
    case BinOp::kLtU: return ua < ub ? 1 : 0;
    case BinOp::kLeU: return ua <= ub ? 1 : 0;
  }
  return 0;
}

namespace {

bool SameNode(const Expr& x, const Expr& y) {
  return x.kind == y.kind && x.bin_op == y.bin_op && x.value == y.value &&
         x.var == y.var && x.a == y.a && x.b == y.b && x.c == y.c;
}

const char* VarTagName(VarTag tag) {
  switch (tag) {
    case VarTag::kReg: return "reg";
    case VarTag::kMem: return "mem";
    case VarTag::kIn: return "in";
  }
  return "?";
}

uint64_t HashVarKey(const VarKey& key) {
  const uint64_t seq_tag =
      (static_cast<uint64_t>(key.seq) << 8) | static_cast<uint8_t>(key.tag);
  return HashU64(HashCombine(key.ns, seq_tag));
}

}  // namespace

std::string VarKeyName(const VarKey& key) {
  return StrFormat("%s_%llx_%u", VarTagName(key.tag),
                   static_cast<unsigned long long>(key.ns), key.seq);
}

std::optional<VarKey> ParseVarKeyName(std::string_view name) {
  const size_t first = name.find('_');
  const size_t last = name.rfind('_');
  if (first == std::string_view::npos || first == last) {
    return std::nullopt;
  }
  VarKey key;
  const std::string_view tag = name.substr(0, first);
  if (tag == "reg") {
    key.tag = VarTag::kReg;
  } else if (tag == "mem") {
    key.tag = VarTag::kMem;
  } else if (tag == "in") {
    key.tag = VarTag::kIn;
  } else {
    return std::nullopt;
  }
  auto parse = [](std::string_view digits, int base, auto* out) {
    const char* end = digits.data() + digits.size();
    auto [ptr, ec] = std::from_chars(digits.data(), end, *out, base);
    return ec == std::errc() && ptr == end;
  };
  if (!parse(name.substr(first + 1, last - first - 1), 16, &key.ns) ||
      !parse(name.substr(last + 1), 10, &key.seq)) {
    return std::nullopt;
  }
  // Only the canonical spelling is the key's: "reg_0a_1" stays a name.
  if (VarKeyName(key) != name) {
    return std::nullopt;
  }
  return key;
}

int DetExprCompare(const Expr* x, const Expr* y) {
  if (x == y) {
    return 0;
  }
  auto cmp = [](auto a, auto b) { return a < b ? -1 : (a > b ? 1 : 0); };
  if (int c = cmp(x->det_hash, y->det_hash)) return c;
  if (int c = cmp(x->kind, y->kind)) return c;
  if (int c = cmp(x->bin_op, y->bin_op)) return c;
  if (int c = cmp(x->value, y->value)) return c;  // const value / var uid
  auto child = [&cmp](const Expr* a, const Expr* b) {
    if (a == b) return 0;
    if (a == nullptr || b == nullptr) return cmp(a != nullptr, b != nullptr);
    return DetExprCompare(a, b);
  };
  if (int c = child(x->a, y->a)) return c;
  if (int c = child(x->b, y->b)) return c;
  if (int c = child(x->c, y->c)) return c;
  // Distinct interned nodes that compare structurally equal can only be two
  // variables whose uids collided; fall back to the (run-local) VarId so the
  // order is at least a consistent strict-weak order within this run.
  return cmp(x->var, y->var);
}

ExprPool::ExprPool() = default;

const Expr* ExprPool::Intern(Expr node) {
  uint64_t h = HashCombine(HashU64(static_cast<uint64_t>(node.kind)),
                           HashU64(static_cast<uint64_t>(node.bin_op)));
  h = HashCombine(h, HashU64(static_cast<uint64_t>(node.value)));
  h = HashCombine(h, HashU64(node.var));
  h = HashCombine(h, reinterpret_cast<uintptr_t>(node.a));
  h = HashCombine(h, reinterpret_cast<uintptr_t>(node.b));
  h = HashCombine(h, reinterpret_cast<uintptr_t>(node.c));
  // Identity hash, mixed because the shard index probes from its low bits.
  // Only the index slot keeps it.
  h = HashU64(h);
  // Content hash: pure function of structure + var uids (never of VarIds,
  // node ids, or pointers), so it is identical across runs/thread counts.
  uint64_t d = HashCombine(HashU64(static_cast<uint64_t>(node.kind)),
                           HashU64(static_cast<uint64_t>(node.bin_op)));
  d = HashCombine(d, HashU64(static_cast<uint64_t>(node.value)));
  if (node.a != nullptr) d = HashCombine(d, node.a->det_hash);
  if (node.b != nullptr) d = HashCombine(d, node.b->det_hash);
  if (node.c != nullptr) d = HashCombine(d, node.c->det_hash);
  node.det_hash = d;

  Shard& shard = shards_[d % kShardCount];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto* slot =
      shard.index.Probe(h, [&node](const Expr* e) { return SameNode(*e, node); });
  if (slot->handle != nullptr) {
    return slot->handle;
  }
  size_t chunk_slot = shard.count % kArenaChunkNodes;
  if (chunk_slot == 0) {
    shard.arena.push_back(std::make_unique<Expr[]>(kArenaChunkNodes));
  }
  // Unique across shards (interleaved), but assignment order — and hence the
  // id value — depends on scheduling; never use ids for semantic decisions.
  node.id = static_cast<uint32_t>(shard.count * kShardCount + (d % kShardCount));
  Expr* stored = &shard.arena.back()[chunk_slot];
  *stored = node;
  ++shard.count;
  shard.index.Fill(slot, h, stored);
  return stored;
}

const Expr* ExprPool::Const(int64_t value) {
  // Direct-mapped: a colliding constant evicts the entry. Entries point at
  // immutable nodes, published with release and read with acquire.
  const size_t index =
      HashU64(static_cast<uint64_t>(value)) & (kConstCacheSize - 1);
  std::atomic<const Expr*>& entry = const_cache_[index];
  const Expr* cached = entry.load(std::memory_order_acquire);
  if (cached != nullptr && cached->value == value) {
    return cached;
  }
  Expr node;
  node.kind = ExprKind::kConst;
  node.value = value;
  const Expr* e = Intern(node);
  entry.store(e, std::memory_order_release);
  return e;
}

VarId ExprPool::AddVar(const VarRecord& record) {
  const VarId id = static_cast<VarId>(vars_.size());
  vars_.push_back(record);
  return id;
}

const Expr* ExprPool::VarNode(VarId id, uint64_t uid) {
  Expr node;
  node.kind = ExprKind::kVar;
  node.var = id;
  node.value = static_cast<int64_t>(uid);  // see Expr::value
  return Intern(node);
}

const Expr* ExprPool::Var(const std::string& name, VarOrigin origin) {
  uint64_t uid;
  {
    std::lock_guard<std::mutex> lock(vars_mu_);
    uid = HashCombine(FnvHashString(name), vars_.size());
  }
  return Var(name, origin, uid);
}

const Expr* ExprPool::Var(const std::string& name, VarOrigin origin, uint64_t uid) {
  VarRecord record;
  record.origin = origin;
  record.uid = uid;
  VarId id;
  {
    std::lock_guard<std::mutex> lock(vars_mu_);
    record.name = static_cast<uint32_t>(names_.size());
    names_.push_back(name);
    id = AddVar(record);
  }
  return VarNode(id, uid);
}

const Expr* ExprPool::InternVar(const VarKey& key, VarOrigin origin,
                                uint64_t uid) {
  const uint64_t h = HashVarKey(key);
  VarId id;
  {
    std::lock_guard<std::mutex> lock(vars_mu_);
    auto* slot = keyed_vars_.Probe(
        h, [&](VarId stored) { return vars_[stored - 1].key == key; });
    if (slot->handle != 0 && vars_[slot->handle - 1].uid == uid) {
      ++var_intern_hits_;
      id = slot->handle - 1;
    } else {
      VarRecord record;
      record.key = key;
      record.origin = origin;
      record.uid = uid;
      id = AddVar(record);
      if (slot->handle != 0) {
        slot->handle = id + 1;  // uid mismatch: newest registration wins
      } else {
        keyed_vars_.Fill(slot, h, id + 1);
      }
    }
  }
  return VarNode(id, uid);
}

uint64_t ExprPool::var_intern_hits() const {
  std::lock_guard<std::mutex> lock(vars_mu_);
  return var_intern_hits_;
}

size_t ExprPool::Reclaim() {
  // Quiesced by contract (see header), but take every lock anyway so a
  // misuse shows up as a deadlock/tsan report instead of silent corruption.
  size_t freed = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    freed += shard.count;
    shard.index.Clear();
    shard.arena.clear();
    shard.count = 0;
  }
  // Emptied before any later Const() can run, so the cache never hands out
  // a freed node.
  for (std::atomic<const Expr*>& entry : const_cache_) {
    entry.store(nullptr, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(vars_mu_);
  vars_.clear();
  keyed_vars_.Clear();
  names_.clear();
  ++reclaim_epochs_;
  return freed;
}

uint64_t ExprPool::reclaim_epochs() const {
  std::lock_guard<std::mutex> lock(vars_mu_);
  return reclaim_epochs_;
}

std::string ExprPool::var_name(VarId id) const {
  VarKey key;
  {
    std::lock_guard<std::mutex> lock(vars_mu_);
    const VarRecord& record = vars_[id];
    if (record.name != kNoName) {
      return names_[record.name];
    }
    key = record.key;
  }
  return VarKeyName(key);
}

VarOrigin ExprPool::var_origin(VarId id) const {
  std::lock_guard<std::mutex> lock(vars_mu_);
  return vars_[id].origin;
}

uint64_t ExprPool::var_uid(VarId id) const {
  std::lock_guard<std::mutex> lock(vars_mu_);
  return vars_[id].uid;
}

size_t ExprPool::var_count() const {
  std::lock_guard<std::mutex> lock(vars_mu_);
  return vars_.size();
}

size_t ExprPool::node_count() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.count;
  }
  return n;
}

const Expr* ExprPool::Binary(BinOp op, const Expr* a, const Expr* b) {
  // Constant folding.
  if (a->is_const() && b->is_const()) {
    return Const(ApplyBinOp(op, a->value, b->value));
  }
  // Identities.
  switch (op) {
    case BinOp::kAdd:
      if (a->is_const() && a->value == 0) return b;
      if (b->is_const() && b->value == 0) return a;
      // Normalize constants to the right: (c + x) -> (x + c).
      if (a->is_const()) std::swap(a, b);
      // Re-associate (x + c1) + c2 -> x + (c1+c2).
      if (b->is_const() && a->kind == ExprKind::kBinary && a->bin_op == BinOp::kAdd &&
          a->b->is_const()) {
        return Binary(BinOp::kAdd, a->a,
                      Const(ApplyBinOp(BinOp::kAdd, a->b->value, b->value)));
      }
      break;
    case BinOp::kSub:
      if (b->is_const() && b->value == 0) return a;
      if (a == b) return Const(0);
      // x - c -> x + (-c) so the kAdd normalizations apply.
      if (b->is_const()) {
        return Binary(BinOp::kAdd, a, Const(-b->value));
      }
      break;
    case BinOp::kMul:
      if (a->is_const()) std::swap(a, b);
      if (b->is_const()) {
        if (b->value == 0) return Const(0);
        if (b->value == 1) return a;
      }
      break;
    case BinOp::kAnd:
      if (a->is_const()) std::swap(a, b);
      if (b->is_const()) {
        if (b->value == 0) return Const(0);
        if (b->value == -1) return a;
      }
      if (a == b) return a;
      break;
    case BinOp::kOr:
      if (a->is_const()) std::swap(a, b);
      if (b->is_const()) {
        if (b->value == 0) return a;
        if (b->value == -1) return Const(-1);
      }
      if (a == b) return a;
      break;
    case BinOp::kXor:
      if (a->is_const()) std::swap(a, b);
      if (b->is_const() && b->value == 0) return a;
      if (a == b) return Const(0);
      break;
    case BinOp::kShl:
    case BinOp::kShrL:
    case BinOp::kShrA:
      if (b->is_const() && (b->value & 63) == 0) return a;
      break;
    case BinOp::kEq:
      if (a == b) return Const(1);
      if (a->is_const()) std::swap(a, b);
      break;
    case BinOp::kNe:
      if (a == b) return Const(0);
      if (a->is_const()) std::swap(a, b);
      break;
    case BinOp::kLtS:
    case BinOp::kLtU:
      if (a == b) return Const(0);
      break;
    case BinOp::kLeS:
    case BinOp::kLeU:
      if (a == b) return Const(1);
      break;
    default:
      break;
  }
  Expr node;
  node.kind = ExprKind::kBinary;
  node.bin_op = op;
  node.a = a;
  node.b = b;
  return Intern(node);
}

const Expr* ExprPool::Select(const Expr* cond, const Expr* if_true,
                             const Expr* if_false) {
  if (cond->is_const()) {
    return cond->value != 0 ? if_true : if_false;
  }
  if (if_true == if_false) {
    return if_true;
  }
  Expr node;
  node.kind = ExprKind::kSelect;
  node.a = cond;
  node.b = if_true;
  node.c = if_false;
  return Intern(node);
}

const Expr* ExprPool::Not(const Expr* e) {
  if (e->is_const()) {
    return Const(e->value == 0 ? 1 : 0);
  }
  // not(cmp) -> inverted cmp where cheap.
  if (e->kind == ExprKind::kBinary) {
    switch (e->bin_op) {
      case BinOp::kEq: return Binary(BinOp::kNe, e->a, e->b);
      case BinOp::kNe: return Binary(BinOp::kEq, e->a, e->b);
      case BinOp::kLtS: return Binary(BinOp::kLeS, e->b, e->a);
      case BinOp::kLeS: return Binary(BinOp::kLtS, e->b, e->a);
      case BinOp::kLtU: return Binary(BinOp::kLeU, e->b, e->a);
      case BinOp::kLeU: return Binary(BinOp::kLtU, e->b, e->a);
      default:
        break;
    }
  }
  return Binary(BinOp::kEq, e, Const(0));
}

int64_t EvalExpr(const Expr* e, const Assignment& assignment) {
  switch (e->kind) {
    case ExprKind::kConst:
      return e->value;
    case ExprKind::kVar: {
      auto it = assignment.find(e->var);
      return it == assignment.end() ? 0 : it->second;
    }
    case ExprKind::kBinary:
      return ApplyBinOp(e->bin_op, EvalExpr(e->a, assignment),
                        EvalExpr(e->b, assignment));
    case ExprKind::kSelect:
      return EvalExpr(e->a, assignment) != 0 ? EvalExpr(e->b, assignment)
                                             : EvalExpr(e->c, assignment);
  }
  return 0;
}

void CollectVars(const Expr* e, std::unordered_set<VarId>* out) {
  switch (e->kind) {
    case ExprKind::kConst:
      return;
    case ExprKind::kVar:
      out->insert(e->var);
      return;
    case ExprKind::kBinary:
      CollectVars(e->a, out);
      CollectVars(e->b, out);
      return;
    case ExprKind::kSelect:
      CollectVars(e->a, out);
      CollectVars(e->b, out);
      CollectVars(e->c, out);
      return;
  }
}

const Expr* Substitute(ExprPool* pool, const Expr* e, const Bindings& bindings) {
  switch (e->kind) {
    case ExprKind::kConst:
      return e;
    case ExprKind::kVar: {
      const Expr* const* bound = bindings.Find(e->var);
      return bound == nullptr ? e : *bound;
    }
    case ExprKind::kBinary: {
      const Expr* a = Substitute(pool, e->a, bindings);
      const Expr* b = Substitute(pool, e->b, bindings);
      if (a == e->a && b == e->b) {
        return e;
      }
      return pool->Binary(e->bin_op, a, b);
    }
    case ExprKind::kSelect: {
      const Expr* a = Substitute(pool, e->a, bindings);
      const Expr* b = Substitute(pool, e->b, bindings);
      const Expr* c = Substitute(pool, e->c, bindings);
      if (a == e->a && b == e->b && c == e->c) {
        return e;
      }
      return pool->Select(a, b, c);
    }
  }
  return e;
}

std::string ExprToString(const ExprPool& pool, const Expr* e) {
  switch (e->kind) {
    case ExprKind::kConst:
      return std::to_string(e->value);
    case ExprKind::kVar:
      return pool.var_name(e->var);
    case ExprKind::kBinary:
      return StrFormat("(%s %s %s)", std::string(BinOpName(e->bin_op)).c_str(),
                       ExprToString(pool, e->a).c_str(),
                       ExprToString(pool, e->b).c_str());
    case ExprKind::kSelect:
      return StrFormat("(select %s %s %s)", ExprToString(pool, e->a).c_str(),
                       ExprToString(pool, e->b).c_str(),
                       ExprToString(pool, e->c).c_str());
  }
  return "?";
}

}  // namespace res
