#include "src/res/runtime.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "src/res/facts_serialize.h"

namespace res {

ModuleFacts::ModuleFacts(const Module& m)
    : module(&m),
      cfg(ModuleCfg::Build(m)),
      predecoded(PredecodedModule::Build(m)),
      fingerprint(ModuleFingerprint(m)),
      // live capacity == slot slab: the full-slab check in Publish fires
      // before any eviction could, so promoted cores are never displaced
      // out from under a running engine's watermark.
      promoted_clauses(kPromotedClauseCapacity, kPromotedClauseCapacity) {}

ResRuntime::ResRuntime() = default;

ResRuntime::~ResRuntime() = default;

std::shared_ptr<ModuleFacts> ResRuntime::FactsFor(const Module& module) {
  std::lock_guard<std::mutex> lock(facts_mu_);
  auto it = facts_.find(&module);
  if (it == facts_.end()) {
    FactsEntry entry;
    entry.facts = std::make_shared<ModuleFacts>(module);
    it = facts_.emplace(&module, std::move(entry)).first;
  }
  it->second.last_use_tick = facts_tick_;
  ++it->second.uses;
  return it->second.facts;
}

uint64_t ResRuntime::AdvanceFactsTick() {
  std::lock_guard<std::mutex> lock(facts_mu_);
  return ++facts_tick_;
}

ResRuntime::FactsEviction ResRuntime::EvictIdleFacts(size_t max_resident,
                                                     uint64_t ttl_ticks) {
  FactsEviction out;
  std::lock_guard<std::mutex> lock(facts_mu_);
  // Pinned = somebody besides the registry holds the shared_ptr (an engine
  // mid-run); such entries are invisible to both passes.
  auto pinned = [](const FactsEntry& e) { return e.facts.use_count() > 1; };
  if (ttl_ticks > 0) {
    for (auto it = facts_.begin(); it != facts_.end();) {
      const FactsEntry& e = it->second;
      if (!pinned(e) && facts_tick_ - e.last_use_tick >= ttl_ticks) {
        out.cores_dropped += e.facts->promoted_clauses.live_count();
        ++out.facts_evicted;
        ++out.ttl_evicted;
        it = facts_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (max_resident > 0 && facts_.size() > max_resident) {
    // Single scan: collect the unpinned entries once, order them by
    // (uses, last_use_tick) ascending, and erase the prefix — instead of
    // rescanning the whole map per eviction (O(n·k)). stable_sort keeps
    // map (key) order on full ties, matching the old first-minimal
    // selection, so the victim order is unchanged by the rewrite.
    std::vector<std::map<const Module*, FactsEntry>::iterator> victims;
    for (auto it = facts_.begin(); it != facts_.end(); ++it) {
      if (!pinned(it->second)) {
        victims.push_back(it);
      }
    }
    std::stable_sort(victims.begin(), victims.end(),
                     [](const auto& a, const auto& b) {
                       if (a->second.uses != b->second.uses) {
                         return a->second.uses < b->second.uses;
                       }
                       return a->second.last_use_tick < b->second.last_use_tick;
                     });
    size_t need = facts_.size() - max_resident;
    for (size_t i = 0; i < victims.size() && need > 0; ++i, --need) {
      out.cores_dropped += victims[i]->second.facts->promoted_clauses.live_count();
      ++out.facts_evicted;
      facts_.erase(victims[i]);
    }
  }
  return out;
}

ResRuntime::Reclaim ResRuntime::ReclaimSubstrate() {
  Reclaim out;
  // facts_mu_ held end-to-end: FactsFor (and with it any new engine
  // construction against this runtime) blocks for the duration, so the
  // quiescence the caller promises cannot be broken by a racing attach.
  std::lock_guard<std::mutex> facts_lock(facts_mu_);
  for (const auto& [module, entry] : facts_) {
    if (entry.facts.use_count() > 1) {
      return out;  // a run is in flight: refuse, touch nothing
    }
  }
  std::lock_guard<std::mutex> promote_lock(promote_mu_);
  for (auto& [module, entry] : facts_) {
    out.cores_dropped += entry.facts->promoted_clauses.live_count();
    entry.facts->promoted_clauses.Clear();
    // The key journal mirrors the cache's promoted set; dropping one
    // without the other would let a later export resurrect cleared keys.
    entry.facts->promoted_keys.clear();
  }
  out.keys_dropped = check_cache_.promoted_keys();
  check_cache_.Clear();
  out.nodes_reclaimed = pool_.node_count();
  pool_.Reclaim();
  out.reclaimed = true;
  return out;
}

RES_FAULT_SITE(kFaultPromote, "runtime.promote", StatusCode::kInternal);

ResRuntime::Promotion ResRuntime::Promote(
    const Module& module, const ClauseStore& task_cores,
    const std::vector<CheckKey>& cold_keys, uint64_t solver_fingerprint,
    const FaultScope& faults) {
  Promotion result;
  // Before FactsFor, not merely before the first store write: a faulted
  // promotion must not create the module's registry entry or bump its
  // uses/last_use_tick either — eviction victim selection has to stay
  // identical to a batch submitted without the failed dump (§7's isolation
  // contract covers the eviction bookkeeping too).
  result.status = faults.Check(kFaultPromote);
  if (!result.status.ok()) {
    return result;
  }
  std::shared_ptr<ModuleFacts> facts = FactsFor(module);
  std::lock_guard<std::mutex> lock(promote_mu_);
  // Cores in task seq order (itself deterministic commit order); evicted
  // cores stayed cold in their own run, so only live ones promote.
  const uint64_t published = task_cores.published();
  for (uint64_t seq = 0; seq < published; ++seq) {
    if (task_cores.IsEvicted(seq)) {
      continue;
    }
    if (facts->promoted_clauses.Publish(task_cores.CoreElems(seq))) {
      ++result.new_cores;
    }
  }
  for (const CheckKey& key : cold_keys) {
    if (check_cache_.Promote(key, solver_fingerprint)) {
      ++result.new_keys;
      facts->promoted_keys.push_back({key, solver_fingerprint});
    }
  }
  return result;
}

Result<std::vector<uint8_t>> ResRuntime::ExportFacts(const Module& module) {
  // facts_mu_ held end-to-end, like ReclaimSubstrate: no run can attach to
  // this module while its promoted state is being walked.
  std::lock_guard<std::mutex> facts_lock(facts_mu_);
  FactsLog log;
  auto it = facts_.find(&module);
  // Resident facts carry the fingerprint precomputed at construction; only
  // a module with no entry pays the PrintModule re-hash here.
  log.module_fingerprint = it != facts_.end() ? it->second.facts->fingerprint
                                              : ModuleFingerprint(module);
  if (it == facts_.end()) {
    return SerializeFactsLog(log);  // nothing promoted yet: valid empty log
  }
  if (it->second.facts.use_count() > 1) {
    return FailedPrecondition("module facts pinned by a live run");
  }
  std::lock_guard<std::mutex> promote_lock(promote_mu_);
  const ModuleFacts& facts = *it->second.facts;

  // Flatten the expression DAG bottom-up, deduped: children are emitted
  // strictly before parents, so the table index order doubles as the
  // rebuild order on import. Variables serialize by (name, origin, uid) —
  // the cross-process identity InternVar re-interns deterministically.
  std::unordered_map<const Expr*, uint32_t> expr_index;
  std::unordered_map<VarId, uint32_t> var_index;
  auto add_var = [&](VarId id) -> uint32_t {
    auto found = var_index.find(id);
    if (found != var_index.end()) {
      return found->second;
    }
    FactsLogVar v;
    v.name = pool_.var_name(id);
    v.origin = static_cast<uint8_t>(pool_.var_origin(id));
    v.uid = pool_.var_uid(id);
    uint32_t idx = static_cast<uint32_t>(log.vars.size());
    log.vars.push_back(std::move(v));
    var_index.emplace(id, idx);
    return idx;
  };
  auto add_expr = [&](const Expr* root) -> uint32_t {
    // Iterative post-order: a node is emitted only after every child has
    // an index (promoted cores can nest arbitrarily deep).
    std::vector<std::pair<const Expr*, bool>> stack;
    stack.push_back({root, false});
    while (!stack.empty()) {
      auto [e, expanded] = stack.back();
      stack.pop_back();
      if (expr_index.count(e) != 0) {
        continue;
      }
      if (!expanded) {
        stack.push_back({e, true});
        if (e->kind == ExprKind::kBinary || e->kind == ExprKind::kSelect) {
          stack.push_back({e->a, false});
          stack.push_back({e->b, false});
          if (e->kind == ExprKind::kSelect) {
            stack.push_back({e->c, false});
          }
        }
        continue;
      }
      FactsLogExpr fe;
      fe.kind = static_cast<uint8_t>(e->kind);
      switch (e->kind) {
        case ExprKind::kConst:
          fe.value = e->value;
          break;
        case ExprKind::kVar:
          fe.var = add_var(e->var);
          break;
        case ExprKind::kBinary:
          fe.bin_op = static_cast<uint8_t>(e->bin_op);
          fe.a = expr_index.at(e->a);
          fe.b = expr_index.at(e->b);
          break;
        case ExprKind::kSelect:
          fe.a = expr_index.at(e->a);
          fe.b = expr_index.at(e->b);
          fe.c = expr_index.at(e->c);
          break;
      }
      expr_index.emplace(e, static_cast<uint32_t>(log.exprs.size()));
      log.exprs.push_back(fe);
    }
    return expr_index.at(root);
  };

  // Live cores in publication-seq order: the import replays them in this
  // order, reproducing the store's live prefix (evicted seqs drop out and
  // the survivors renumber densely — which is exactly the set an engine's
  // watermark can consult, so reports cannot move).
  const uint64_t published = facts.promoted_clauses.published();
  for (uint64_t seq = 0; seq < published; ++seq) {
    if (facts.promoted_clauses.IsEvicted(seq)) {
      continue;
    }
    const std::vector<const Expr*>& elems = facts.promoted_clauses.CoreElems(seq);
    std::vector<uint32_t> core;
    core.reserve(elems.size());
    for (const Expr* e : elems) {
      core.push_back(add_expr(e));
    }
    log.cores.push_back(std::move(core));
  }
  for (const ModuleFacts::PromotedKey& pk : facts.promoted_keys) {
    FactsLog::Key k;
    k.set_key = pk.key.set_key;
    k.distinct = pk.key.distinct;
    k.portfolio = pk.key.portfolio;
    k.solver_fingerprint = pk.solver_fingerprint;
    log.keys.push_back(k);
  }
  return SerializeFactsLog(log);
}

Result<ResRuntime::FactsImport> ResRuntime::ImportFacts(
    const Module& module, const std::vector<uint8_t>& bytes,
    uint64_t solver_fingerprint) {
  // Everything that can fail happens before the first mutation, so a
  // rejected import is all-or-nothing.
  RES_ASSIGN_OR_RETURN(FactsLog log, ParseFactsLog(bytes));
  std::lock_guard<std::mutex> facts_lock(facts_mu_);
  // Peek — do NOT create the entry or bump its bookkeeping yet: a rejected
  // import must leave eviction victim selection untouched, exactly like a
  // faulted Promote. An existing entry answers the fingerprint check from
  // its cache; only an unknown module pays the PrintModule re-hash.
  auto it = facts_.find(&module);
  const uint64_t module_fingerprint = it != facts_.end()
                                          ? it->second.facts->fingerprint
                                          : ModuleFingerprint(module);
  if (log.module_fingerprint != module_fingerprint) {
    return FailedPrecondition("fact log does not match module fingerprint");
  }
  for (const FactsLog::Key& k : log.keys) {
    if (k.solver_fingerprint != solver_fingerprint) {
      return FailedPrecondition("fact log solver fingerprint mismatch");
    }
  }
  if (it == facts_.end()) {
    FactsEntry entry;
    entry.facts = std::make_shared<ModuleFacts>(module);
    it = facts_.emplace(&module, std::move(entry)).first;
  }
  if (it->second.facts.use_count() > 1) {
    return FailedPrecondition("module facts pinned by a live run");
  }
  it->second.last_use_tick = facts_tick_;
  ++it->second.uses;
  ModuleFacts& facts = *it->second.facts;
  std::lock_guard<std::mutex> promote_lock(promote_mu_);

  // Rebuild the expression table through the pool's smart constructors:
  // content-addressed interning makes each rebuilt node pointer-identical
  // to any node the process already minted for the same structure, so
  // imported cores screen exactly like locally promoted ones. Parse
  // validated every index, so the rebuild cannot fail.
  std::vector<const Expr*> vars;
  vars.reserve(log.vars.size());
  for (const FactsLogVar& v : log.vars) {
    vars.push_back(
        pool_.InternVar(v.name, static_cast<VarOrigin>(v.origin), v.uid));
  }
  std::vector<const Expr*> built;
  built.reserve(log.exprs.size());
  for (const FactsLogExpr& e : log.exprs) {
    switch (static_cast<ExprKind>(e.kind)) {
      case ExprKind::kConst:
        built.push_back(pool_.Const(e.value));
        break;
      case ExprKind::kVar:
        built.push_back(vars[e.var]);
        break;
      case ExprKind::kBinary:
        built.push_back(pool_.Binary(static_cast<BinOp>(e.bin_op), built[e.a],
                                     built[e.b]));
        break;
      case ExprKind::kSelect:
        built.push_back(pool_.Select(built[e.a], built[e.b], built[e.c]));
        break;
    }
  }
  FactsImport out;
  for (const std::vector<uint32_t>& core : log.cores) {
    std::vector<const Expr*> elems;
    elems.reserve(core.size());
    for (uint32_t idx : core) {
      elems.push_back(built[idx]);
    }
    if (facts.promoted_clauses.Publish(std::move(elems))) {
      ++out.cores_imported;
    }
  }
  for (const FactsLog::Key& k : log.keys) {
    CheckKey key;
    key.set_key = k.set_key;
    key.distinct = k.distinct;
    key.portfolio = k.portfolio;
    if (check_cache_.Promote(key, k.solver_fingerprint)) {
      ++out.keys_imported;
      facts.promoted_keys.push_back({key, k.solver_fingerprint});
    }
  }
  return out;
}

}  // namespace res
