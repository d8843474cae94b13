#include "src/res/runtime.h"

#include <algorithm>
#include <utility>

namespace res {

ModuleFacts::ModuleFacts(const Module& m)
    : module(&m),
      cfg(ModuleCfg::Build(m)),
      predecoded(PredecodedModule::Build(m)) {}

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
        out.cores_dropped += e.facts->promoted_clauses.published();
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
      out.cores_dropped +=
          victims[i]->second.facts->promoted_clauses.published();
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
    out.cores_dropped += entry.facts->promoted_clauses.published();
    entry.facts->promoted_clauses.Clear();
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
  // Cores in task seq order (itself deterministic commit order).
  const uint64_t published = task_cores.published();
  for (uint64_t seq = 0; seq < published; ++seq) {
    if (facts->promoted_clauses.Publish(task_cores.CoreElems(seq))) {
      ++result.new_cores;
    }
  }
  for (const CheckKey& key : cold_keys) {
    if (check_cache_.Promote(key, solver_fingerprint)) {
      ++result.new_keys;
    }
  }
  return result;
}

}  // namespace res
