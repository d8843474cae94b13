// ResRuntime — the process-wide substrate under fleet-scale triage (paper
// §3.1: bucketing and rating *streams* of incoming coredumps).
//
// A standalone ResEngine spins up everything it needs per run: an ExprPool,
// a solver check cache, a learned-clause store. That is the
// right shape for one interactive debugging session and the wrong shape for
// a triage service: a batch over N dumps pays N cold starts and shares
// nothing, even when every dump comes from the same module. ResRuntime
// lifts the shareable substrate into one process-wide object that any
// number of concurrent engine runs attach to:
//
//   - ExprPool: expressions are content-addressed (interning makes
//     structural equality pointer equality), so sharing the pool is safe
//     directly — and it is what makes constraints, check-cache entries, and
//     clause-store cores pointer-comparable ACROSS runs. Engine-minted
//     variables go through ExprPool::InternVar, keyed by their
//     deterministic (VarKey, uid): identical search positions in two runs
//     of the same module re-intern to the same variable node.
//   - CheckCache: cold-check outcomes are pure functions of (constraint
//     set, solver fingerprint), so a shared cache never
//     changes any run's output — only its cost. Entries are epoch-tagged
//     per engine run; a run sees its own entries (exactly the solo-run
//     cache) plus entries for keys *promoted* by a batch commit thread.
//   - Per-module facts (FactsFor): the backward CFG, built once per module
//     instead of once per engine, and the module-global promoted
//     ClauseStore fed by the promotion protocol below.
//
// The runtime owns no threads. Concurrency in RES lives at dump
// granularity: TriageDaemon waves run whole engines in parallel over one
// runtime, each engine searching on its worker's thread.
//
// Promotion protocol (the cross-task analogue of PR 4's commit-order clause
// protocol): a commit thread — the thread running a daemon wave —
// processes completed tasks in dump-submission order and, per task, calls
// Promote with the task's learned cores (deterministic: published by the
// task's commit thread in commit order) and its committed cold-check keys
// (deterministic: merged by the task's commit thread in commit order). The
// promoted counts are therefore pure functions of the committed searches
// and the submission order. Engines snapshot the promoted store at
// construction (a fixed watermark), so within one run every screen verdict
// remains a pure function of (dump, options, snapshot), however many other
// runs share the runtime concurrently.
//
// Thread-safety: all public methods are thread-safe. Promote serializes
// internally, preserving a deterministic publication order as long as each
// batch calls it in submission order.
#ifndef RES_RES_RUNTIME_H_
#define RES_RES_RUNTIME_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/cfg/cfg.h"
#include "src/ir/module.h"
#include "src/support/faultpoint.h"
#include "src/support/status.h"
#include "src/symbolic/expr.h"
#include "src/symbolic/solver.h"
#include "src/vm/predecode.h"

namespace res {

// Facts scoped to one module, built on first use and shared by every run
// over that module. The promoted ClauseStore is published to exclusively by
// ResRuntime::Promote (single logical publisher, serialized internally). It
// never drops a core: a running engine's fixed watermark may cover any
// promoted core, so a full store simply stops promoting for that module.
// (Whole-entry residency is bounded separately: EvictIdleFacts and
// ReclaimSubstrate drop a module's facts only while no run pins them.)
struct ModuleFacts {
  explicit ModuleFacts(const Module& m);

  const Module* module;
  ModuleCfg cfg;
  // The predecoded execution stream (src/vm/predecode.h), built once
  // alongside the CFG and shared by every VM run over this module (replay,
  // sweeps, daemon waves). Like the CFG it references only the Module, so
  // ReclaimSubstrate leaves it intact; whole-entry eviction drops it.
  PredecodedModule predecoded;
  ClauseStore promoted_clauses;
};

class ResRuntime {
 public:
  ResRuntime();
  ResRuntime(const ResRuntime&) = delete;
  ResRuntime& operator=(const ResRuntime&) = delete;
  ~ResRuntime();

  ExprPool* pool() { return &pool_; }
  CheckCache* check_cache() { return &check_cache_; }

  // Fresh check-cache epoch for one engine run.
  uint32_t NextEpoch() { return epoch_.fetch_add(1, std::memory_order_relaxed); }

  // The shared facts for `module` (created on first use). Holding the
  // returned shared_ptr pins the facts: an engine keeps it for the whole
  // run, so eviction (below) can never pull a promoted store out from
  // under a live watermark — an evicted entry just stops being findable by
  // later FactsFor calls, which rebuild fresh facts. `module` must outlive
  // every holder.
  std::shared_ptr<ModuleFacts> FactsFor(const Module& module);

  // --- Bounded residency for long-lived runtimes (the standing daemon). --
  // Without these, FactsFor entries and the shared ExprPool grow for the
  // runtime's lifetime — fine for one batch, fatal for an always-on
  // service. Both knobs are cost-only: cross-task reuse changes cost, never
  // output, so dropping facts can only force later runs to re-derive them.

  // Advances the facts clock by one tick (the daemon calls this once per
  // wave boundary) and returns the new tick. FactsFor stamps each entry
  // with the clock at last use.
  uint64_t AdvanceFactsTick();

  struct FactsEviction {
    uint64_t facts_evicted = 0;   // entries dropped (TTL + capacity)
    uint64_t ttl_evicted = 0;     // the subset dropped by the TTL pass
    uint64_t cores_dropped = 0;   // live promoted cores on dropped entries
  };

  // Evicts idle ModuleFacts. Two passes: every unpinned entry idle for
  // >= ttl_ticks ticks (ttl_ticks > 0), then — while more than max_resident
  // entries remain (max_resident > 0) — the unpinned entry with the fewest
  // FactsFor uses, ties broken oldest-last-use-first. Entries pinned by a
  // live holder (an engine mid-run) are never touched.
  FactsEviction EvictIdleFacts(size_t max_resident, uint64_t ttl_ticks);

  struct Reclaim {
    bool reclaimed = false;        // false: runs in flight, nothing touched
    uint64_t nodes_reclaimed = 0;  // ExprPool nodes freed
    uint64_t cores_dropped = 0;    // promoted cores cleared across modules
    uint64_t keys_dropped = 0;     // promoted check keys cleared
  };

  // Reclaims the shared substrate: clears every module's promoted
  // ClauseStore and the shared CheckCache (both hold Expr* into the pool),
  // then resets the ExprPool to its empty baseline. Module CFGs survive
  // (they reference only the Module). REQUIRES quiescence — the daemon
  // calls this only between waves; if any facts entry is pinned by a live
  // holder the call refuses and returns reclaimed = false. Previously
  // returned SynthesizedSuffix objects hold Expr* too, so callers keeping
  // ResResults alive across a reclaim must not dereference their suffix
  // expressions afterwards (TriageReports hold only strings and counters
  // and are safe).
  Reclaim ReclaimSubstrate();

  struct Promotion {
    uint64_t new_cores = 0;  // cores newly published to the module store
    uint64_t new_keys = 0;   // check keys newly promoted module-global
    // Non-OK when the "runtime.promote" fault site fired: NOTHING was
    // published (the site is checked before the first store write, so a
    // failed promotion is all-or-nothing from the caller's view).
    Status status;
  };

  // Publishes one committed task's module-level facts: its live learned
  // cores (in task seq order) into the module's promoted ClauseStore, and
  // its committed cold-check keys into the shared cache's promoted set.
  // Batch commit threads call this in dump-submission order. `faults`
  // carries the "runtime.promote" fault site; a faulted promotion publishes
  // nothing and leaves the facts registry untouched (it must not perturb
  // eviction bookkeeping relative to a batch without the failed dump).
  Promotion Promote(const Module& module, const ClauseStore& task_cores,
                    const std::vector<CheckKey>& cold_keys,
                    uint64_t solver_fingerprint, const FaultScope& faults = {});

 private:
  ExprPool pool_;
  CheckCache check_cache_;
  std::atomic<uint32_t> epoch_{1};  // 0 is the no-runtime default epoch
  struct FactsEntry {
    std::shared_ptr<ModuleFacts> facts;
    uint64_t last_use_tick = 0;  // facts clock at the last FactsFor
    uint64_t uses = 0;           // FactsFor calls answered by this entry
  };
  std::mutex facts_mu_;
  std::map<const Module*, FactsEntry> facts_;
  uint64_t facts_tick_ = 0;  // guarded by facts_mu_
  std::mutex promote_mu_;
};

}  // namespace res

#endif  // RES_RES_RUNTIME_H_
