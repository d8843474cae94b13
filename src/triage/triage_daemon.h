// TriageDaemon — fleet-scale triage over a shared ResRuntime.
//
// The paper's deployment model (§3.1) is a WER-style backend: a long-lived
// process fed an endless mixed-module stream of coredumps from the field.
// The daemon is that backend:
//
//   Submit / SubmitSerialized        (any thread, bounded queue,
//        │                            reject-with-status when full)
//        ▼
//   per-module pending queues        (submission seq preserved)
//        │  wave of K ready
//        ▼
//   wave scheduler                   (Pump / Drain / standing thread;
//        │                            one wave in flight at a time)
//        ▼
//   wave runner                      (verify the module, validate each dump,
//        │                            run the engines serially or in
//        │                            parallel, commit in submission order:
//        │                            promote, degraded retry, quarantine)
//        ▼
//   on_report stream                 (report.index = global submission seq)
//        +
//   bounded-memory step              (facts TTL/capacity eviction, ExprPool
//                                     reclaim — between waves only)
//
// Wave-scheduled promotion: dumps are batched in waves of K per module. A
// serial wave constructs each engine after every earlier dump's promotion;
// a parallel wave pins the wave-start promoted watermark before any worker
// runs. Either way the commit thread promotes the wave's facts in
// submission order, so tail dumps reuse facts from every earlier dump of
// their module, and every watermark is schedule-independent.
//
// Output contract: every report's res_bucket / cause_signature / res_rating
// equals a solo ResEngine run over the same dump with the same ResOptions
// (under DegradedProfile for a degraded report) — at every wave size and
// wave parallelism, with or without eviction/reclaim. Cross-task reuse
// changes cost, never output (tests/triage_daemon_test.cc pins this).
//
// Determinism of the counters: wave boundaries are pure functions of
// submission order (a module's wave launches exactly when its K-th dump
// arrives; partial waves flush only on Drain/Shutdown, earliest-first), and
// promotion happens in submission order, so clause_promotions and
// cache_promotions are pure functions of (dumps, options, wave config). The
// engine counters summed into TriageStats::res include two reuse counters,
// promoted_clause_hits and expr_reuse_hits, counted per dump against a
// construction-time watermark and merged in commit order: at wave
// parallelism 1 they are pure functions of (dumps, options). In parallel
// waves engines construct concurrently, so the expr-reuse var watermark
// (unlike the explicitly pinned clause watermark) can vary with worker
// timing; promoted_cache_hits (key promotion is consulted live at lookup
// time) stays a reuse gauge whenever anything runs concurrently.
//
// Backpressure and teardown: Submit rejects with kResourceExhausted when
// the queue is full (deterministic: queue occupancy is a pure function of
// the Submit/Pump interleaving the caller chose) and with
// kFailedPrecondition after Shutdown began. Shutdown drains: every
// admitted dump gets exactly one streamed report before Shutdown returns.
//
// Failure isolation: no wave fails as a whole. A dump that cannot be
// parsed, validated, triaged within its deadline, or promoted yields an
// ordered kQuarantined report; every other report stays byte-identical to
// a stream submitted without that dump, and nothing from a quarantined or
// degraded run is promoted module-global. Every per-dump fault site is
// scoped to the dump's global submission seq; "ir.verify" is the one
// wave-scoped site (see docs/ARCHITECTURE.md §7).
//
// Thread-safety: Submit/SubmitSerialized/stats/pending/accepting are safe
// from any thread. Pump/Drain may be called from any thread; waves are
// serialized internally (never more than one in flight, preserving the
// promotion order). The optional standing thread is just a caller of Pump.
#ifndef RES_TRIAGE_TRIAGE_DAEMON_H_
#define RES_TRIAGE_TRIAGE_DAEMON_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/coredump/coredump.h"
#include "src/ir/module.h"
#include "src/res/reverse_engine.h"
#include "src/res/runtime.h"
#include "src/support/faultpoint.h"
#include "src/support/status.h"
#include "src/triage/triage.h"

namespace res {

// How one dump's triage ended.
enum class TriageOutcome : uint8_t {
  kOk = 0,          // full-fidelity run, facts promoted
  kDegraded = 1,    // deadline hit; report from the degraded retry profile
  kQuarantined = 2, // parse/validate/internal/deadline failure; no verdict
};

// One dump's triage verdicts, all derived from a single RES run (plus the
// two cheap symptom-side baselines for comparison columns).
struct TriageReport {
  size_t index = 0;                 // global submission seq (Submit's value)
  TriageOutcome outcome = TriageOutcome::kOk;
  // Non-OK exactly when outcome == kQuarantined: the failure that stopped
  // this dump (kDataLoss parse/validate, kInternal invariant/fault,
  // kResourceExhausted deadline). Quarantined reports carry ONLY index,
  // outcome, status, and a "quarantine:<code>" res_bucket — the dump may be
  // arbitrary garbage, so no baseline bucketer runs over it either.
  Status status;
  // True for outcome == kDegraded: the step deadline fired and the verdicts
  // below come from the deterministic degraded retry profile.
  bool degraded = false;
  std::string res_bucket;           // == ResBucketer::BucketFor
  std::string stack_bucket;         // WER-style baseline (StackBucketer)
  std::string cause_signature;      // first root cause's signature, or ""
  Exploitability res_rating = Exploitability::kUnknown;
  Exploitability heuristic_rating = Exploitability::kUnknown;
  bool hardware_error_suspected = false;
  ResStats stats;                   // the engine run's merged counters
};

// Every TriageStats counter, once (see src/support/counters.h). The
// promotion counters are counted by the commit thread in submission order;
// the failure-surface counters derive from per-dump outcomes that are pure
// functions of (dumps, options, fault plan, wave config). All are
// deterministic.
#define RES_TRIAGE_STATS(SUM)                                                  \
  SUM(dumps)                /* dumps committed, quarantined ones included */   \
  SUM(clause_promotions)    /* cores newly published module-global */          \
  SUM(cache_promotions)     /* check keys newly promoted module-global */      \
  SUM(quarantined)          /* reports with outcome kQuarantined */            \
  SUM(deadline_exceeded)    /* engine runs stopped by the step deadline */     \
  SUM(degraded_retries)     /* degraded-profile retries launched */

struct TriageStats {
  RES_TRIAGE_STATS(RES_COUNTER_FIELD)
  // The committed runs' engine counters, summed in commit order (see the
  // header comment for which are deterministic at which configuration).
  ResStats res;
  // Wall-clock shape (machine-dependent; summed by += like the counters).
  double wall_ms = 0;

  double dumps_per_sec() const {
    return wall_ms > 0 ? static_cast<double>(dumps) / (wall_ms / 1000.0) : 0;
  }
  TriageStats& operator+=(const TriageStats& o) {
    RES_TRIAGE_STATS(RES_COUNTER_SUM)
    res += o.res;
    wall_ms += o.wall_ms;
    return *this;
  }
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    res.ForEachCounter(fn);
    RES_TRIAGE_STATS(RES_COUNTER_VISIT)
  }
};

struct TriageOptions {
  // Per-dump engine configuration. `runtime`, `consult_promoted`,
  // `fault_plan` and `fault_task` are overwritten by the wave runner (it
  // wires the daemon's runtime, cross_task_reuse and fault plan, and scopes
  // each run to its seq); everything else is honored as-is.
  ResOptions res;
  // Wave parallelism: how many engine runs of one wave may be in flight.
  size_t max_parallel_dumps = 1;
  // Consult and publish module-level facts across dumps. Off = every dump
  // is a cold solo run (still sharing the pool).
  bool cross_task_reuse = true;
};

// The deterministic degraded retry profile a dump runs after its step
// deadline fires: half the suffix depth and no clause sharing. Same deadline
// — the point is to fit under it with a cheaper search, not to wait longer.
ResOptions DegradedProfile(ResOptions base);

struct TriageDaemonOptions {
  // Per-dump engine and wave configuration.
  TriageOptions triage;
  // Wave size K: a module's wave launches as soon as K of its dumps are
  // pending; smaller partial waves flush only on Drain/Shutdown. 0 = cut by
  // drain only (one wave per module).
  size_t wave_size = 8;
  // Bounded submission queue across all modules; 0 = unbounded.
  size_t queue_capacity = 256;
  // --- Bounded memory (0 = off, the grow-forever pre-daemon behavior). ---
  // Max ModuleFacts resident after a wave boundary (fewest-uses evicted
  // first, ties oldest; entries pinned by a running engine are skipped).
  size_t facts_max_resident = 0;
  // Evict ModuleFacts idle for >= this many wave boundaries.
  uint64_t facts_ttl_waves = 0;
  // Shared ExprPool node budget: when exceeded at a wave boundary, the
  // daemon reclaims the whole substrate (promoted cores, check cache,
  // pool) via ResRuntime::ReclaimSubstrate. Cost-only; never changes any
  // report.
  size_t expr_pool_node_budget = 0;
  // Spawn the standing ingest thread (it pumps full waves as they form and
  // drains on Shutdown). Off = the caller drives Pump/Drain explicitly —
  // the deterministic-harness mode the tests use.
  bool start_thread = false;
  // Fault-injection plan for every site a submission reaches (ingest,
  // deserialize, wave, verify, validate, solver, engine, promotion).
  // nullptr falls back to the RES_FAULT_PLAN env plan.
  FaultPlan* fault_plan = nullptr;
  // Streamed per-report callback, invoked on the wave-committing thread in
  // submission order within each wave; report.index carries the global
  // submission seq returned by Submit. Quarantined and degraded reports
  // stream too.
  std::function<void(const TriageReport&)> on_report;
};

// Every daemon-only counter, once (see src/support/counters.h).
#define RES_DAEMON_STATS(SUM)                                                  \
  SUM(submitted)               /* Submit calls (accepted + rejected) */        \
  SUM(admitted)                /* accepted into the queue */                   \
  SUM(rejected)                /* backpressure rejections (queue full) */      \
  SUM(waves)                   /* waves run */                                 \
  /* Facts promoted at wave boundaries (clause + cache promotions): the        \
     wave-scheduling payoff counter. Serial single-batch scheduling ties       \
     it; batch-start-snapshot scheduling loses it. */                          \
  SUM(wave_promotions)                                                         \
  /* Bounded memory. */                                                        \
  SUM(facts_evicted)           /* ModuleFacts entries dropped */               \
  SUM(facts_ttl_evicted)       /* the subset dropped by TTL */                 \
  SUM(promoted_cores_dropped)  /* cores on dropped/cleared facts */            \
  SUM(pool_reclaims)           /* successful ReclaimSubstrate calls */         \
  SUM(pool_nodes_reclaimed)    /* ExprPool nodes freed by those */             \
  SUM(promoted_keys_dropped)   /* promoted check keys cleared */

// Monotone daemon counters: every wave's TriageStats, summed with one +=
// per wave (so `dumps` counts the dumps whose report has streamed), plus
// the daemon's own list. Deterministic at wave parallelism 1 for a fixed
// submission order (see the header comment).
struct TriageDaemonStats : TriageStats {
  RES_DAEMON_STATS(RES_COUNTER_FIELD)

  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    TriageStats::ForEachCounter(fn);
    RES_DAEMON_STATS(RES_COUNTER_VISIT)
  }
};

class TriageDaemon {
 public:
  // `runtime` must outlive the daemon; every submitted Module must outlive
  // its last report.
  explicit TriageDaemon(ResRuntime* runtime, TriageDaemonOptions options = {});
  TriageDaemon(const TriageDaemon&) = delete;
  TriageDaemon& operator=(const TriageDaemon&) = delete;
  ~TriageDaemon();  // Shutdown()

  // Enqueues one dump for `module`. Returns its global submission seq, or
  // kResourceExhausted (queue full — nothing enqueued, retriable) /
  // kFailedPrecondition (shutdown began). A "daemon.ingest" fault arm
  // scoped to the seq poisons the submission instead: it is admitted but
  // pre-failed, and surfaces as an ordered kQuarantined report.
  Result<uint64_t> Submit(const Module& module, Coredump dump);
  // Wire-facing ingest: the blob is deserialized at admission (the
  // "coredump.deserialize" site scoped to the global seq); a corrupt blob
  // is admitted pre-failed, quarantining only its own slot.
  Result<uint64_t> SubmitSerialized(const Module& module,
                                    const std::vector<uint8_t>& blob);

  // Processes every FULL wave currently ready, on the calling thread, in
  // deterministic order (earliest-completed wave first: smallest K-th
  // submission seq). Returns the number of dumps committed.
  size_t Pump();
  // Pump, then flush the remaining partial waves (earliest-first) until
  // the queue is empty. Returns the number of dumps committed.
  size_t Drain();
  // Stops admission, drains everything already admitted (joining the
  // standing thread if one was started), and returns once every admitted
  // dump has streamed its report. Idempotent.
  void Shutdown();

  bool accepting() const;
  size_t pending() const;
  TriageDaemonStats stats() const;

 private:
  struct Pending {
    uint64_t seq = 0;
    Coredump dump;  // meaningful only while `admit` is OK
    Status admit;   // non-OK: pre-failed (ingest fault, parse, validation)
  };

  Result<uint64_t> Enqueue(const Module& module, Coredump dump,
                           const std::vector<uint8_t>* blob);
  // Picks and pops the next wave under state_mu_; nullptr when none ready
  // (in non-flush mode: no module has wave_size pending).
  const Module* PickWaveLocked(bool flush_partial, std::vector<Pending>* wave);
  size_t RunWaves(bool flush_partial);
  // One wave: triage it, fold its counters in, then the bounded-memory step.
  size_t RunWave(const Module& module, std::vector<Pending> wave);
  // The wave runner: admission, engine runs and the in-order commit, each
  // report streamed to on_report. Returns the wave's counters.
  TriageStats TriageWave(const Module& module, std::vector<Pending>* wave);
  bool HasFullWaveLocked() const;
  void ThreadMain();

  ResRuntime* runtime_;
  TriageDaemonOptions options_;

  mutable std::mutex state_mu_;  // queues, stats, accepting flag
  std::condition_variable cv_;   // standing thread wake-up
  std::map<const Module*, std::deque<Pending>> queues_;
  size_t pending_count_ = 0;
  uint64_t next_seq_ = 0;
  bool accepting_ = true;
  TriageDaemonStats stats_;

  std::mutex pump_mu_;  // serializes waves: at most one in flight
  std::thread thread_;
};

}  // namespace res

#endif  // RES_TRIAGE_TRIAGE_DAEMON_H_
