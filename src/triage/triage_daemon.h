// TriageDaemon — the standing, always-on face of fleet triage.
//
// The paper's deployment model (§3.1) is a WER-style backend: a long-lived
// process fed an endless mixed-module stream of coredumps from the field,
// not a library called once per batch. TriageService::RunBatch is that
// library call; this daemon turns it into a service:
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
//   TriageService::RunBatchAdmitted  (one RunBatch per wave; promotion at
//        │                            the wave boundary, submission order)
//        ▼
//   on_report stream                 (report.index = global submission seq)
//        +
//   bounded-memory step              (facts TTL/capacity eviction, ExprPool
//                                     reclaim — between waves only)
//
// Wave-scheduled promotion (ROADMAP PR 5 tail b): dumps are batched in
// waves of K per module; each wave is exactly one RunBatch, so a parallel
// wave pins the wave-start promoted watermark and the commit thread
// promotes the wave's facts in submission order at the wave boundary.
// Tail dumps therefore reuse facts from every *earlier wave* instead of
// only from batches that happened to be split by the caller.
//
// Determinism contract: for a given submission order, the daemon's report
// stream is byte-identical to a sequence of RunBatch calls over the same
// per-module chunks at the same wave boundaries — at every (engine threads
// × wave parallelism) combination, with or without eviction/reclaim. This
// holds by construction: wave boundaries are pure functions of submission
// order (a module's wave launches exactly when its K-th dump arrives;
// partial waves flush only on Drain/Shutdown, earliest-first), each wave IS
// one RunBatchAdmitted call, and the bounded-memory knobs are cost-only
// (cross-task reuse changes cost, never output). tests/triage_daemon_test.cc
// enforces the byte-compare across the full matrix.
//
// Backpressure and teardown: Submit rejects with kResourceExhausted when
// the queue is full (deterministic: queue occupancy is a pure function of
// the Submit/Pump interleaving the caller chose) and with
// kFailedPrecondition after Shutdown began. Shutdown drains: every
// admitted dump gets exactly one streamed report before Shutdown returns.
//
// Fault sites (PR 6 vocabulary): "daemon.ingest" poisons a submission at
// admission and "daemon.promote_wave" poisons a dump's slot at its wave's
// promotion boundary — both scoped to the GLOBAL submission seq, both
// surfacing as an ordered kQuarantined report rather than a silent drop,
// with the usual isolation guarantee (survivors byte-identical to a stream
// without the poisoned dump). Engine/batch-level sites fired inside a wave
// keep their TriageService scoping: the WAVE-LOCAL dump index.
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
#include <thread>
#include <vector>

#include "src/coredump/coredump.h"
#include "src/ir/module.h"
#include "src/res/runtime.h"
#include "src/support/faultpoint.h"
#include "src/support/status.h"
#include "src/triage/triage_service.h"

namespace res {

struct TriageDaemonOptions {
  // Per-wave engine/batch configuration. `triage.max_parallel_dumps` is the
  // wave parallelism; `triage.fault_plan` and `triage.on_result` are
  // overwritten by the daemon (use the fields below).
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
  // Fault-injection plan for the daemon sites and everything below them.
  // nullptr falls back to the RES_FAULT_PLAN env plan.
  FaultPlan* fault_plan = nullptr;
  // Streamed per-report callback, invoked on the wave-committing thread in
  // submission order within each wave; report.index carries the GLOBAL
  // submission seq returned by Submit.
  std::function<void(const TriageReport&)> on_report;
};

// Every daemon-only counter, once (see src/support/counters.h).
#define RES_DAEMON_STATS(SUM)                                                  \
  SUM(submitted)               /* Submit calls (accepted + rejected) */        \
  SUM(admitted)                /* accepted into the queue */                   \
  SUM(rejected)                /* backpressure rejections (queue full) */      \
  SUM(waves)                   /* RunBatch calls issued */                     \
  /* Facts promoted at wave boundaries (clause + cache promotions): the        \
     wave-scheduling payoff counter. Serial single-batch scheduling ties       \
     it; batch-start-snapshot scheduling loses it. */                          \
  SUM(wave_promotions)                                                         \
  /* Bounded memory. */                                                        \
  SUM(facts_evicted)           /* ModuleFacts entries dropped */               \
  SUM(facts_ttl_evicted)       /* the subset dropped by TTL */                 \
  SUM(promoted_cores_dropped)  /* live cores on dropped/cleared facts */       \
  SUM(pool_reclaims)           /* successful ReclaimSubstrate calls */         \
  SUM(pool_nodes_reclaimed)    /* ExprPool nodes freed by those */             \
  SUM(promoted_keys_dropped)   /* promoted check keys cleared */

// Monotone daemon counters: every wave's TriageStats, summed with one +=
// per wave (so `dumps` counts the dumps whose report has streamed), plus
// the daemon's own list. Deterministic at wave parallelism 1 for a fixed
// submission order (the per-wave counters are — see triage_service.h).
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
    Coredump dump;
    bool has_dump = false;
    Status admit;  // non-OK: pre-failed at ingest (fault / parse)
  };

  Result<uint64_t> Enqueue(const Module& module, Coredump dump, bool has_dump,
                           const std::vector<uint8_t>* blob);
  // Picks and pops the next wave under state_mu_; nullptr when none ready
  // (in non-flush mode: no module has wave_size pending).
  const Module* PickWaveLocked(bool flush_partial, std::vector<Pending>* wave);
  size_t RunWaves(bool flush_partial);
  size_t RunWave(const Module& module, std::vector<Pending> wave);
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
