// TriageService — fleet-scale batch triage over a shared ResRuntime.
//
// The paper's headline use case (§3.1) is a WER-style backend consuming a
// *stream* of coredumps. The solo classes in triage.h spin up a fresh engine
// per call; this service instead schedules per-dump RES tasks over one
// ResRuntime (shared ExprPool, check cache, per-module facts) and commits
// results on the calling thread in dump-submission order:
//
//   submit dumps ──> per-dump engine runs (up to max_parallel_dumps
//                    concurrently, each searching on its worker's thread)
//              ──> commit thread: promote the task's module-level facts
//                  (learned cores, cold-check keys) in submission order,
//                  derive bucket + ratings from the ONE engine run, stream
//                  the report.
//
// Output contract: every report's res_bucket / cause_signature / res_rating
// is byte-identical to a solo ResBucketer::BucketFor /
// ResExploitabilityRater::Rate run over the same dump with the same
// ResOptions (tests/triage_batch_test.cc pins this across batch
// parallelism). Cross-task reuse changes cost, not output.
//
// Determinism of the reuse counters: TriageStats::clause_promotions and
// cache_promotions are computed by the commit thread from per-task artifacts
// that are themselves deterministic (cores published in commit order,
// cold-check keys merged in commit order), promoted in submission order —
// so at a fixed batch configuration they are pure functions of (dumps,
// options). Engines snapshot the promoted store at construction: serial
// batches (max_parallel_dumps == 1) construct each engine after the
// previous task's promotion (maximal intra-batch reuse); parallel batches
// pin the batch-start watermark before any worker runs (intra-batch
// independence, cross-batch reuse) — either way the watermarks are
// schedule-independent. The engine counters a batch sums into
// TriageStats::res include two reuse counters, promoted_clause_hits and
// expr_reuse_hits, that are deterministic at a fixed configuration: both
// are counted per task against a construction-time watermark and merged by
// the commit thread in commit order, so with max_parallel_dumps == 1 they
// are pure functions of (dumps, options). With
// max_parallel_dumps > 1, engines construct concurrently, so the
// expr-reuse var watermark (unlike the explicitly pinned clause watermark)
// can vary with worker timing; promoted_cache_hits (key promotion is
// consulted live at lookup time) stays a reuse gauge whenever anything
// runs concurrently — like the solver cache counters it extends.
#ifndef RES_TRIAGE_TRIAGE_SERVICE_H_
#define RES_TRIAGE_TRIAGE_SERVICE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/coredump/coredump.h"
#include "src/ir/module.h"
#include "src/res/reverse_engine.h"
#include "src/res/runtime.h"
#include "src/support/faultpoint.h"
#include "src/support/status.h"
#include "src/triage/triage.h"

namespace res {

// How one dump's task ended. Failure isolation contract: a batch NEVER
// fails as a whole — a dump that cannot be parsed, validated, triaged
// within its deadline, or promoted yields a kQuarantined report, every
// other dump's report stays byte-identical to a batch submitted without
// the failed dump, and nothing from a quarantined or degraded task is
// promoted module-global (see ARCHITECTURE.md §7).
enum class TriageOutcome : uint8_t {
  kOk = 0,          // full-fidelity run, facts promoted
  kDegraded = 1,    // deadline hit; report from the degraded retry profile
  kQuarantined = 2, // parse/validate/internal/deadline failure; no verdict
};

// One dump's triage verdicts, all derived from a single RES run (plus the
// two cheap symptom-side baselines for comparison columns).
struct TriageReport {
  size_t index = 0;                 // dump-submission index
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
// the failure-surface counters derive from per-task outcomes that are pure
// functions of (dumps, options, fault plan, batch config). All are
// deterministic.
#define RES_TRIAGE_STATS(SUM)                                                  \
  SUM(dumps)                /* dumps submitted, quarantined ones included */   \
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
  // Rough cold-start economy: what the tail dumps saved versus paying the
  // first dump's cost again, (first - mean(rest)) * (n - 1), floored at 0.
  double cold_start_saved_ms = 0;

  double dumps_per_sec() const {
    return wall_ms > 0 ? static_cast<double>(dumps) / (wall_ms / 1000.0) : 0;
  }
  TriageStats& operator+=(const TriageStats& o) {
    RES_TRIAGE_STATS(RES_COUNTER_SUM)
    res += o.res;
    wall_ms += o.wall_ms;
    cold_start_saved_ms += o.cold_start_saved_ms;
    return *this;
  }
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    res.ForEachCounter(fn);
    RES_TRIAGE_STATS(RES_COUNTER_VISIT)
  }
};

struct TriageOptions {
  // Per-dump engine configuration. `runtime` and `consult_promoted` are
  // overwritten by the service (it wires its own runtime and
  // cross_task_reuse); everything else is honored as-is.
  ResOptions res;
  // Dump-level parallelism: how many RES tasks may be in flight at once.
  size_t max_parallel_dumps = 1;
  // Consult and publish module-level facts across tasks. Off = every task
  // is a cold solo run (still sharing the pool).
  bool cross_task_reuse = true;
  // Fault-injection plan threaded through every failure domain the batch
  // touches (deserialize, validate, verify, solver, engine steps,
  // promotion), scoped per dump index. nullptr falls back to the
  // RES_FAULT_PLAN env plan. See src/support/faultpoint.h.
  FaultPlan* fault_plan = nullptr;
  // Streamed per-report callback, invoked on the commit thread in
  // submission order (before RunBatch returns). Quarantined and degraded
  // reports stream too.
  std::function<void(const TriageReport&)> on_result;
};

// The deterministic degraded retry profile a task runs after its step
// deadline fires: half the suffix depth and no clause sharing. Same deadline
// — the point is to fit under it with a cheaper search, not to wait longer.
ResOptions DegradedProfile(ResOptions base);

// Thread-safety: RunBatch is driven from one thread at a time per service
// instance; distinct services (even over the same runtime and module) may
// run batches concurrently.
class TriageService {
 public:
  // `runtime` and `module` must outlive the service and its reports.
  TriageService(ResRuntime* runtime, const Module& module,
                TriageOptions options = {});

  std::vector<TriageReport> RunBatch(const std::vector<const Coredump*>& dumps,
                                     TriageStats* stats = nullptr);
  std::vector<TriageReport> RunBatch(const std::vector<Coredump>& dumps,
                                     TriageStats* stats = nullptr);
  // The wire-facing entry: each blob is deserialized (bounds-hardened;
  // "coredump.deserialize" site scoped to its index) and validated before
  // admission — a corrupt blob quarantines only its own slot.
  std::vector<TriageReport> RunBatchSerialized(
      const std::vector<std::vector<uint8_t>>& blobs,
      TriageStats* stats = nullptr);
  // The wave-scheduler entry (TriageDaemon): like RunBatch, but a slot may
  // arrive pre-failed from upstream admission — `dumps[i] == nullptr` means
  // slot i failed with `admit[i]` (ingest fault, parse failure, wave
  // poisoning) and quarantines through the standard path, keeping report
  // order, counters, and promotion watermarks identical to a batch
  // submitted without it.
  std::vector<TriageReport> RunBatchAdmitted(
      const std::vector<const Coredump*>& dumps, std::vector<Status> admit,
      TriageStats* stats = nullptr);

 private:
  // `dumps[i] == nullptr` means slot i failed admission with `admit[i]`.
  std::vector<TriageReport> RunBatchImpl(
      const std::vector<const Coredump*>& dumps, std::vector<Status> admit,
      TriageStats* stats);

  ResRuntime* runtime_;
  const Module& module_;
  TriageOptions options_;
};

}  // namespace res

#endif  // RES_TRIAGE_TRIAGE_SERVICE_H_
