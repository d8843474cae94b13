// Reverse Execution Synthesis — the paper's core contribution (§2).
//
// Given <coredump C, program P>, the engine navigates P's CFG backward from
// the failure PC, one basic block at a time and one thread at a time. For
// every candidate predecessor unit it builds the symbolic snapshot S_pre
// (overwritten locations havocked to fresh symbolic values), forward-
// symbolically executes the unit, and emits matching constraints requiring
// the result to subsume the post-state (the paper's S' ⊇ S_post check,
// realized as solver-checked equalities on every written location). UNSAT
// hypotheses are discarded; surviving ones grow the suffix. Breadcrumbs
// (LBR ring, error log) prune predecessor choices when enabled.
//
// Termination: a root-cause detector fires on the suffix (the normal case),
// the suffix reaches the configured depth, the search reconstructs the full
// execution back to program start, or the frontier empties — the latter,
// with no feasible suffix found at all, is the paper's hardware-error
// verdict ("no feasible execution can produce this coredump").
#ifndef RES_RES_REVERSE_ENGINE_H_
#define RES_RES_REVERSE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cfg/cfg.h"
#include "src/coredump/coredump.h"
#include "src/ir/module.h"
#include "src/res/root_cause.h"
#include "src/res/snapshot.h"
#include "src/res/suffix.h"
#include "src/support/counters.h"
#include "src/support/faultpoint.h"
#include "src/support/status.h"
#include "src/symbolic/expr.h"
#include "src/symbolic/solver.h"

namespace res {

class ResRuntime;
struct ModuleFacts;

struct ResOptions {
  size_t max_units = 64;             // suffix length bound (in blocks)
  size_t max_hypotheses = 50000;     // exploration budget
  bool use_lbr = true;               // consume LBR breadcrumbs
  bool use_error_log = true;         // consume error-log breadcrumbs
  bool stop_at_root_cause = true;    // stop once a detector fires
  // When true (default), hypotheses share a learned-clause store: failed
  // gates publish their minimized UNSAT cores in deterministic commit order,
  // and every popped hypothesis is screened against them, so a sibling
  // repeating a proven conflict is refuted by O(1) membership probes instead
  // of a solver call. When false, every hypothesis goes to its gate — the
  // reference tests/clause_sharing_test.cc pins sharing to, and the degraded
  // retry profile (DegradedProfile).
  bool clause_sharing = true;
  // Deterministic step deadline: the total number of hypotheses the commit
  // loop may pop (committed work, NOT wall clock — so the deadline verdict
  // is byte-identical on any host and under any load) before the run stops
  // with kDeadlineExceeded. 0 = no deadline.
  // Unlike max_hypotheses (which only counts solver-verified expansions),
  // this bounds EVERY committed node, so UNSAT-heavy pathological dumps
  // that explore without verifying still terminate.
  uint64_t deadline_units = 0;
  // Fault injection (see src/support/faultpoint.h): plan consulted by the
  // engine's expand and detect steps ("engine.lane.explore",
  // "engine.lane.detect" — names kept so existing plans still fire), and
  // forwarded to the solver ("solver.strategy"). nullptr falls back to the
  // RES_FAULT_PLAN env plan; fault_task scopes hits to this engine's dump
  // (the triage daemon passes the dump's global submission seq). A fired
  // fault fails the run with kTaskFailed (see ResResult).
  FaultPlan* fault_plan = nullptr;
  int fault_task = FaultPlan::kAnyTask;
  // Shared substrate to attach this run to (see src/res/runtime.h): the
  // process-wide ExprPool, check cache and per-module facts (backward CFG +
  // promoted clause store). nullptr (the default) keeps the classic
  // self-contained engine: private pool, private cache. Output is
  // byte-identical either way; only cold-start cost and cross-run fact
  // reuse change. The runtime must outlive the engine and its results.
  ResRuntime* runtime = nullptr;
  // With a runtime: consult the module's *promoted* learned-clause store
  // (cores published by earlier tasks, snapshot fixed at engine
  // construction) in the commit-time screen, so conflicts already proven
  // for this module refute without a solver call. Counted in
  // SolverStats::promoted_clause_hits, deterministic per snapshot.
  bool consult_promoted = true;
  // Explicit promoted-store watermark to screen against instead of
  // snapshotting at construction (a parallel daemon wave sets this to the
  // wave-start prefix, so every dump sees the same snapshot no matter when
  // its engine is lazily constructed). Values beyond the
  // store's published count are clamped by the store's own probes.
  std::optional<uint64_t> promoted_watermark;
};

enum class StopReason : uint8_t {
  kRootCauseFound = 0,   // detector fired; suffix returned
  kMaxDepth = 1,         // suffix reached max_units; returned anyway
  kReachedStart = 2,     // full execution reconstructed back to main()
  kFrontierExhausted = 3,// no hypothesis could be extended further
  kBudget = 4,           // max_hypotheses explored
  kInconsistentDump = 5, // the dump state cannot even produce the trap
  kDeadlineExceeded = 6, // deadline_units committed without finishing
  kTaskFailed = 7,       // internal failure (fault injection / invariant)
};

std::string_view StopReasonName(StopReason r);

// Counted in commit order by the run's one thread. For a solo engine every
// counter is a pure function of (dump, options). Under a shared ResRuntime
// the solver cache counters (cache_hits/cache_misses/model_reuse_hits,
// promoted_cache_hits, and the work counters they gate) can also vary with
// dump-level parallelism: concurrent runs promote into and read the shared
// check cache. The learned-clause counters (clauses_learned/clause_hits) are
// deterministic at any parallelism.
//
// Every ResStats counter, once (see src/support/counters.h). Detector work
// economy: detector_units_scanned grows by one per folded unit (each
// appended unit while the run detects per node, each unit of a final
// verdict's chain) plus the fallback scans the folded context cannot answer.
#define RES_ENGINE_STATS(SUM, MAX)                                             \
  SUM(hypotheses_explored)     /* nodes committed past the solver gate */      \
  SUM(expansions)              /* committed nodes other than the root */       \
  SUM(pruned_unsat)            /* refuted: false constraint, gate or clause */ \
  SUM(pruned_structural)       /* predecessor choices the CFG/dump rule out */ \
  SUM(pruned_lbr)              /* choices the LBR breadcrumbs rule out */      \
  SUM(pruned_errlog)           /* choices the error log rules out */           \
  /* Options summed over every multi-way choice in a unit: symbolic            \
     addresses and spawn linkages. The name predates spawn forks; perfbench    \
     reads it. */                                                              \
  SUM(address_forks)                                                           \
  SUM(address_unresolved)      /* pointers enumeration could not resolve */    \
  SUM(unknown_kept)            /* unknown gate verdicts kept unverified */     \
  /* Pointer-identical constraints dropped before reaching the solver          \
     (interning makes structural duplicates pointer-equal). */                 \
  SUM(duplicate_constraints)                                                   \
  /* Cross-run variable reuse: FreshVar calls answered by a variable           \
     registered in the shared pool BEFORE this run began (construction         \
     watermark; always 0 without a runtime). Commit-order deterministic: at    \
     a fixed watermark the total is a pure function of (dump, options). */     \
  SUM(expr_reuse_hits)                                                         \
  SUM(detector_units_scanned)  /* units visited by any detector pass */        \
  /* Nodes popped by the commit loop: the deterministic abstract clock the     \
     step deadline (ResOptions::deadline_units) is measured against. */        \
  SUM(committed_units)                                                         \
  SUM(deadline_cancels)        /* runs the step deadline stopped (0 or 1) */   \
  MAX(max_depth)               /* deepest committed hypothesis */              \
  MAX(max_sat_depth)           /* deepest solver-verified hypothesis */

struct ResStats {
  RES_ENGINE_STATS(RES_COUNTER_FIELD, RES_COUNTER_FIELD)
  SolverStats solver;

  ResStats& operator+=(const ResStats& o) {
    RES_ENGINE_STATS(RES_COUNTER_SUM, RES_COUNTER_MAX)
    solver += o.solver;
    return *this;
  }
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    RES_ENGINE_STATS(RES_COUNTER_VISIT, RES_COUNTER_VISIT)
    solver.ForEachCounter(fn);
  }
};

struct ResResult {
  StopReason stop = StopReason::kFrontierExhausted;
  // The reported suffix: the root cause's when one was found, else the
  // reconstructed full execution or the deepest feasible suffix.
  std::optional<SynthesizedSuffix> suffix;
  std::vector<RootCause> causes;            // detectors applied to `suffix`
  bool hardware_error_suspected = false;
  bool dump_inconsistent_at_trap = false;   // depth-0 contradiction
  // Non-OK exactly when stop == kTaskFailed: the first injected/internal
  // fault the run hit. The run then carries no suffix, no causes, and no
  // verdict — callers must quarantine it and promote nothing from it.
  Status status;
  ResStats stats;
};

// Thread-safety: a ResEngine instance is driven from one thread (Run is not
// reentrant) and starts no threads. Distinct engines may run concurrently
// over one ResRuntime: the substrate they share — ExprPool interning, the
// Solver check cache, the promoted clause stores — is individually
// thread-safe (see those headers). pool() and stats() must only be called
// while no Run is in flight.
class ResEngine {
 public:
  // `module` and `dump` must outlive the engine AND any SynthesizedSuffix it
  // returns (suffix snapshots reference the dump's memory image and the
  // engine's expression pool).
  ResEngine(const Module& module, const Coredump& dump, ResOptions options = {});

  ResResult Run();

  // Depth-0 consistency: does the dump state actually produce the recorded
  // trap when the faulting instruction executes? (Public: used directly by
  // the hardware-error pipeline.)
  bool CheckTrapConsistency(std::string* why) const;

  ExprPool* pool() { return pool_; }
  const ResStats& stats() const { return stats_; }
  // The run-local learned-clause store and the solver's seed/limits
  // fingerprint — what the daemon's commit thread promotes after this run
  // committed (ResRuntime::Promote). Call only after Run returned.
  const ClauseStore& learned_clauses() const { return clause_store_; }
  uint64_t solver_fingerprint() const;

 private:
  struct Hypothesis;
  struct TaskCtx;
  struct Gated;
  struct StackEntry;
  struct Reported;

  Hypothesis MakeInitialHypothesis();
  // All single-unit extensions of `h` (one per thread × predecessor edge ×
  // pointer concretization, minus everything structurally pruned). Children
  // are returned UNGATED: their fresh constraints are committed to the
  // constraint vector but not yet solver-checked. Run gates each child when
  // it pops it, after the clause screen, so a child refuted by a core that
  // an earlier sibling's subtree learned never pays for a solver call.
  std::vector<Hypothesis> Expand(const Hypothesis& h, TaskCtx* tctx);

  std::vector<Hypothesis> TryReversePartial(const Hypothesis& h, uint32_t tid,
                                            TaskCtx* tctx);
  std::vector<Hypothesis> TryReverseLocal(const Hypothesis& h, uint32_t tid,
                                          const PredEdge& edge, TaskCtx* tctx);
  std::vector<Hypothesis> TryReverseCallEntry(const Hypothesis& h, uint32_t tid,
                                              const PredEdge& edge, TaskCtx* tctx);
  std::vector<Hypothesis> TryReverseReturn(const Hypothesis& h, uint32_t tid,
                                           const PredEdge& edge, TaskCtx* tctx);
  std::vector<Hypothesis> TryMarkBirth(const Hypothesis& h, uint32_t tid,
                                       const PredEdge* spawn_edge, TaskCtx* tctx);

  // One unit to reverse: instructions [0, end_index) of `block` on thread
  // `tid`'s top frame, plus the structural step's matching obligations.
  struct UnitPlan {
    uint32_t tid = 0;
    BlockRef block;
    uint32_t end_index = 0;
    bool includes_terminator = false;
    bool check_frame_post = true;   // false for return-reversal pushed frames
    int branch_cond_edge = -1;      // kCondBr: 0 taken / 1 not-taken
    // kRet reversal: the caller-side register the return value must match
    // (post expression captured by the caller before the frame push).
    const Expr* ret_must_equal = nullptr;
    // kCall reversal: argument post-expressions to match (callee params).
    std::vector<const Expr*> callee_param_post;
    // Constraints contributed by the structural step (e.g. callee locals
    // zeroed at entry), checked together with the unit's own constraints.
    std::vector<const Expr*> extra_constraints;
    // True when this unit's entry edge consumes one LBR ring entry.
    bool consumes_lbr = false;
  };
  struct UnitState;
  // Executes `plan` over `base` (a caller's own copy, so a thread it
  // already cloned is not cloned again): havocs the unit's register write
  // set into S_pre, runs the unit forward symbolically, and matches the
  // result against S_post — written memory and, when `check_frame_post`,
  // written registers must equal their post values. Appends each feasible
  // result (its SuffixUnit attached, ungated) to `out`.
  void ExecuteUnit(Hypothesis base, const UnitPlan& plan, TaskCtx* tctx,
                   std::vector<Hypothesis>* out);
  // Runs `s` on from instruction s.next. At a multi-way choice (a symbolic
  // address, a spawn linkage) each option continues from its own copy of
  // `s`, in option order, so the unit's prefix executes once per fork point.
  void ContinueUnit(const UnitPlan& plan, UnitState s, TaskCtx* tctx,
                    std::vector<Hypothesis>* out);

  // Deduplicates `fresh` against h's constraint set and appends the
  // survivors. Returns false (counting the prune) when a constraint is
  // literally false. The solver check itself is GateNode's.
  bool CommitFresh(Hypothesis* h, std::vector<const Expr*> fresh, TaskCtx* tctx);

  // --- Per-node steps of Run's commit loop. ---
  // Solver verdict for n's constraint vector, with the incremental context
  // forked from the parent's post-gate context into *g. False when the gate
  // refutes the node (its UNSAT core, if any, in *core) or faults.
  bool GateNode(const StackEntry& n, Gated* g, TaskCtx* tctx,
                std::vector<const Expr*>* core);
  // Root-cause detection on h's suffix under g's model, from the context
  // folded along h's chain (the "engine.lane.detect" fault site).
  std::vector<RootCause> DetectNode(const Hypothesis& h, const Gated& g);
  // Root-cause detection for a final verdict: folds r's chain once, then
  // detects as DetectNode does.
  std::vector<RootCause> DetectFinal(const Reported& r);
  // Detection from `ctx`, folded over h's chain, under `model`.
  std::vector<RootCause> Detect(const Hypothesis& h, const RootCauseContext& ctx,
                                const Assignment& model);
  // All-at-birth completion: the full execution (h with the initial-state
  // constraints, and its own gate's model) when h's snapshot matches the
  // program's initial state, nullopt otherwise.
  std::optional<Reported> CompleteStartNode(const Hypothesis& h,
                                            const Gated& g, TaskCtx* tctx);

  bool LbrAllowsEdge(const Hypothesis& h, uint32_t tid, const Pc& branch_source,
                     const Pc& branch_dest) const;

  // Learned-clause commit protocol: does a core already published by the
  // run-local store (seq <= screen_seq) — or by the module's promoted store
  // within this run's fixed watermark — refute n's constraint set? Checks
  // cores touching n's fresh constraints plus local cores published since
  // the parent's screen — everything older that could refute n would have
  // refuted an ancestor at its own screen (constraints are append-only, and
  // every node screens against the same promoted watermark). Returns 0 =
  // no, 1 = local store, 2 = promoted store.
  int ScreenRefutes(const StackEntry& n, uint64_t screen_seq);

  // Materializes the suffix Run returns.
  SynthesizedSuffix Finalize(const Reported& r) const;
  bool AllThreadsAtBirth(const Hypothesis& h) const;

  const Expr* FreshVar(TaskCtx* tctx, VarTag tag, VarOrigin origin);

  // Records the run's first injected/internal fault (later ones are
  // dropped). The commit loop stops at its next pop, and Run then reports
  // kTaskFailed with this status.
  void RecordFault(Status status);

  const Module& module_;
  const Coredump& dump_;
  ResOptions options_;
  // Runtime-shared module facts (nullptr without a runtime); owned_* hold
  // the private fallbacks, and cfg_/pool_ always point at whichever is
  // active — declaration order here is load-bearing (ctor init order).
  // Holding the shared_ptr pins the facts against runtime eviction for the
  // whole run (see ResRuntime::FactsFor).
  std::shared_ptr<ModuleFacts> facts_;
  std::unique_ptr<ModuleCfg> owned_cfg_;
  const ModuleCfg* cfg_;
  std::unique_ptr<ExprPool> owned_pool_;
  ExprPool* pool_;
  Solver solver_;
  // Run-local learned-clause store (clause_sharing only). The commit loop
  // publishes failed gates' cores and screens every popped node against
  // it — see Run().
  ClauseStore clause_store_;
  // Module-global promoted cores (runtime + consult_promoted only): a
  // read/record-hit view bounded by the watermark taken at construction.
  ClauseStore* promoted_ = nullptr;
  uint64_t promoted_watermark_ = 0;
  // Pool variable count at construction: FreshVar counts a reuse hit iff
  // the interned variable's id precedes this watermark (i.e. it was
  // registered by an earlier run over the shared pool) — see
  // ResStats::expr_reuse_hits.
  size_t var_watermark_ = 0;
  ResStats stats_;
  // Per-engine immutable detector precomputation.
  RootCauseSetup rc_setup_;
  // Per-thread error-log entries (oldest first), split from the global log.
  std::vector<std::vector<ErrorLogEntry>> thread_logs_;
  bool log_was_full_ = false;
  // Fault-injection scope for the engine's own sites (two words; copies of
  // options_.fault_plan / fault_task).
  FaultScope faults_;
  // First fault the run recorded (see RecordFault).
  Status fault_;
};

}  // namespace res

#endif  // RES_RES_REVERSE_ENGINE_H_
