#include "src/res/reverse_engine.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <limits>
#include <map>
#include <mutex>
#include <atomic>
#include <chrono>
#include <cstdlib>

#include "src/res/runtime.h"
#include "src/support/hash.h"
#include "src/support/logging.h"
#include "src/support/persistent.h"
#include "src/support/string_util.h"
#include "src/support/thread_pool.h"

namespace res {

namespace {

// Heap allocations round byte sizes up to whole words (see Heap::Allocate).
uint64_t SizeWordsFromBytes(uint64_t bytes) {
  uint64_t words = (bytes + kWordSize - 1) / kWordSize;
  return words == 0 ? 1 : words;
}

// Extracts the constant term of an address expression in affine form
// (c, c+e, e+c). Returns 0 when no constant base is syntactically evident.
uint64_t AffineBase(const Expr* e) {
  if (e->is_const()) {
    return static_cast<uint64_t>(e->value);
  }
  if (e->kind == ExprKind::kBinary && e->bin_op == BinOp::kAdd) {
    if (e->b->is_const()) {
      return static_cast<uint64_t>(e->b->value);
    }
    if (e->a->is_const()) {
      return static_cast<uint64_t>(e->a->value);
    }
  }
  return 0;
}

// Specificity ranking for root-cause refinement. Shallow suffixes yield
// generic explanations (a lone writer feeding an assert, an untainted
// overflow); slightly deeper ones often reveal the interleaving or the
// external input behind them. The engine keeps searching briefly while the
// best cause is below kTerminalStrength and upgrades on strictly stronger
// findings.
constexpr int kTerminalStrength = 3;
constexpr uint64_t kRefineBudget = 500;  // extra hypotheses after a candidate

int CauseStrength(const RootCause& cause) {
  switch (cause.kind) {
    case RootCauseKind::kAtomicityViolation:
    case RootCauseKind::kUseAfterFree:
    case RootCauseKind::kDoubleFree:
    case RootCauseKind::kDeadlock:
      return kTerminalStrength;
    case RootCauseKind::kDataRace:
    case RootCauseKind::kOrderViolation:
      return 2;
    case RootCauseKind::kBufferOverflow:
      return cause.input_tainted ? kTerminalStrength : 2;
    case RootCauseKind::kDivByZero:
    case RootCauseKind::kWildPointer:
    case RootCauseKind::kSemanticBug:
      return cause.input_tainted ? kTerminalStrength : 1;
    case RootCauseKind::kUnknown:
      return 0;
  }
  return 0;
}

}  // namespace

std::string_view StopReasonName(StopReason r) {
  switch (r) {
    case StopReason::kRootCauseFound:
      return "root_cause_found";
    case StopReason::kMaxDepth:
      return "max_depth";
    case StopReason::kReachedStart:
      return "reached_start";
    case StopReason::kFrontierExhausted:
      return "frontier_exhausted";
    case StopReason::kBudget:
      return "budget";
    case StopReason::kInconsistentDump:
      return "inconsistent_dump";
    case StopReason::kDeadlineExceeded:
      return "deadline_exceeded";
    case StopReason::kTaskFailed:
      return "task_failed";
  }
  return "?";
}

// One node of the backward search tree — the *exploration* state only.
// Solver products (context, model, verified flag) live on the SpecNode that
// wraps the hypothesis, because gating runs as a separate pipeline lane:
// exploration of a child may start before its parent's solver verdict
// exists, and the two lanes must not share mutable fields.
//
// Forking copies O(delta) plus small bounded aggregates, never the
// accumulated bulk: the snapshot is COW, the suffix spine (SuffixChainNode)
// and the constraint vector/set are structurally shared persistent
// containers, and the root-cause context is shared chains plus aggregates
// bounded by the trap operand's live def-use frontier and the distinct
// mutex/address population (not by suffix depth).
struct ResEngine::Hypothesis {
  SymSnapshot state;                       // machine state at suffix start
  // Accumulated path/match condition (append-only, structure-shared).
  PersistentVector<const Expr*> constraints;
  // Interned members of `constraints`, for near-O(1) duplicate rejection.
  PersistentSet<const Expr*> constraint_set;
  // Immutable suffix spine: each hypothesis appends one SuffixUnit and
  // shares the rest of the chain with its parent. head = deepest unit
  // (furthest from the crash); walking prev reaches the crash.
  SuffixChainPtr units_backward;
  // Per-hypothesis incremental detector state, folded one unit at a time
  // alongside the chain (mirrors how SolverContext threads solver state).
  RootCauseContext rc_ctx;
  std::vector<size_t> lbr_remaining;       // per thread, unconsumed LBR entries
  std::vector<size_t> errlog_remaining;    // per thread, unconsumed log entries

  void AppendUnit(SuffixUnit unit) {
    units_backward = ExtendSuffixChain(std::move(units_backward), std::move(unit));
  }

  size_t depth() const { return units_backward ? units_backward->depth : 0; }
};

// Per-task context: a deterministic fresh-variable namespace plus private
// stats sinks. Every task derives its namespace from its position in the
// search tree (never from global counters), so the variables it mints — and
// therefore everything the solver decides about them — are identical
// regardless of how tasks interleave across worker threads.
struct ResEngine::TaskCtx {
  uint64_t ns = 0;       // deterministic namespace for FreshVar
  uint32_t var_seq = 0;  // per-task variable counter
  ResStats stats;        // engine counters (merged at commit)
  SolverStats sstats;    // solver counters (merged at commit)
};

// One speculation-tree node: a hypothesis plus the states/results of its
// (up to three) tasks. Field ownership protocol: task-result fields are
// written exclusively by the running task and read by the main thread only
// after observing state == kDone under the scheduler mutex; tree fields
// (children, parent) are main-thread-only.
struct ResEngine::SpecNode {
  enum class St : uint8_t { kIdle = 0, kRunning = 1, kDone = 2 };

  Hypothesis h;
  uint64_t ns = 0;
  bool is_root = false;
  bool all_at_birth = false;
  // Set (under the scheduler mutex) when the committer discards this
  // subtree: no further tasks may be launched for it. Any still-running
  // task completes normally; its continuation sees the flag and stops.
  bool abandoned = false;
  // Kept until this node's gate has forked parent's solver context; cleared
  // afterwards so ancestors free progressively (and to break parent<->child
  // shared_ptr cycles).
  std::shared_ptr<SpecNode> parent;
  SpecNode* parent_raw = nullptr;

  // Gate lane: solver verdict over h.constraints, context forked from the
  // parent's post-gate context (the incremental chain dependency).
  St gate_state = St::kIdle;
  bool gate_passed = false;
  bool verified = false;
  SolverContext ctx;
  Assignment model;
  ResStats gate_stats;
  SolverStats gate_sstats;
  // UNSAT core behind a failed gate (task-written before kDone); published
  // to the shared clause store by the commit thread, in commit order.
  std::vector<const Expr*> gate_core;
  // Learned-clause screen bookkeeping, written ONLY by the main thread:
  // screen_base / parent_screen_seq when the node is pushed onto the commit
  // stack, screen_seq when it is popped. Worker tasks never read these.
  size_t screen_base = 0;          // parent's constraint count at push time
  uint64_t parent_screen_seq = 0;  // store prefix the parent's screen covered
  uint64_t screen_seq = 0;         // store prefix this node's screen covered

  // Explore lane: ungated children (independent of the gate verdict).
  St explore_state = St::kIdle;
  std::vector<Hypothesis> explore_out;
  ResStats explore_stats;
  SolverStats explore_sstats;
  std::vector<std::shared_ptr<SpecNode>> children;
  bool children_built = false;

  // Complete-start lane (all-at-birth nodes only; runs after the gate).
  St complete_state = St::kIdle;
  bool complete_ok = false;
  bool complete_verified = false;
  Hypothesis complete_h;
  Assignment complete_model;
  ResStats complete_stats;
  SolverStats complete_sstats;

  // Detect lane (verified nodes when stop_at_root_cause; runs after gate).
  St detect_state = St::kIdle;
  SynthesizedSuffix det_suffix;
  std::vector<RootCause> det_causes;
  DetectorStats det_dstats;
};

// Scheduler shared state: guards every SpecNode task-state field once a
// worker pool exists, and carries the completion signal.
struct ResEngine::Sched {
  std::mutex mu;
  std::condition_variable cv;
  size_t outstanding = 0;  // submitted but not yet completed tasks
  // Set when Run has its result: completing tasks stop launching
  // successors, so `outstanding` drains promptly instead of cascading
  // through the remaining speculation tree.
  bool stopping = false;
  // Per-run task-execution telemetry (RES_SCHED_DEBUG only; merged under
  // `mu` by the completion handler).
  bool debug = false;
  double lane_exec_ms[4] = {0, 0, 0, 0};
  uint64_t lane_runs[4] = {0, 0, 0, 0};
};

namespace {

SolverOptions MakeSolverOptions(const ResOptions& options) {
  SolverOptions s;
  s.portfolio = options.solver_portfolio;
  s.budget_steps = options.solver_budget_steps;
  s.fault_plan = options.fault_plan;
  s.fault_task = options.fault_task;
  return s;
}

}  // namespace

uint64_t ResSolverFingerprint(const ResOptions& options) {
  return SolverFingerprint(options.solver_seed, MakeSolverOptions(options));
}

ResEngine::ResEngine(const Module& module, const Coredump& dump, ResOptions options)
    : module_(module),
      dump_(dump),
      options_(options),
      facts_(options.runtime != nullptr ? options.runtime->FactsFor(module)
                                        : nullptr),
      owned_cfg_(facts_ != nullptr ? nullptr
                                   : std::make_unique<ModuleCfg>(
                                         ModuleCfg::Build(module))),
      cfg_(facts_ != nullptr ? &facts_->cfg : owned_cfg_.get()),
      owned_pool_(options.runtime != nullptr ? nullptr
                                             : std::make_unique<ExprPool>()),
      pool_(options.runtime != nullptr ? options.runtime->pool()
                                       : owned_pool_.get()),
      solver_(pool_, options.solver_seed, MakeSolverOptions(options),
              options.runtime != nullptr ? options.runtime->check_cache()
                                         : nullptr,
              options.runtime != nullptr ? options.runtime->NextEpoch() : 0) {
  // Shared-pool watermark for the deterministic expr_reuse_hits counter.
  // 0 for a private pool (nothing predates the run). Taken at construction:
  // serial batch/wave schedulers construct each engine after the previous
  // task committed, making the watermark — and with it the counter —
  // schedule-independent.
  var_watermark_ = pool_->var_count();
  if (facts_ != nullptr && options_.consult_promoted) {
    // Fixed snapshot: every screen in this run sees exactly this prefix, so
    // verdicts stay pure functions of (dump, options, snapshot) at any
    // thread count.
    promoted_ = &facts_->promoted_clauses;
    promoted_watermark_ =
        options_.promoted_watermark.value_or(promoted_->published());
  }
  if (!dump.has_memory) {
    options_.treat_as_minidump = true;
  }
  if (options_.incremental_root_causes) {
    rc_setup_ = MakeRootCauseSetup(module, dump);
  }
  thread_logs_.resize(dump.threads.size());
  for (const ErrorLogEntry& e : dump.error_log) {
    if (e.thread < thread_logs_.size()) {
      thread_logs_[e.thread].push_back(e);
    }
  }
  // A full ring means older entries may have rotated out.
  log_was_full_ = dump.error_log.size() >= 64;
  faults_.plan = options_.fault_plan;
  faults_.task = options_.fault_task;
}

void ResEngine::RecordFault(Status status) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  if (!faulted_.load(std::memory_order_relaxed)) {
    fault_status_ = std::move(status);
    faulted_.store(true, std::memory_order_release);
  }
}

const Expr* ResEngine::FreshVar(TaskCtx* tctx, VarTag tag, VarOrigin origin) {
  VarKey key;
  key.tag = tag;
  key.seq = tctx->var_seq++;
  key.ns = tctx->ns;
  const uint64_t uid = HashCombine(key.ns, key.seq);
  // InternVar, not Var: under a shared runtime pool, the identical search
  // position in another run over this module re-uses the same node (within
  // one run the keys are collision-free, so this is plain registration).
  const Expr* v = pool_->InternVar(key, origin, uid);
  // Reuse hit iff the variable predates this run (construction watermark):
  // a deterministic property of the variable, not of call timing. Counted
  // into the task-local stats so only committed tasks contribute — see
  // ResStats::expr_reuse_hits.
  if (v->var < var_watermark_) {
    ++tctx->stats.expr_reuse_hits;
  }
  return v;
}

uint64_t ResEngine::solver_fingerprint() const { return solver_.fingerprint(); }

void ResEngine::MergeStats(const ResStats& d, const SolverStats& sd) {
  stats_.expansions += d.expansions;
  stats_.pruned_unsat += d.pruned_unsat;
  stats_.pruned_structural += d.pruned_structural;
  stats_.pruned_lbr += d.pruned_lbr;
  stats_.pruned_errlog += d.pruned_errlog;
  stats_.address_forks += d.address_forks;
  stats_.address_unresolved += d.address_unresolved;
  stats_.unknown_kept += d.unknown_kept;
  stats_.duplicate_constraints += d.duplicate_constraints;
  stats_.expr_reuse_hits += d.expr_reuse_hits;
  stats_.detector_units_scanned += d.detector_units_scanned;
  stats_.detector_rescans_avoided += d.detector_rescans_avoided;

  SolverStats& s = stats_.solver;
  s.checks += sd.checks;
  s.incremental_checks += sd.incremental_checks;
  s.eq_bindings += sd.eq_bindings;
  s.interval_cuts += sd.interval_cuts;
  s.enumerated_points += sd.enumerated_points;
  s.search_steps += sd.search_steps;
  s.propagation_rounds += sd.propagation_rounds;
  s.propagated_constraints += sd.propagated_constraints;
  s.model_reuse_hits += sd.model_reuse_hits;
  s.cache_hits += sd.cache_hits;
  s.cache_misses += sd.cache_misses;
  s.sat += sd.sat;
  s.unsat += sd.unsat;
  s.unknown += sd.unknown;
  for (size_t i = 0; i < kNumStrategies; ++i) {
    s.strategy_steps[i] += sd.strategy_steps[i];
    s.strategy_wins[i] += sd.strategy_wins[i];
  }
  s.budget_exhaustions += sd.budget_exhaustions;
  s.promoted_cache_hits += sd.promoted_cache_hits;
  // Cold-check keys append in merge order == commit order, so the engine's
  // final journal is deterministic (speculative tasks that are discarded
  // are never merged).
  s.cold_check_keys.insert(s.cold_check_keys.end(), sd.cold_check_keys.begin(),
                           sd.cold_check_keys.end());
  // clauses_learned / clause_hits / promoted_clause_hits are counted
  // directly by the commit thread (never through per-task sinks), so they
  // need no merge here.
}

ResEngine::Hypothesis ResEngine::MakeInitialHypothesis() {
  Hypothesis h;
  h.state = SymSnapshot::FromCoredump(module_, dump_, pool_);
  h.lbr_remaining.resize(dump_.threads.size(), 0);
  h.errlog_remaining.resize(dump_.threads.size(), 0);
  for (size_t t = 0; t < dump_.threads.size(); ++t) {
    h.lbr_remaining[t] = dump_.threads[t].lbr.size();
    h.errlog_remaining[t] = thread_logs_[t].size();
  }
  return h;
}

bool ResEngine::CheckTrapConsistency(std::string* why) const {
  const TrapInfo& trap = dump_.trap;
  auto fail = [why](std::string reason) {
    if (why != nullptr) {
      *why = std::move(reason);
    }
    return false;
  };
  if (trap.kind == TrapKind::kDeadlock) {
    for (const ThreadDump& t : dump_.threads) {
      if (t.state == ThreadState::kRunnable) {
        return fail(StrFormat("deadlock dump has runnable thread %u", t.id));
      }
    }
    return true;
  }
  if (trap.thread >= dump_.threads.size()) {
    return fail("faulting thread missing from dump");
  }
  const ThreadDump& t = dump_.threads[trap.thread];
  if (t.frames.empty()) {
    return fail("faulting thread has no frames");
  }
  const Frame& f = t.frames.back();
  if (f.pc() != trap.pc) {
    return fail("faulting frame PC disagrees with trap PC");
  }
  if (trap.pc.func >= module_.functions().size()) {
    return fail("trap PC outside the program");
  }
  const Function& fn = module_.function(trap.pc.func);
  if (trap.pc.block >= fn.blocks.size() ||
      trap.pc.index >= fn.blocks[trap.pc.block].instructions.size()) {
    return fail("trap PC outside the program");
  }
  const Instruction& inst = fn.blocks[trap.pc.block].instructions[trap.pc.index];
  auto reg = [&f](RegId r) { return f.regs[r]; };

  switch (trap.kind) {
    case TrapKind::kAssertFailure:
      if (inst.op != Opcode::kAssert) {
        return fail("assert trap at non-assert instruction");
      }
      if (reg(inst.rc) != 0) {
        return fail("assert trap but condition register is non-zero");
      }
      return true;
    case TrapKind::kDivByZero: {
      if (inst.op != Opcode::kDivS && inst.op != Opcode::kRemS) {
        return fail("div trap at non-division instruction");
      }
      int64_t b = reg(inst.rb);
      if (b == 0 || (reg(inst.ra) == std::numeric_limits<int64_t>::min() && b == -1)) {
        return true;
      }
      return fail("div trap but divisor does not trap");
    }
    case TrapKind::kUseAfterFree:
    case TrapKind::kMemoryFault: {
      if (options_.treat_as_minidump) {
        return true;  // cannot validate without heap metadata
      }
      uint64_t addr = trap.address;
      if (!IsWordAligned(addr)) {
        return true;
      }
      if (trap.kind == TrapKind::kUseAfterFree) {
        for (const Allocation& a : dump_.heap_allocations) {
          if (addr >= a.base && addr < a.base + a.size_words * kWordSize) {
            if (a.state == AllocState::kFreed) {
              return true;
            }
            return fail("UAF trap but covering allocation is live");
          }
        }
        return fail("UAF trap but no covering allocation");
      }
      if (!dump_.memory.IsMappedWord(addr)) {
        return true;
      }
      if (IsHeapAddress(addr)) {
        bool covered = false;
        for (const Allocation& a : dump_.heap_allocations) {
          if (addr >= a.base && addr < a.base + a.size_words * kWordSize &&
              a.state == AllocState::kAllocated) {
            covered = true;
          }
        }
        if (!covered) {
          return true;  // unallocated heap: genuine fault
        }
      }
      // Mapped and allocated: only invalid-thread joins remain plausible.
      if (inst.op == Opcode::kJoin) {
        return true;
      }
      return fail("memory fault at mapped, allocated address");
    }
    case TrapKind::kDoubleFree: {
      if (options_.treat_as_minidump) {
        return true;  // no heap metadata to validate against
      }
      for (const Allocation& a : dump_.heap_allocations) {
        if (a.base == trap.address) {
          if (a.state == AllocState::kFreed) {
            return true;
          }
          return fail("double-free trap but allocation is live");
        }
      }
      return fail("double-free trap on unknown allocation");
    }
    case TrapKind::kInvalidFree:
      return true;
    case TrapKind::kUnlockNotOwned: {
      if (options_.treat_as_minidump) {
        return true;
      }
      auto owner = dump_.memory.ReadWord(trap.address);
      if (owner.ok() && owner.value() == static_cast<int64_t>(trap.thread) + 1) {
        return fail("unlock trap but thread does own the mutex");
      }
      return true;
    }
    default:
      return true;
  }
}

bool ResEngine::LbrAllowsEdge(const Hypothesis& h, uint32_t tid,
                              const Pc& branch_source, const Pc& branch_dest) const {
  if (!options_.use_lbr) {
    return true;
  }
  size_t rem = h.lbr_remaining[tid];
  if (rem == 0) {
    return true;  // ring rotated past this point: no information
  }
  const BranchRecord& rec = dump_.threads[tid].lbr[rem - 1];
  return rec.source == branch_source && rec.dest == branch_dest;
}

bool ResEngine::CommitFresh(Hypothesis* h, std::vector<const Expr*> fresh,
                            TaskCtx* tctx) {
  for (const Expr* c : fresh) {
    if (c->is_const()) {
      if (c->value == 0) {
        ++tctx->stats.pruned_unsat;
        return false;
      }
      continue;  // trivially true
    }
    if (!h->constraint_set.insert(c)) {
      // Already asserted on this hypothesis (interning makes structural
      // duplicates pointer-equal); re-checking a conjunct is a no-op.
      ++tctx->stats.duplicate_constraints;
      continue;
    }
    h->constraints.push_back(c);
  }
  return true;
}

// The solver half of the old CheckAndCommit, as a standalone pipeline lane:
// forks the parent's post-gate context and checks this node's constraint
// vector. Runs after the parent's gate (the incremental-context chain) but
// independently of — typically concurrently with — deeper exploration.
void ResEngine::GateNode(SpecNode* n) {
  // Unknown verdicts keep the parent's witness, mirroring the sequential
  // engine where the forked hypothesis retained the inherited model.
  n->model = n->parent_raw != nullptr ? n->parent_raw->model : Assignment{};
  // Speculative learned-clause consult: if an already-published core is a
  // subset of this node's constraint set, the set is UNSAT — skip the
  // solver. Advisory only: the verdict the engine *commits* comes from the
  // deterministic commit-time screen (ScreenRefutes), which provably
  // refutes every node this probe can (any core visible here was published
  // before this node's commit), so worker timing never shows through.
  if (options_.solver_portfolio && n->parent_raw != nullptr &&
      (clause_store_.published() > 0 || promoted_watermark_ > 0)) {
    const uint64_t up_to = clause_store_.published();
    const size_t base = n->parent_raw->h.constraints.size();
    std::vector<const Expr*> fresh;
    n->h.constraints.AppendSuffixTo(base, &fresh);
    auto contains = [n](const Expr* e) { return n->h.constraint_set.contains(e); };
    for (const Expr* f : fresh) {
      if (clause_store_.RefutesByMember(f, up_to, contains) ||
          (promoted_ != nullptr &&
           promoted_->RefutesByMember(f, promoted_watermark_, contains))) {
        n->gate_passed = false;
        ++n->gate_stats.pruned_unsat;
        return;
      }
    }
  }
  SolveOutcome outcome;
  if (options_.incremental_solving) {
    n->ctx = n->parent_raw != nullptr ? n->parent_raw->ctx : SolverContext{};
    outcome = solver_.CheckIncremental(&n->ctx, n->h.constraints, &n->gate_sstats);
  } else {
    outcome = solver_.Check(n->h.constraints, &n->gate_sstats);
  }
  if (!outcome.fault.ok()) {
    // Injected solver failure: fail the RUN, not the hypothesis — treating
    // it as UNSAT/unknown would silently change the verdict. The node is
    // left un-passed so nothing downstream consumes the poisoned check.
    RecordFault(std::move(outcome.fault));
    n->gate_passed = false;
    return;
  }
  switch (outcome.result) {
    case SatResult::kUnsat:
      n->gate_passed = false;
      n->gate_core = std::move(outcome.core);
      ++n->gate_stats.pruned_unsat;
      return;
    case SatResult::kSat:
      n->gate_passed = true;
      n->verified = true;
      n->model = std::move(outcome.model);
      return;
    case SatResult::kUnknown:
      n->gate_passed = true;
      n->verified = false;
      ++n->gate_stats.unknown_kept;
      return;
  }
}

int ResEngine::ScreenRefutes(const SpecNode& n, uint64_t* hit_seq) {
  auto contains = [&n](const Expr* e) { return n.h.constraint_set.contains(e); };
  // (i) Cores containing one of this node's fresh constraints. A core made
  // entirely of inherited constraints with seq <= parent_screen_seq would
  // have refuted the parent at its own screen (the parent's set contains
  // every non-fresh element), so only fresh-touching cores and...
  std::vector<const Expr*> fresh;
  n.h.constraints.AppendSuffixTo(n.screen_base, &fresh);
  for (const Expr* f : fresh) {
    if (clause_store_.RefutesByMember(f, n.screen_seq, contains, hit_seq)) {
      return 1;
    }
  }
  // (ii) ...cores published after the parent's screen ran can apply.
  if (n.screen_seq > n.parent_screen_seq &&
      clause_store_.RefutesNewSince(n.parent_screen_seq, n.screen_seq, contains,
                                    hit_seq)) {
    return 1;
  }
  // (iii) The promoted (cross-task) store, bounded by this run's fixed
  // watermark. The fresh-only argument from (i) transfers: every ancestor
  // screened against the same snapshot, so an all-inherited core would have
  // refuted one of them already.
  if (promoted_ != nullptr) {
    for (const Expr* f : fresh) {
      if (promoted_->RefutesByMember(f, promoted_watermark_, contains,
                                     hit_seq)) {
        return 2;
      }
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Unit execution: the S_pre -> S' -> (S' ⊇ S_post) step of §2.4.
// ---------------------------------------------------------------------------

void ResEngine::ExecuteUnit(const Hypothesis& base, const UnitPlan& plan,
                            const std::vector<int64_t>& forced_choices,
                            TaskCtx* tctx, std::vector<Hypothesis>* out) {
  Hypothesis h = base;  // `base` stays pristine: forks re-run from it
  SymThread& st = h.state.threads()[plan.tid];
  assert(!st.frames.empty());
  SymFrame& frame = st.frames.back();
  assert(frame.func == plan.block.func);
  const Function& fn = module_.function(plan.block.func);
  const BasicBlock& bb = fn.blocks[plan.block.block];
  const uint32_t end = plan.end_index;
  assert(end <= bb.instructions.size());

  // Static register write set of the unit (kCall's rd is written at return
  // time, i.e. by a *later* unit, so it is excluded here).
  std::vector<bool> wset(fn.num_regs, false);
  for (uint32_t i = 0; i < end; ++i) {
    const Instruction& inst = bb.instructions[i];
    if (inst.op == Opcode::kCall) {
      continue;
    }
    if (auto w = InstructionWrittenReg(inst)) {
      wset[*w] = true;
    }
  }

  // S_pre registers: havoc the write set (paper §2.4: "replacing every
  // memory location overwritten by B with an unconstrained symbolic value").
  std::vector<const Expr*> post_regs = frame.regs;
  std::vector<const Expr*> pre_regs = post_regs;
  if (plan.check_frame_post) {
    for (RegId r = 0; r < fn.num_regs; ++r) {
      if (wset[r]) {
        pre_regs[r] = FreshVar(tctx, VarTag::kReg, VarOrigin::kHavocReg);
      }
    }
  }
  std::vector<const Expr*> env = pre_regs;

  std::vector<const Expr*> cons = plan.extra_constraints;

  // Unit-local memory cells.
  struct MemCell {
    const Expr* preread_var = nullptr;  // value before the unit (if read)
    const Expr* written = nullptr;      // latest value written by the unit
  };
  std::map<uint64_t, MemCell> cells;

  SuffixUnit unit;
  unit.tid = plan.tid;
  unit.block = plan.block;
  unit.end_index = plan.end_index;
  unit.includes_terminator = plan.includes_terminator;

  struct HeapAccess {
    uint32_t pos;
    uint64_t addr;
  };
  std::vector<HeapAccess> heap_accesses;
  struct HeapEvent {
    uint32_t pos;
    bool is_alloc;
    uint64_t base;
  };
  std::vector<HeapEvent> heap_events;
  std::vector<std::pair<Pc, const Expr*>> outputs;  // forward order
  std::vector<uint64_t> claimed_allocs;             // kAlloc bases unwound here

  size_t forced_cursor = 0;
  bool forked = false;
  bool infeasible = false;

  // Resolves a multi-way choice. Single options resolve in place (and do not
  // consume a forced slot, so parent and child runs stay aligned); genuine
  // forks re-execute the unit once per option with the choice pinned.
  auto choose_single_aware =
      [&](const std::vector<int64_t>& options) -> std::optional<int64_t> {
    if (options.size() == 1) {
      return options[0];
    }
    if (forced_cursor < forced_choices.size()) {
      return forced_choices[forced_cursor++];
    }
    if (options.empty()) {
      infeasible = true;
      return std::nullopt;
    }
    tctx->stats.address_forks += options.size();
    for (int64_t c : options) {
      std::vector<int64_t> child = forced_choices;
      child.push_back(c);
      ExecuteUnit(base, plan, child, tctx, out);
    }
    forked = true;
    return std::nullopt;
  };

  // Concretizes an address expression, forking when several values fit.
  // The enumeration context is biased with *tentative* pre-read equalities
  // (a word read so far and not yet overwritten usually keeps its post-state
  // value); the bias only orders the search — feasibility is still decided
  // by the end-of-unit matching constraints, so it cannot cause unsoundness.
  auto concretize = [&](const Expr* e) -> std::optional<uint64_t> {
    if (e->is_const()) {
      return static_cast<uint64_t>(e->value);
    }
    std::vector<const Expr*> context;
    context.reserve(h.constraints.size() + cons.size());
    h.constraints.AppendTo(&context);
    for (const Expr* c : cons) {
      context.push_back(c);
    }
    for (const auto& [caddr, cell] : cells) {
      if (cell.preread_var != nullptr && cell.written == nullptr) {
        const Expr* post = h.state.ReadMem(pool_, caddr);
        if (post != nullptr) {
          context.push_back(pool_->Eq(cell.preread_var, post));
        }
      }
    }
    bool complete = false;
    std::vector<int64_t> values =
        solver_.EnumerateValues(e, context, options_.address_fork_limit, &complete,
                                &tctx->sstats);
    if (values.empty()) {
      // The bias may have over-constrained; retry with the sound context.
      std::vector<const Expr*> plain;
      plain.reserve(h.constraints.size() + cons.size());
      h.constraints.AppendTo(&plain);
      for (const Expr* c : cons) {
        plain.push_back(c);
      }
      values = solver_.EnumerateValues(e, plain, options_.address_fork_limit,
                                       &complete, &tctx->sstats);
    }
    if (values.empty()) {
      if (!complete) {
        ++tctx->stats.address_unresolved;
      }
      infeasible = true;
      return std::nullopt;
    }
    auto chosen = choose_single_aware(values);
    if (!chosen) {
      return std::nullopt;
    }
    cons.push_back(pool_->Eq(e, pool_->Const(*chosen)));
    return static_cast<uint64_t>(*chosen);
  };

  auto mem_read = [&](uint64_t addr) -> const Expr* {
    MemCell& cell = cells[addr];
    if (cell.written != nullptr) {
      return cell.written;
    }
    if (cell.preread_var == nullptr) {
      cell.preread_var = FreshVar(tctx, VarTag::kMem, VarOrigin::kHavocMem);
    }
    return cell.preread_var;
  };
  auto mem_write = [&](uint64_t addr, const Expr* value) {
    cells[addr].written = value;
  };

  auto record_access = [&](const Pc& pc, uint64_t addr, bool is_write, bool is_sync,
                           const Expr* addr_expr, uint32_t pos) {
    MemAccess a;
    a.pc = pc;
    a.tid = plan.tid;
    a.addr = addr;
    a.is_write = is_write;
    a.is_sync = is_sync;
    if (addr_expr != nullptr && !addr_expr->is_const()) {
      a.address_was_symbolic = true;
      a.symbolic_base = AffineBase(addr_expr);
      std::unordered_set<VarId> vars;
      CollectVars(addr_expr, &vars);
      for (VarId v : vars) {
        if (pool_->var_origin(v) == VarOrigin::kInput) {
          a.address_input_tainted = true;
        }
      }
    }
    unit.accesses.push_back(a);
    if (IsHeapAddress(addr)) {
      heap_accesses.push_back(HeapAccess{pos, addr});
    }
  };

  // --- Forward symbolic execution of the unit. ---
  for (uint32_t i = 0; i < end && !forked && !infeasible; ++i) {
    const Instruction& inst = bb.instructions[i];
    const Pc pc{plan.block.func, plan.block.block, i};
    const bool is_terminator_pos = (i + 1 == bb.instructions.size());
    (void)is_terminator_pos;

    switch (inst.op) {
      case Opcode::kConst:
        env[inst.rd] = pool_->Const(inst.imm);
        break;
      case Opcode::kMov:
        env[inst.rd] = env[inst.ra];
        break;
      case Opcode::kSelect:
        env[inst.rd] = pool_->Select(env[inst.rc], env[inst.ra], env[inst.rb]);
        break;
      case Opcode::kDivS:
      case Opcode::kRemS:
        cons.push_back(pool_->Ne(env[inst.rb], pool_->Const(0)));
        env[inst.rd] =
            pool_->Binary(BinOpFromOpcode(inst.op), env[inst.ra], env[inst.rb]);
        break;
      case Opcode::kLoad: {
        const Expr* addr_expr = pool_->Add(env[inst.ra], pool_->Const(inst.imm));
        auto addr = concretize(addr_expr);
        if (!addr) {
          break;
        }
        if (!IsWordAligned(*addr)) {
          infeasible = true;
          break;
        }
        env[inst.rd] = mem_read(*addr);
        record_access(pc, *addr, /*is_write=*/false, /*is_sync=*/false, addr_expr, i);
        break;
      }
      case Opcode::kStore: {
        const Expr* addr_expr = pool_->Add(env[inst.ra], pool_->Const(inst.imm));
        auto addr = concretize(addr_expr);
        if (!addr) {
          break;
        }
        if (!IsWordAligned(*addr)) {
          infeasible = true;
          break;
        }
        mem_write(*addr, env[inst.rb]);
        record_access(pc, *addr, /*is_write=*/true, /*is_sync=*/false, addr_expr, i);
        break;
      }
      case Opcode::kAlloc: {
        // The heap is a bump allocator: reversing unwinds allocations in
        // strictly decreasing alloc_seq order, so this kAlloc must account
        // for the newest still-live allocation not yet claimed by this unit.
        const SnapAlloc* target = nullptr;
        for (const auto& [base, a] : h.state.heap()) {
          if (a.state == SnapAllocState::kUnallocated) {
            continue;
          }
          if (std::find(claimed_allocs.begin(), claimed_allocs.end(), base) !=
              claimed_allocs.end()) {
            continue;
          }
          if (target == nullptr || a.alloc_seq > target->alloc_seq) {
            target = &a;
          }
        }
        if (target == nullptr) {
          infeasible = true;
          break;
        }
        const Expr* size_expr = env[inst.ra];
        if (size_expr->is_const()) {
          if (SizeWordsFromBytes(static_cast<uint64_t>(size_expr->value)) !=
              target->size_words) {
            infeasible = true;
            break;
          }
        } else {
          // Bound the symbolic size to the words the allocation occupies.
          int64_t hi = static_cast<int64_t>(target->size_words * kWordSize);
          int64_t lo = hi - static_cast<int64_t>(kWordSize) + 1;
          cons.push_back(pool_->Binary(BinOp::kLeS, pool_->Const(lo), size_expr));
          cons.push_back(pool_->Binary(BinOp::kLeS, size_expr, pool_->Const(hi)));
        }
        env[inst.rd] = pool_->Const(static_cast<int64_t>(target->base));
        claimed_allocs.push_back(target->base);
        heap_events.push_back(HeapEvent{i, /*is_alloc=*/true, target->base});
        UnitEvent ev;
        ev.kind = UnitEventKind::kAlloc;
        ev.pc = pc;
        ev.value = target->base;
        unit.events.push_back(ev);
        break;
      }
      case Opcode::kFree: {
        auto base = concretize(env[inst.ra]);
        if (!base) {
          break;
        }
        auto it = h.state.heap().find(*base);
        if (it == h.state.heap().end() ||
            it->second.state != SnapAllocState::kFreed) {
          // The free must be the event that produced the snapshot's freed
          // state; anything else cannot be part of a feasible suffix.
          infeasible = true;
          break;
        }
        heap_events.push_back(HeapEvent{i, /*is_alloc=*/false, *base});
        UnitEvent ev;
        ev.kind = UnitEventKind::kFree;
        ev.pc = pc;
        ev.value = *base;
        unit.events.push_back(ev);
        break;
      }
      case Opcode::kInput: {
        const Expr* v = FreshVar(tctx, VarTag::kIn, VarOrigin::kInput);
        env[inst.rd] = v;
        UnitEvent ev;
        ev.kind = UnitEventKind::kInput;
        ev.pc = pc;
        ev.expr = v;
        unit.events.push_back(ev);
        break;
      }
      case Opcode::kOutput: {
        outputs.emplace_back(pc, env[inst.ra]);
        UnitEvent ev;
        ev.kind = UnitEventKind::kOutput;
        ev.pc = pc;
        ev.expr = env[inst.ra];
        unit.events.push_back(ev);
        break;
      }
      case Opcode::kLock: {
        auto addr = concretize(env[inst.ra]);
        if (!addr) {
          break;
        }
        const Expr* owner = mem_read(*addr);
        cons.push_back(pool_->Eq(owner, pool_->Const(0)));
        mem_write(*addr, pool_->Const(static_cast<int64_t>(plan.tid) + 1));
        record_access(pc, *addr, /*is_write=*/true, /*is_sync=*/true, nullptr, i);
        unit.lock_ops.push_back(LockOp{*addr, true, i});
        break;
      }
      case Opcode::kUnlock: {
        auto addr = concretize(env[inst.ra]);
        if (!addr) {
          break;
        }
        const Expr* owner = mem_read(*addr);
        cons.push_back(pool_->Eq(owner, pool_->Const(static_cast<int64_t>(plan.tid) + 1)));
        mem_write(*addr, pool_->Const(0));
        record_access(pc, *addr, /*is_write=*/true, /*is_sync=*/true, nullptr, i);
        unit.lock_ops.push_back(LockOp{*addr, false, i});
        break;
      }
      case Opcode::kAtomicRmwAdd: {
        auto addr = concretize(env[inst.ra]);
        if (!addr) {
          break;
        }
        const Expr* old = mem_read(*addr);
        mem_write(*addr, pool_->Add(old, env[inst.rb]));
        env[inst.rd] = old;
        record_access(pc, *addr, /*is_write=*/true, /*is_sync=*/true, nullptr, i);
        break;
      }
      case Opcode::kSpawn: {
        // Link the spawn to a thread whose snapshot still sits at birth.
        const Function& callee = module_.function(inst.callee);
        std::vector<int64_t> candidates;
        for (const SymThread& u : h.state.threads()) {
          if (u.id == plan.tid || u.spawn_linked || u.opaque ||
              u.frames.size() != 1) {
            continue;
          }
          const SymFrame& uf = u.frames.back();
          if (uf.func == callee.id && uf.block == 0 && uf.index == 0) {
            candidates.push_back(static_cast<int64_t>(u.id));
          }
        }
        auto chosen = choose_single_aware(candidates);
        if (!chosen) {
          break;
        }
        SymThread& u = h.state.threads()[static_cast<size_t>(*chosen)];
        SymFrame& uf = u.frames.back();
        cons.push_back(pool_->Eq(uf.regs[0], env[inst.ra]));
        for (size_t r = callee.num_params; r < uf.regs.size(); ++r) {
          cons.push_back(pool_->Eq(uf.regs[r], pool_->Const(0)));
        }
        u.spawn_linked = true;
        u.at_birth = true;
        env[inst.rd] = pool_->Const(*chosen);
        UnitEvent ev;
        ev.kind = UnitEventKind::kSpawn;
        ev.pc = pc;
        ev.value = static_cast<uint64_t>(*chosen);
        unit.events.push_back(ev);
        break;
      }
      case Opcode::kJoin: {
        auto target = concretize(env[inst.ra]);
        if (!target) {
          break;
        }
        if (*target >= h.state.threads().size() ||
            h.state.threads()[*target].dump_state != ThreadState::kExited) {
          // A completed join inside the suffix requires the joined thread
          // to have exited before the suffix (exited threads are opaque).
          infeasible = true;
          break;
        }
        UnitEvent ev;
        ev.kind = UnitEventKind::kJoin;
        ev.pc = pc;
        ev.value = *target;
        unit.events.push_back(ev);
        break;
      }
      case Opcode::kAssert:
        cons.push_back(pool_->Ne(env[inst.rc], pool_->Const(0)));
        break;
      case Opcode::kYield:
      case Opcode::kNop:
        break;

      case Opcode::kBr:
        assert(is_terminator_pos);
        break;
      case Opcode::kCondBr: {
        assert(is_terminator_pos);
        const Expr* cond = env[inst.rc];
        if (plan.branch_cond_edge == 0) {
          cons.push_back(pool_->Ne(cond, pool_->Const(0)));
        } else {
          cons.push_back(pool_->Eq(cond, pool_->Const(0)));
        }
        break;
      }
      case Opcode::kCall: {
        assert(is_terminator_pos);
        for (size_t p = 0; p < inst.args.size(); ++p) {
          cons.push_back(pool_->Eq(env[inst.args[p]], plan.callee_param_post[p]));
        }
        break;
      }
      case Opcode::kRet: {
        assert(is_terminator_pos);
        if (plan.ret_must_equal != nullptr) {
          const Expr* ret =
              inst.ra != kNoReg ? env[inst.ra] : pool_->Const(0);
          cons.push_back(pool_->Eq(ret, plan.ret_must_equal));
        }
        break;
      }
      case Opcode::kHalt:
        // Exited threads are opaque; a unit should never include kHalt.
        infeasible = true;
        break;
      default:
        if (IsBinaryAlu(inst.op)) {
          env[inst.rd] =
              pool_->Binary(BinOpFromOpcode(inst.op), env[inst.ra], env[inst.rb]);
          break;
        }
        infeasible = true;
        break;
    }
  }
  if (forked || infeasible) {
    if (infeasible) {
      ++tctx->stats.pruned_structural;
    }
    return;
  }

  // --- Heap access validation against the unit's alloc/free timeline. ---
  for (const HeapAccess& acc : heap_accesses) {
    const SnapAlloc* a = h.state.FindAlloc(acc.addr);
    if (a == nullptr || a->state == SnapAllocState::kUnallocated) {
      ++tctx->stats.pruned_structural;
      return;  // the word does not exist at this point in time
    }
    bool claimed_here = false;
    uint32_t alloc_pos = 0;
    bool freed_here = false;
    uint32_t free_pos = 0;
    for (const HeapEvent& ev : heap_events) {
      if (ev.base != a->base) {
        continue;
      }
      if (ev.is_alloc) {
        claimed_here = true;
        alloc_pos = ev.pos;
      } else {
        freed_here = true;
        free_pos = ev.pos;
      }
    }
    if (claimed_here && acc.pos < alloc_pos) {
      ++tctx->stats.pruned_structural;
      return;  // access before the allocation existed
    }
    if (freed_here && acc.pos > free_pos) {
      ++tctx->stats.pruned_structural;
      return;  // access to memory this very unit freed
    }
    if (!freed_here && a->state == SnapAllocState::kFreed) {
      ++tctx->stats.pruned_structural;
      return;  // freed before the unit ran
    }
  }

  // --- Memory matching: S' must agree with S_post on every touched word. ---
  const bool minidump = options_.treat_as_minidump;
  for (auto& [addr, cell] : cells) {
    const Expr* post = h.state.ReadMem(pool_, addr);
    if (post == nullptr && !minidump) {
      // Touching a word that never existed would have trapped before the
      // recorded failure — infeasible.
      ++tctx->stats.pruned_structural;
      return;
    }
    if (cell.written != nullptr) {
      if (post != nullptr) {
        cons.push_back(pool_->Eq(cell.written, post));
      }
      const Expr* pre = cell.preread_var != nullptr
                            ? cell.preread_var
                            : FreshVar(tctx, VarTag::kMem, VarOrigin::kHavocMem);
      h.state.WriteMem(addr, pre);
    } else if (cell.preread_var != nullptr) {
      // Read but never written: the pre-value equals the post-value.
      if (post != nullptr) {
        cons.push_back(pool_->Eq(cell.preread_var, post));
      }
      h.state.WriteMem(addr, cell.preread_var);
    }
  }

  // --- Register matching. ---
  if (plan.check_frame_post) {
    for (RegId r = 0; r < fn.num_regs; ++r) {
      if (wset[r]) {
        cons.push_back(pool_->Eq(env[r], post_regs[r]));
      }
    }
    frame.regs = pre_regs;
  }
  frame.block = plan.block.block;
  frame.index = 0;

  // --- Heap metadata rewind. ---
  for (const HeapEvent& ev : heap_events) {
    SnapAlloc& a = h.state.MutableHeap()[ev.base];
    a.state = ev.is_alloc ? SnapAllocState::kUnallocated : SnapAllocState::kAllocated;
  }

  // --- Error-log breadcrumbs (§2.4). ---
  if (options_.use_error_log && !outputs.empty()) {
    const std::vector<ErrorLogEntry>& tlog = thread_logs_[plan.tid];
    size_t rem = h.errlog_remaining[plan.tid];
    size_t k = outputs.size();
    size_t matched = std::min(rem, k);
    if (k > rem && !log_was_full_) {
      // The complete log is missing outputs this unit would have produced.
      ++tctx->stats.pruned_errlog;
      return;
    }
    for (size_t j = 0; j < matched; ++j) {
      const ErrorLogEntry& entry = tlog[rem - matched + j];
      const auto& [opc, oval] = outputs[k - matched + j];
      if (entry.pc != opc) {
        ++tctx->stats.pruned_errlog;
        return;
      }
      cons.push_back(pool_->Eq(oval, pool_->Const(entry.value)));
    }
    h.errlog_remaining[plan.tid] = rem - matched;
  }

  // --- LBR breadcrumb consumption. ---
  if (plan.consumes_lbr && options_.use_lbr && h.lbr_remaining[plan.tid] > 0) {
    --h.lbr_remaining[plan.tid];
  }

  h.AppendUnit(std::move(unit));

  // Fold the new unit into the hypothesis's detector context: O(|unit|) at
  // append time buys Finalize-time detection that never re-walks the chain.
  if (options_.incremental_root_causes && options_.stop_at_root_cause) {
    h.rc_ctx.AppendUnit(rc_setup_, module_, dump_, h.units_backward);
    ++tctx->stats.detector_units_scanned;
  }

  // Commit the unit's constraints (dedup + literal-false pruning). The
  // solver gate itself runs later, as the child SpecNode's gate task.
  if (!CommitFresh(&h, std::move(cons), tctx)) {
    return;
  }
  out->push_back(std::move(h));
}

// ---------------------------------------------------------------------------
// Backward-step generators.
// ---------------------------------------------------------------------------

std::vector<ResEngine::Hypothesis> ResEngine::TryReversePartial(const Hypothesis& h,
                                                                uint32_t tid,
                                                                TaskCtx* tctx) {
  const SymThread& st = h.state.threads()[tid];
  const SymFrame& top = st.frames.back();
  std::vector<Hypothesis> out;
  UnitPlan plan;
  plan.tid = tid;
  plan.block = BlockRef{top.func, top.block};
  plan.end_index = top.index;
  plan.includes_terminator = false;
  plan.check_frame_post = true;
  plan.consumes_lbr = false;
  ExecuteUnit(h, plan, {}, tctx, &out);
  for (Hypothesis& h2 : out) {
    h2.state.threads()[tid].partial_done = true;
  }
  return out;
}

std::vector<ResEngine::Hypothesis> ResEngine::TryReverseLocal(const Hypothesis& h,
                                                              uint32_t tid,
                                                              const PredEdge& edge,
                                                              TaskCtx* tctx) {
  const SymThread& st = h.state.threads()[tid];
  const SymFrame& top = st.frames.back();
  const Function& fn = module_.function(edge.pred.func);
  const BasicBlock& pred_bb = fn.blocks[edge.pred.block];
  const Pc source{edge.pred.func, edge.pred.block,
                  static_cast<uint32_t>(pred_bb.instructions.size() - 1)};
  const Pc dest{top.func, top.block, 0};
  if (!LbrAllowsEdge(h, tid, source, dest)) {
    ++tctx->stats.pruned_lbr;
    return {};
  }
  std::vector<Hypothesis> out;
  UnitPlan plan;
  plan.tid = tid;
  plan.block = edge.pred;
  plan.end_index = static_cast<uint32_t>(pred_bb.instructions.size());
  plan.includes_terminator = true;
  plan.check_frame_post = true;
  plan.branch_cond_edge = edge.cond_edge;
  plan.consumes_lbr = true;
  ExecuteUnit(h, plan, {}, tctx, &out);
  return out;
}

std::vector<ResEngine::Hypothesis> ResEngine::TryReverseCallEntry(
    const Hypothesis& h, uint32_t tid, const PredEdge& edge, TaskCtx* tctx) {
  const SymThread& st = h.state.threads()[tid];
  if (st.frames.size() < 2) {
    return {};
  }
  const SymFrame& top = st.frames.back();
  const SymFrame& below = st.frames[st.frames.size() - 2];
  const Function& caller_fn = module_.function(edge.pred.func);
  const BasicBlock& site_bb = caller_fn.blocks[edge.pred.block];
  const Instruction& call = site_bb.terminator();
  // The frame below must be suspended at this call's continuation.
  if (below.func != edge.pred.func || below.block != call.target0 ||
      below.index != 0 || top.caller_result_reg != call.rd) {
    ++tctx->stats.pruned_structural;
    return {};
  }
  const Pc source{edge.pred.func, edge.pred.block,
                  static_cast<uint32_t>(site_bb.instructions.size() - 1)};
  const Pc dest{top.func, 0, 0};
  if (!LbrAllowsEdge(h, tid, source, dest)) {
    ++tctx->stats.pruned_lbr;
    return {};
  }

  Hypothesis h2 = h;
  SymThread& st2 = h2.state.threads()[tid];
  const Function& callee_fn = module_.function(top.func);

  UnitPlan plan;
  plan.tid = tid;
  plan.block = edge.pred;
  plan.end_index = static_cast<uint32_t>(site_bb.instructions.size());
  plan.includes_terminator = true;
  plan.check_frame_post = true;
  plan.consumes_lbr = true;
  // Callee registers at snapshot time must be the function's initial state:
  // parameters (matched against the call's arguments) and zeroed locals.
  const SymFrame& callee_frame = st2.frames.back();
  for (uint16_t p = 0; p < callee_fn.num_params; ++p) {
    plan.callee_param_post.push_back(callee_frame.regs[p]);
  }
  for (size_t r = callee_fn.num_params; r < callee_frame.regs.size(); ++r) {
    plan.extra_constraints.push_back(
        pool_->Eq(callee_frame.regs[r], pool_->Const(0)));
  }
  st2.frames.pop_back();

  std::vector<Hypothesis> out;
  ExecuteUnit(h2, plan, {}, tctx, &out);
  return out;
}

std::vector<ResEngine::Hypothesis> ResEngine::TryReverseReturn(const Hypothesis& h,
                                                               uint32_t tid,
                                                               const PredEdge& edge,
                                                               TaskCtx* tctx) {
  const SymThread& st = h.state.threads()[tid];
  const SymFrame& top = st.frames.back();
  const Function& callee_fn = module_.function(edge.pred.func);
  const BasicBlock& ret_bb = callee_fn.blocks[edge.pred.block];
  const Function& caller_fn = module_.function(edge.call_site.func);
  const Instruction& call = caller_fn.blocks[edge.call_site.block].terminator();

  const Pc source{edge.pred.func, edge.pred.block,
                  static_cast<uint32_t>(ret_bb.instructions.size() - 1)};
  const Pc dest{top.func, top.block, 0};
  if (!LbrAllowsEdge(h, tid, source, dest)) {
    ++tctx->stats.pruned_lbr;
    return {};
  }

  Hypothesis h2 = h;
  SymThread& st2 = h2.state.threads()[tid];
  SymFrame& caller = st2.frames.back();

  UnitPlan plan;
  plan.tid = tid;
  plan.block = edge.pred;
  plan.end_index = static_cast<uint32_t>(ret_bb.instructions.size());
  plan.includes_terminator = true;
  plan.check_frame_post = false;  // the popped frame has no post-state
  plan.consumes_lbr = true;
  if (call.rd != kNoReg) {
    plan.ret_must_equal = caller.regs[call.rd];
    // Before the return, the caller's result register held arbitrary data.
    caller.regs[call.rd] = FreshVar(tctx, VarTag::kReg, VarOrigin::kHavocReg);
  }

  SymFrame callee;
  callee.func = edge.pred.func;
  callee.block = edge.pred.block;
  callee.index = 0;
  callee.caller_result_reg = call.rd;
  callee.regs.reserve(callee_fn.num_regs);
  for (uint16_t r = 0; r < callee_fn.num_regs; ++r) {
    callee.regs.push_back(FreshVar(tctx, VarTag::kReg, VarOrigin::kHavocReg));
  }
  st2.frames.push_back(std::move(callee));

  std::vector<Hypothesis> out;
  ExecuteUnit(h2, plan, {}, tctx, &out);
  return out;
}

std::vector<ResEngine::Hypothesis> ResEngine::TryMarkBirth(const Hypothesis& h,
                                                           uint32_t tid,
                                                           const PredEdge* spawn_edge,
                                                           TaskCtx* tctx) {
  const SymThread& st = h.state.threads()[tid];
  const SymFrame& top = st.frames.back();
  const Function& fn = module_.function(top.func);

  Hypothesis h2 = h;
  h2.state.threads()[tid].at_birth = true;
  std::vector<const Expr*> cons;
  // At creation, parameters hold the (spawn) argument and everything else
  // is zero. main() has no parameters, so all registers are zero.
  for (size_t r = fn.num_params; r < top.regs.size(); ++r) {
    cons.push_back(pool_->Eq(top.regs[r], pool_->Const(0)));
  }
  if (spawn_edge == nullptr) {
    // main(): thread id must be 0 and LBR must be fully consumed if the ring
    // never wrapped (the program's very first block has no incoming branch).
    if (tid != 0) {
      ++tctx->stats.pruned_structural;
      return {};
    }
  }
  if (!CommitFresh(&h2, std::move(cons), tctx)) {
    return {};
  }
  return {std::move(h2)};
}

// All-at-birth completion: the snapshot must equal the program's initial
// state (globals at their initializers, empty heap). Runs as a gate-lane
// task: it needs the node's post-gate solver context, and its own solver
// check is the final gate of the synthesized full execution.
void ResEngine::CompleteStartNode(SpecNode* n) {
  n->complete_ok = false;
  for (const auto& [base, a] : n->h.state.heap()) {
    if (a.state != SnapAllocState::kUnallocated) {
      return;
    }
  }
  Hypothesis h2 = n->h;
  std::vector<const Expr*> cons;
  for (const GlobalVar& g : module_.globals()) {
    for (uint64_t w = 0; w < g.size_words; ++w) {
      uint64_t addr = g.address + w * kWordSize;
      const Expr* value = h2.state.ReadMem(pool_, addr);
      if (value == nullptr) {
        if (options_.treat_as_minidump) {
          continue;
        }
        return;
      }
      cons.push_back(pool_->Eq(value, pool_->Const(g.init[w])));
    }
  }
  TaskCtx tctx;
  tctx.stats = ResStats{};
  if (!CommitFresh(&h2, std::move(cons), &tctx)) {
    n->complete_stats = tctx.stats;
    return;
  }
  SolverContext cctx = n->ctx;  // fork this node's post-gate context
  SolveOutcome outcome =
      options_.incremental_solving
          ? solver_.CheckIncremental(&cctx, h2.constraints, &tctx.sstats)
          : solver_.Check(h2.constraints, &tctx.sstats);
  switch (outcome.result) {
    case SatResult::kUnsat:
      ++tctx.stats.pruned_unsat;
      break;
    case SatResult::kSat:
      n->complete_ok = true;
      n->complete_verified = true;
      n->complete_model = std::move(outcome.model);
      n->complete_h = std::move(h2);
      break;
    case SatResult::kUnknown:
      n->complete_ok = true;
      n->complete_verified = false;
      n->complete_model = n->model;  // inherited witness, as in GateNode
      ++tctx.stats.unknown_kept;
      n->complete_h = std::move(h2);
      break;
  }
  n->complete_stats = tctx.stats;
  n->complete_sstats = tctx.sstats;
}

bool ResEngine::AllThreadsAtBirth(const Hypothesis& h) const {
  for (const SymThread& t : h.state.threads()) {
    if (!t.at_birth) {
      return false;
    }
  }
  return true;
}

std::vector<ResEngine::Hypothesis> ResEngine::Expand(const Hypothesis& h,
                                                     TaskCtx* tctx) {
  std::vector<Hypothesis> out;
  // Thread order heuristic: the faulting thread's history first.
  std::vector<uint32_t> order;
  order.push_back(dump_.trap.thread);
  for (uint32_t t = 0; t < h.state.threads().size(); ++t) {
    if (t != dump_.trap.thread) {
      order.push_back(t);
    }
  }
  for (uint32_t tid : order) {
    const SymThread& st = h.state.threads()[tid];
    if (!st.Reversible()) {
      continue;
    }
    if (!st.partial_done) {
      for (Hypothesis& h2 : TryReversePartial(h, tid, tctx)) {
        out.push_back(std::move(h2));
      }
      continue;
    }
    const SymFrame& top = st.frames.back();
    assert(top.index == 0);
    BlockRef here{top.func, top.block};
    bool saw_spawn_edge = false;
    for (const PredEdge& edge : cfg_->Predecessors(here)) {
      switch (edge.kind) {
        case PredKind::kLocalBranch:
          for (Hypothesis& h2 : TryReverseLocal(h, tid, edge, tctx)) {
            out.push_back(std::move(h2));
          }
          break;
        case PredKind::kCallEntry:
          for (Hypothesis& h2 : TryReverseCallEntry(h, tid, edge, tctx)) {
            out.push_back(std::move(h2));
          }
          break;
        case PredKind::kReturn:
          for (Hypothesis& h2 : TryReverseReturn(h, tid, edge, tctx)) {
            out.push_back(std::move(h2));
          }
          break;
        case PredKind::kSpawnEntry:
          saw_spawn_edge = true;
          break;
      }
    }
    // Birth options apply only at a base frame sitting at the entry head.
    if (st.frames.size() == 1 && top.block == 0) {
      if (top.func == module_.entry() && tid == 0) {
        for (Hypothesis& h2 : TryMarkBirth(h, tid, nullptr, tctx)) {
          out.push_back(std::move(h2));
        }
      } else if (saw_spawn_edge) {
        const PredEdge* edge = nullptr;
        for (const PredEdge& e : cfg_->Predecessors(here)) {
          if (e.kind == PredKind::kSpawnEntry) {
            edge = &e;
            break;
          }
        }
        for (Hypothesis& h2 : TryMarkBirth(h, tid, edge, tctx)) {
          out.push_back(std::move(h2));
        }
      }
    }
  }
  return out;
}

RES_FAULT_SITE(kFaultExplore, "engine.lane.explore", StatusCode::kInternal);
RES_FAULT_SITE(kFaultDetect, "engine.lane.detect", StatusCode::kInternal);

void ResEngine::ExploreNode(SpecNode* n) {
  {
    Status fault = faults_.Check(kFaultExplore);
    if (!fault.ok()) {
      // Neutral lane result (no children); the run-level verdict comes from
      // the post-quiescence fault check in Run, never from this node.
      RecordFault(std::move(fault));
      return;
    }
  }
  TaskCtx tctx;
  tctx.ns = n->ns;
  n->explore_out = Expand(n->h, &tctx);
  n->explore_stats = tctx.stats;
  n->explore_sstats = tctx.sstats;
}

void ResEngine::DetectNode(SpecNode* n) {
  {
    Status fault = faults_.Check(kFaultDetect);
    if (!fault.ok()) {
      RecordFault(std::move(fault));
      return;
    }
  }
  if (!options_.incremental_root_causes) {
    // The full-rescan oracle: materialize the suffix and run every detector
    // pass over it.
    n->det_suffix = Finalize(n->h, n->model, n->verified);
    n->det_causes =
        DetectRootCauses(module_, dump_, n->det_suffix, pool_, &n->det_dstats);
    return;
  }
  // Incremental path: detection consumes the context folded along the
  // chain; the suffix is materialized only when a cause actually fired (the
  // committer never reads det_suffix otherwise).
  std::map<uint64_t, uint32_t> owners;
  if (n->h.rc_ctx.conc_candidate) {
    // The lockset scan will run; seed it with exactly the initial lock
    // owners Finalize would publish.
    std::set<uint64_t> mutexes(n->h.rc_ctx.lock_mutexes.begin(),
                               n->h.rc_ctx.lock_mutexes.end());
    mutexes.insert(rc_setup_.blocked_mutexes.begin(),
                   rc_setup_.blocked_mutexes.end());
    owners = InitialLockOwners(n->h, n->model, mutexes);
  }
  n->det_causes = DetectRootCausesIncremental(module_, dump_, rc_setup_,
                                              n->h.rc_ctx,
                                              n->h.units_backward.get(), owners,
                                              &n->det_dstats);
  if (!n->det_causes.empty()) {
    n->det_suffix = Finalize(n->h, n->model, n->verified);
  }
}

std::map<uint64_t, uint32_t> ResEngine::InitialLockOwners(
    const Hypothesis& h, const Assignment& model,
    const std::set<uint64_t>& mutexes) const {
  std::map<uint64_t, uint32_t> owners;
  ExprPool* pool = pool_;
  for (uint64_t m : mutexes) {
    const Expr* value = h.state.ReadMem(pool, m);
    if (value == nullptr) {
      continue;
    }
    int64_t owner = EvalExpr(value, model);
    if (owner > 0 && static_cast<uint64_t>(owner) <= kMaxThreads) {
      owners[m] = static_cast<uint32_t>(owner - 1);
    }
  }
  return owners;
}

SynthesizedSuffix ResEngine::Finalize(const Hypothesis& h, const Assignment& model,
                                      bool verified) const {
  SynthesizedSuffix s;
  // The chain head is the deepest unit, i.e. the first in execution order.
  s.units.reserve(h.depth());
  for (const SuffixChainNode* n = h.units_backward.get(); n != nullptr;
       n = n->prev.get()) {
    s.units.push_back(n->unit);
  }
  s.initial_state = h.state;
  s.model = model;
  s.constraints = h.constraints.Materialize();
  s.verified = verified;
  // Initial lock owners: evaluate every mutex word touched by suffix lock
  // ops (plus blocked-thread targets) at suffix start.
  std::set<uint64_t> mutexes;
  for (const SuffixUnit& u : s.units) {
    for (const LockOp& op : u.lock_ops) {
      mutexes.insert(op.mutex);
    }
  }
  for (const ThreadDump& t : dump_.threads) {
    if (t.state == ThreadState::kBlockedOnLock) {
      mutexes.insert(t.blocked_on);
    }
  }
  s.initial_lock_owners = InitialLockOwners(h, model, mutexes);
  return s;
}

ResResult ResEngine::Run() {
  ResResult result;
  std::string why;
  if (!CheckTrapConsistency(&why)) {
    RES_LOG(kInfo) << "dump inconsistent at trap: " << why;
    result.stop = StopReason::kInconsistentDump;
    result.dump_inconsistent_at_trap = true;
    result.hardware_error_suspected = true;
    result.stats = stats_;
    return result;
  }

  // --- The deterministic task scheduler. ---
  //
  // Every popped hypothesis is a SpecNode with up to three tasks:
  //   explore  — symbolic execution of all backward extensions (no gate);
  //              depends only on the node's own exploration state, so it can
  //              run before the node's solver verdict exists.
  //   gate     — solver verdict over the node's constraint vector, with the
  //              incremental context forked from the parent's post-gate
  //              context (the chain dependency of PR 1's solver design).
  //   detect   — Finalize + root-cause detection (after the gate: needs the
  //              model). For all-at-birth nodes a complete-start task takes
  //              the place of explore/detect.
  //
  // With num_threads == 1 every task runs inline, exactly reproducing the
  // classic sequential engine. With num_threads > 1 tasks run on a worker
  // pool and are *speculated* down the DFS order, but the main thread
  // commits results in the exact single-threaded pop order and replays the
  // exact sequential termination logic, so StopReason / suffix / causes are
  // byte-identical to num_threads=1; speculative work past a termination
  // point is simply discarded (its stats are never merged).
  // Lane pool: the runtime's shared pool when it has one (dump-level and
  // intra-run parallelism compose under one thread budget), a private
  // per-run pool otherwise. Lane tasks never block, so sharing the pool
  // across concurrent engines cannot deadlock; this engine still waits for
  // its own outstanding count to drain before returning.
  std::unique_ptr<ThreadPool> owned_lane_pool;
  ThreadPool* pool = nullptr;
  if (options_.num_threads > 1) {
    ThreadPool* shared =
        options_.runtime != nullptr ? options_.runtime->lane_pool() : nullptr;
    if (shared != nullptr) {
      pool = shared;
    } else {
      owned_lane_pool = std::make_unique<ThreadPool>(options_.num_threads);
      pool = owned_lane_pool.get();
    }
  }
  const size_t workers = pool != nullptr ? pool->size() : 0;
  Sched sched;

  auto root = std::make_shared<SpecNode>();
  root->h = MakeInitialHypothesis();
  root->ns = HashCombine(0x9e5u, 1);
  root->is_root = true;
  root->all_at_birth = AllThreadsAtBirth(root->h);
  root->gate_state = SpecNode::St::kDone;  // the base case needs no gate
  root->gate_passed = true;
  root->verified = true;

  std::vector<std::shared_ptr<SpecNode>> stack;
  stack.push_back(root);

  // Builds SpecNode children from a completed explore task, assigning each
  // the deterministic namespace derived from (parent namespace, index).
  auto build_children = [this](const std::shared_ptr<SpecNode>& n) {
    n->children.reserve(n->explore_out.size());
    for (size_t i = 0; i < n->explore_out.size(); ++i) {
      auto child = std::make_shared<SpecNode>();
      child->h = std::move(n->explore_out[i]);
      child->ns = HashCombine(n->ns, i + 1);
      child->all_at_birth = AllThreadsAtBirth(child->h);
      child->parent = n;
      child->parent_raw = n.get();
      n->children.push_back(std::move(child));
    }
    n->explore_out.clear();
    n->children_built = true;
  };

  enum class Task : uint8_t { kGate, kExplore, kDetect, kComplete };
  auto task_state = [](SpecNode* n, Task t) -> SpecNode::St& {
    switch (t) {
      case Task::kGate: return n->gate_state;
      case Task::kExplore: return n->explore_state;
      case Task::kDetect: return n->detect_state;
      default: return n->complete_state;
    }
  };
  sched.debug = std::getenv("RES_SCHED_DEBUG") != nullptr;
  // Returns the task's execution time in ms (0 unless debugging).
  auto run_task_body = [this, &sched](SpecNode* n, Task t) -> double {
    std::chrono::steady_clock::time_point tt0;
    if (sched.debug) {
      tt0 = std::chrono::steady_clock::now();
    }
    switch (t) {
      case Task::kGate: GateNode(n); break;
      case Task::kExplore: ExploreNode(n); break;
      case Task::kDetect: DetectNode(n); break;
      case Task::kComplete: CompleteStartNode(n); break;
    }
    if (!sched.debug) {
      return 0;
    }
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - tt0)
        .count();
  };
  const bool detecting = options_.stop_at_root_cause;
  // Eligibility predicates (pure functions of node-creation state).
  auto wants_explore = [this](const SpecNode* n) {
    return !n->all_at_birth && n->h.depth() < options_.max_units;
  };

  const size_t max_outstanding = workers * 4 + 4;

  // Launch on the pool. Caller must hold sched.mu and have checked kIdle.
  // Declared as std::function so task continuations can reference it
  // recursively (a completing worker launches its successors itself —
  // keeping the gate->detect chain off the main thread's wakeup latency).
  std::function<void(const std::shared_ptr<SpecNode>&, Task)> launch_locked;
  // Launches every now-runnable idle task of `n` (no recursion). Holding
  // sched.mu. Safe to call from main or from a completing worker.
  auto schedule_node_locked = [&](const std::shared_ptr<SpecNode>& n) {
    if (sched.stopping || n->abandoned ||
        sched.outstanding >= max_outstanding) {
      return;
    }
    if (n->gate_state == SpecNode::St::kDone && !n->gate_passed) {
      return;  // pruned: this subtree will be discarded, don't feed it
    }
    // Launch the gate once the parent's verdict exists (and only for
    // survivors — a failed parent's subtree is doomed, don't gate it).
    // parent_raw is only dereferenced while the gate is idle, when the
    // parent shared_ptr is still held and the pointee alive.
    if (n->gate_state == SpecNode::St::kIdle &&
        (n->parent_raw == nullptr ||
         (n->parent_raw->gate_state == SpecNode::St::kDone &&
          n->parent_raw->gate_passed))) {
      launch_locked(n, Task::kGate);
    }
    if (n->explore_state == SpecNode::St::kIdle && wants_explore(n.get()) &&
        sched.outstanding < max_outstanding) {
      launch_locked(n, Task::kExplore);
    }
    if (n->gate_state == SpecNode::St::kDone) {
      if (n->parent) {
        n->parent.reset();  // ancestor chain may now free progressively
      }
      if (n->gate_passed) {
        if (detecting && n->verified && n->detect_state == SpecNode::St::kIdle &&
            sched.outstanding < max_outstanding) {
          launch_locked(n, Task::kDetect);
        }
        if (n->all_at_birth && n->complete_state == SpecNode::St::kIdle &&
            sched.outstanding < max_outstanding) {
          launch_locked(n, Task::kComplete);
        }
      }
    }
    if (n->explore_state == SpecNode::St::kDone && !n->children_built) {
      build_children(n);
    }
  };
  // Completion continuation: advance this node and its direct children.
  // Deeper descendants advance when their own parents' tasks complete, so
  // the per-completion cost stays O(children) while the lane chains
  // (gate->child gate, explore->child explore) self-propagate at worker
  // speed instead of main-thread wakeup speed.
  auto on_task_done_locked = [&](const std::shared_ptr<SpecNode>& n) {
    if (sched.stopping || n->abandoned) {
      return;
    }
    schedule_node_locked(n);
    if (n->gate_state == SpecNode::St::kDone && !n->gate_passed) {
      return;  // the committer will discard the children unseen
    }
    for (const auto& child : n->children) {
      schedule_node_locked(child);
    }
  };
  launch_locked = [&](const std::shared_ptr<SpecNode>& n, Task t) {
    task_state(n.get(), t) = SpecNode::St::kRunning;
    ++sched.outstanding;
    // The shared_ptr capture keeps the node (and via parent, the gate's
    // context source) alive for the task's duration even if the scheduler
    // discards the tree early.
    pool->Submit([&sched, &on_task_done_locked, n, t, run_task_body, task_state] {
      double exec_ms = run_task_body(n.get(), t);
      {
        std::lock_guard<std::mutex> lock(sched.mu);
        task_state(n.get(), t) = SpecNode::St::kDone;
        --sched.outstanding;
        sched.lane_exec_ms[static_cast<int>(t)] += exec_ms;
        ++sched.lane_runs[static_cast<int>(t)];
        on_task_done_locked(n);
        // Notify while still holding the lock: with a shared (runtime) lane
        // pool there is no pool-join before Run returns, so the moment a
        // waiter can observe outstanding == 0 the Sched may be destroyed —
        // nothing here may touch it after the unlock.
        sched.cv.notify_all();
      }
    });
  };

  // Speculation pump: walks the virtual DFS order (commit stack top first,
  // descending into already-materialized children) and launches every
  // runnable idle task within the lookahead window. Holding sched.mu. This
  // is the recovery path for work the completion continuations skipped
  // (outstanding cap, or subtrees that only became relevant later).
  const size_t max_visits = workers * 4 + 16;
  std::function<void(const std::shared_ptr<SpecNode>&, size_t&)> visit =
      [&](const std::shared_ptr<SpecNode>& n, size_t& visits) {
        if (visits == 0) {
          return;
        }
        --visits;
        if (sched.outstanding >= max_outstanding) {
          return;
        }
        schedule_node_locked(n);
        for (const auto& child : n->children) {
          if (visits == 0 || sched.outstanding >= max_outstanding) {
            return;
          }
          visit(child, visits);
        }
      };
  // The node currently being committed: already popped, but its subtree is
  // exactly where the next work lives (on a linear chain the stack is empty
  // during a commit — without this the pump would speculate nothing).
  std::shared_ptr<SpecNode> committing;
  auto pump_locked = [&] {
    size_t visits = max_visits;
    if (committing != nullptr) {
      visit(committing, visits);
    }
    for (auto it = stack.rbegin(); it != stack.rend() && visits > 0; ++it) {
      if (sched.outstanding >= max_outstanding) {
        break;
      }
      visit(*it, visits);
    }
  };

  // Blocks until `n`'s task `t` has completed. Inline mode runs the body on
  // the calling thread; pool mode pumps speculation while waiting.
  double wait_ms[4] = {0, 0, 0, 0};
  uint64_t pre_done[4] = {0, 0, 0, 0};
  uint64_t waited[4] = {0, 0, 0, 0};
  auto ensure_done = [&](const std::shared_ptr<SpecNode>& n, Task t) {
    // Times the wait only when RES_SCHED_DEBUG prints it.
    struct Timer {
      double* sink;  // nullptr: not timing
      std::chrono::steady_clock::time_point t0;
      ~Timer() {
        if (sink != nullptr) {
          *sink += std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
        }
      }
    } timer{sched.debug ? &wait_ms[static_cast<int>(t)] : nullptr,
            sched.debug ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{}};
    if (pool == nullptr) {
      if (task_state(n.get(), t) == SpecNode::St::kDone) {
        ++pre_done[static_cast<int>(t)];
      } else {
        ++waited[static_cast<int>(t)];
      }
      SpecNode::St& st = task_state(n.get(), t);
      if (st == SpecNode::St::kIdle) {
        st = SpecNode::St::kRunning;
        run_task_body(n.get(), t);
        st = SpecNode::St::kDone;
      }
      if (t == Task::kGate && n->parent) {
        n->parent.reset();
      }
      if (t == Task::kExplore && !n->children_built) {
        build_children(n);
      }
      return;
    }
    std::unique_lock<std::mutex> lock(sched.mu);
    if (task_state(n.get(), t) == SpecNode::St::kDone) {
      ++pre_done[static_cast<int>(t)];
    } else {
      ++waited[static_cast<int>(t)];
    }
    // The pump only walks the stack, so tasks of already-popped nodes (the
    // detect/complete/explore of the node being committed) must be launched
    // here; their dependencies hold by commit-order construction.
    if (task_state(n.get(), t) == SpecNode::St::kIdle) {
      launch_locked(n, t);
    }
    pump_locked();
    while (task_state(n.get(), t) != SpecNode::St::kDone) {
      sched.cv.wait(lock);
      pump_locked();
    }
    if (t == Task::kExplore && !n->children_built) {
      build_children(n);
    }
  };

  // Subtrees discarded while one of their tasks is still running are
  // parked here: the nodes stay alive for the in-flight task, and their
  // parent<->child shared_ptr cycles are broken at shutdown, once the pool
  // is quiescent. Quiescent subtrees (always the case in inline mode) are
  // released immediately instead, matching the sequential engine's
  // free-on-prune memory profile.
  std::vector<std::shared_ptr<SpecNode>> discarded;
  std::function<void(SpecNode*)> release_tree = [&](SpecNode* n) {
    for (const auto& child : n->children) {
      release_tree(child.get());
      child->parent.reset();
    }
    n->children.clear();
  };
  // Marks a subtree off-limits for new launches and reports whether any of
  // its tasks is still running. Caller holds sched.mu (pool mode).
  std::function<bool(SpecNode*)> abandon_tree = [&](SpecNode* n) {
    n->abandoned = true;
    bool running = n->gate_state == SpecNode::St::kRunning ||
                   n->explore_state == SpecNode::St::kRunning ||
                   n->detect_state == SpecNode::St::kRunning ||
                   n->complete_state == SpecNode::St::kRunning;
    for (const auto& child : n->children) {
      running = abandon_tree(child.get()) || running;
    }
    return running;
  };
  // Discards a subtree the commit loop will never consume.
  auto discard_subtree = [&](std::shared_ptr<SpecNode> n) {
    if (pool == nullptr) {
      release_tree(n.get());
      return;
    }
    std::lock_guard<std::mutex> lock(sched.mu);
    if (abandon_tree(n.get())) {
      discarded.push_back(std::move(n));  // a task still references it
    } else {
      release_tree(n.get());
    }
  };
  auto shutdown = [&] {
    if (pool != nullptr) {
      std::unique_lock<std::mutex> lock(sched.mu);
      sched.stopping = true;
      sched.cv.wait(lock, [&] { return sched.outstanding == 0; });
    }
    pool = nullptr;
    owned_lane_pool.reset();  // a shared (runtime) pool is left running
    // The node being committed was already popped off the stack; on an
    // early return (cause found, reached start) its speculatively built
    // subtree still holds parent<->child shared_ptr cycles — break them
    // like every other tree, or the whole subtree leaks.
    if (committing != nullptr) {
      release_tree(committing.get());
      committing.reset();
    }
    for (const auto& n : stack) {
      release_tree(n.get());
    }
    for (const auto& n : discarded) {
      release_tree(n.get());
    }
    discarded.clear();
  };

  // --- The commit loop: byte-for-byte the sequential engine's semantics. ---

  // Root-cause candidate under refinement (see below).
  std::optional<SynthesizedSuffix> candidate;
  std::vector<RootCause> candidate_causes;
  int candidate_strength = 0;
  uint64_t refine_deadline = 0;

  struct BestHyp {
    Hypothesis h;
    Assignment model;
    bool verified = false;
    bool has = false;
  };
  BestHyp best;
  auto consider_best = [&best](const SpecNode& n) {
    bool better = !best.has || n.h.depth() > best.h.depth() ||
                  (n.h.depth() == best.h.depth() && n.verified && !best.verified);
    if (better) {
      best.h = n.h;
      best.model = n.model;
      best.verified = n.verified;
      best.has = true;
    }
  };

  uint64_t committed_pops = 0;
  auto finish = [&](ResResult&& r) {
    shutdown();
    stats_.solver.clauses_evicted = clause_store_.evicted_count();
    if (sched.debug) {
      std::fprintf(stderr,
                   "[sched] exec gate=%.2fms/%llu explore=%.2fms/%llu "
                   "detect=%.2fms/%llu complete=%.2fms/%llu\n",
                   sched.lane_exec_ms[0], (unsigned long long)sched.lane_runs[0],
                   sched.lane_exec_ms[1], (unsigned long long)sched.lane_runs[1],
                   sched.lane_exec_ms[2], (unsigned long long)sched.lane_runs[2],
                   sched.lane_exec_ms[3], (unsigned long long)sched.lane_runs[3]);
      std::fprintf(stderr,
                   "[sched] gate: %.2fms (pre %llu wait %llu) explore: %.2fms "
                   "(pre %llu wait %llu) detect: %.2fms (pre %llu wait %llu) "
                   "complete: %.2fms\n",
                   wait_ms[0], (unsigned long long)pre_done[0],
                   (unsigned long long)waited[0], wait_ms[1],
                   (unsigned long long)pre_done[1], (unsigned long long)waited[1],
                   wait_ms[2], (unsigned long long)pre_done[2],
                   (unsigned long long)waited[2], wait_ms[3]);
    }
    if (faulted_.load(std::memory_order_acquire)) {
      // Post-quiescence override: the pool has drained, so EVERY lane task
      // that was ever started has run its fault check — any armed site on a
      // committed path has fired by now, on every schedule. Discarding the
      // in-progress result (stats included) makes the kTaskFailed output a
      // constant, byte-identical at any thread count.
      std::lock_guard<std::mutex> lock(fault_mu_);
      ResResult failed;
      failed.stop = StopReason::kTaskFailed;
      failed.status = fault_status_;
      return failed;
    }
    stats_.committed_units = committed_pops;
    r.stats = stats_;
    return std::move(r);
  };

  bool budget_hit = false;
  bool deadline_hit = false;
  // RES_CLAUSE_DEBUG=1 dumps every published core to stderr (the clause-
  // sharing analogue of RES_SCHED_DEBUG).
  const bool clause_debug = std::getenv("RES_CLAUSE_DEBUG") != nullptr;
  while (!stack.empty()) {
    // Injected/internal lane failure: stop committing immediately (cheap
    // relaxed poll; the authoritative re-check happens after shutdown in
    // finish, so the verdict itself never depends on when this poll wins).
    if (faulted_.load(std::memory_order_relaxed)) {
      break;
    }
    // Step-deadline watchdog: counts every committed pop — screen-refuted
    // and gate-failed nodes included — so UNSAT-heavy searches that barely
    // advance hypotheses_explored still terminate. Committed pops happen in
    // single-thread DFS order, so the deadline verdict is byte-identical at
    // any thread count (wall clock never enters the decision).
    ++committed_pops;
    if (options_.deadline_units != 0 &&
        committed_pops > options_.deadline_units) {
      deadline_hit = true;
      break;
    }
    std::shared_ptr<SpecNode> n = stack.back();
    committing = n;
    // Deterministic learned-clause screen: refute this hypothesis from the
    // store's committed prefix before (possibly) paying for its gate. The
    // snapshot, the store contents, and therefore the verdict are pure
    // functions of the committed search prefix — identical at every thread
    // count. A screen-refuted node behaves exactly like a gate-failed one,
    // except its (possibly still speculating) gate stats are never merged —
    // in inline mode the gate never even runs.
    n->screen_seq = clause_store_.published();
    if (options_.solver_portfolio && !n->is_root &&
        (n->screen_seq > 0 || promoted_watermark_ > 0)) {
      uint64_t hit_seq = 0;
      int refuted = ScreenRefutes(*n, &hit_seq);
      if (refuted != 0) {
        if (refuted == 1) {
          ++stats_.solver.clause_hits;
          clause_store_.RecordHit(hit_seq);  // eviction order follows use
        } else {
          ++stats_.solver.promoted_clause_hits;
          promoted_->RecordHit(hit_seq);
        }
        ++stats_.pruned_unsat;
        stack.pop_back();
        discard_subtree(std::move(n));
        continue;
      }
    }
    ensure_done(n, Task::kGate);
    if (!n->gate_passed) {
      // The sequential engine pruned this child inside its parent's Expand;
      // it never reached the frontier, so it consumes no budget.
      MergeStats(n->gate_stats, n->gate_sstats);
      if (options_.solver_portfolio && !n->gate_core.empty()) {
        if (clause_debug) {
          std::fprintf(stderr, "[core] size=%zu:\n", n->gate_core.size());
          for (const Expr* e : n->gate_core) {
            std::fprintf(stderr, "  %s\n", ExprToString(*pool_, e).c_str());
          }
        }
        if (clause_store_.Publish(std::move(n->gate_core))) {
          ++stats_.solver.clauses_learned;
        }
      }
      stack.pop_back();
      discard_subtree(std::move(n));
      continue;
    }
    if (stats_.hypotheses_explored >= options_.max_hypotheses) {
      budget_hit = true;
      break;
    }
    stack.pop_back();
    MergeStats(n->gate_stats, n->gate_sstats);
    ++stats_.hypotheses_explored;
    if (!n->is_root) {
      ++stats_.expansions;
    }
    stats_.max_depth = std::max(stats_.max_depth, n->h.depth());
    if (n->verified) {
      stats_.max_sat_depth = std::max(stats_.max_sat_depth, n->h.depth());
    }
    consider_best(*n);

    if (n->verified && detecting) {
      ensure_done(n, Task::kDetect);
      stats_.detector_units_scanned += n->det_dstats.units_scanned;
      stats_.detector_rescans_avoided += n->det_dstats.rescans_avoided;
      if (!n->det_causes.empty()) {
        int strength = CauseStrength(n->det_causes.front());
        if (!candidate.has_value() || strength > candidate_strength) {
          candidate = std::move(n->det_suffix);
          candidate_causes = std::move(n->det_causes);
          candidate_strength = strength;
          refine_deadline = stats_.hypotheses_explored + kRefineBudget;
        }
        // A plain race may refine into an interrupted-RMW / stale-read
        // explanation once more of the interleaving is in the suffix; keep
        // searching briefly. Fully specific causes stop immediately.
        if (candidate_strength >= kTerminalStrength) {
          result.stop = StopReason::kRootCauseFound;
          result.suffix = std::move(candidate);
          result.causes = std::move(candidate_causes);
          return finish(std::move(result));
        }
      }
    }
    if (candidate.has_value() && stats_.hypotheses_explored >= refine_deadline) {
      result.stop = StopReason::kRootCauseFound;
      result.suffix = std::move(candidate);
      result.causes = std::move(candidate_causes);
      return finish(std::move(result));
    }

    if (n->all_at_birth) {
      ensure_done(n, Task::kComplete);
      MergeStats(n->complete_stats, n->complete_sstats);
      if (n->complete_ok) {
        result.stop = StopReason::kReachedStart;
        result.suffix =
            Finalize(n->complete_h, n->complete_model, n->complete_verified);
        DetectorStats dstats;
        result.causes =
            DetectRootCauses(module_, dump_, *result.suffix, pool_, &dstats);
        stats_.detector_units_scanned += dstats.units_scanned;
        stats_.detector_rescans_avoided += dstats.rescans_avoided;
        if (result.causes.empty() && candidate.has_value()) {
          // A shallower suffix explained the failure better than the full
          // path (e.g. the racing window); prefer that explanation.
          result.stop = StopReason::kRootCauseFound;
          result.suffix = std::move(candidate);
          result.causes = std::move(candidate_causes);
        }
        return finish(std::move(result));
      }
      continue;
    }

    if (n->h.depth() >= options_.max_units) {
      continue;
    }
    ensure_done(n, Task::kExplore);
    MergeStats(n->explore_stats, n->explore_sstats);
    {
      // Workers mutate the children vector (build_children continuation)
      // under sched.mu; move it out under the same lock.
      std::unique_lock<std::mutex> lock(sched.mu, std::defer_lock);
      if (pool != nullptr) {
        lock.lock();
      }
      for (auto it = n->children.rbegin(); it != n->children.rend(); ++it) {
        // Clause-screen bookkeeping: which suffix of the child's constraint
        // vector is fresh, and which store prefix this node's screen already
        // covered on the child's behalf. Main-thread-only fields (workers
        // never read them), so writing here races with nothing.
        (*it)->screen_base = n->h.constraints.size();
        (*it)->parent_screen_seq = n->screen_seq;
        stack.push_back(std::move(*it));
      }
      n->children.clear();
    }
  }

  if (candidate.has_value()) {
    result.stop = StopReason::kRootCauseFound;
    result.suffix = std::move(candidate);
    result.causes = std::move(candidate_causes);
    return finish(std::move(result));
  }
  result.stop = deadline_hit ? StopReason::kDeadlineExceeded
                : budget_hit ? StopReason::kBudget
                             : StopReason::kFrontierExhausted;
  if (deadline_hit) {
    ++stats_.deadline_cancels;
  }
  if (best.has && best.h.depth() > 0) {
    // A deadline stop keeps its reason even when the best suffix happens to
    // sit at max depth: the triage layer's degraded-retry logic keys off it.
    if (!deadline_hit && best.h.depth() >= options_.max_units) {
      result.stop = StopReason::kMaxDepth;
    }
    result.suffix = Finalize(best.h, best.model, best.verified);
    DetectorStats dstats;
    result.causes =
        DetectRootCauses(module_, dump_, *result.suffix, pool_, &dstats);
    stats_.detector_units_scanned += dstats.units_scanned;
    stats_.detector_rescans_avoided += dstats.rescans_avoided;
  }
  // Hardware verdict: the search space was exhausted and no feasible suffix
  // of the required confidence depth exists — no execution of P can have
  // produced this coredump (paper §3.2). A truncated search (budget or
  // deadline) never claims it: the evidence is incomplete.
  if (!budget_hit && !deadline_hit &&
      stats_.max_sat_depth < options_.hw_confidence_depth) {
    result.hardware_error_suspected = true;
  }
  return finish(std::move(result));
}

}  // namespace res
