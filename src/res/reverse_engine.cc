#include "src/res/reverse_engine.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <utility>

#include "src/res/runtime.h"
#include "src/support/hash.h"
#include "src/support/logging.h"
#include "src/support/persistent.h"
#include "src/support/string_util.h"

namespace res {

namespace {

constexpr size_t kAddressForkLimit = 8;  // symbolic-pointer fan-out
constexpr uint64_t kSolverSeed = 7;
// A feasible suffix of at least this many units must exist for the dump to
// be considered software-explainable; otherwise Run reports a suspected
// hardware error when the frontier exhausts. Depth 1 is trivially
// satisfiable (it merely re-reads dump state), so this requires one genuine
// backward step to survive matching.
constexpr size_t kHwConfidenceDepth = 2;

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
// Solver products (context, model, verified flag) are the node's Gated
// record, produced when Run pops and gates the node; its children share
// that record to fork the parent's context.
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
  // Per-hypothesis detector state, folded one unit at a time alongside the
  // chain (mirrors how SolverContext threads solver state) while the run
  // detects per node (stop_at_root_cause); empty otherwise.
  RootCauseContext rc_ctx;

  void AppendUnit(SuffixUnit unit) {
    units_backward = ExtendSuffixChain(std::move(units_backward), std::move(unit));
  }

  size_t depth() const { return units_backward ? units_backward->depth : 0; }
};

// Per-step context: a deterministic fresh-variable namespace plus a private
// stats sink. A node's namespace derives from its position in the search
// tree (never from global counters), so the variables it mints are a pure
// function of that position — which is also what lets a shared runtime pool
// hand the same variable node to the same position in another run.
struct ResEngine::TaskCtx {
  uint64_t ns = 0;       // deterministic namespace for FreshVar
  uint32_t var_seq = 0;  // per-step variable counter
  // The step's counters, merged at commit (`stats.solver` is the solver's
  // sink).
  ResStats stats;
};

// A gated node's solver products: its post-gate incremental context and
// witness model, which each child forks at its own gate.
struct ResEngine::Gated {
  SolverContext ctx;
  std::shared_ptr<const Assignment> model;  // never null once gated
  bool verified = false;
};

// One entry of the commit loop's DFS stack: an ungated hypothesis, its
// variable namespace, and its parent's solver products (nullptr for the
// root, which needs no gate).
struct ResEngine::StackEntry {
  Hypothesis h;
  uint64_t ns = 0;
  std::shared_ptr<const Gated> parent;
  // Learned-clause screen bookkeeping: the parent's constraint count (h's
  // constraints past it are fresh) and the store prefix the parent's own
  // screen covered.
  size_t screen_base = 0;
  uint64_t parent_screen_seq = 0;
};

// A node Run may report — its root-cause candidate, its reconstructed start
// or its deepest node — with the model and verified flag of its gate.
struct ResEngine::Reported {
  Hypothesis h;
  std::shared_ptr<const Assignment> model;
  bool verified = false;
};

namespace {

SolverOptions MakeSolverOptions(const ResOptions& options) {
  SolverOptions s;
  s.fault_plan = options.fault_plan;
  s.fault_task = options.fault_task;
  return s;
}

}  // namespace

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
      solver_(pool_, kSolverSeed, MakeSolverOptions(options),
              options.runtime != nullptr ? options.runtime->check_cache()
                                         : nullptr,
              options.runtime != nullptr ? options.runtime->NextEpoch() : 0) {
  // Shared-pool watermark for the deterministic expr_reuse_hits counter.
  // 0 for a private pool (nothing predates the run). Taken at construction:
  // serial daemon waves construct each engine after the previous dump
  // committed, making the watermark — and with it the counter —
  // schedule-independent.
  var_watermark_ = pool_->var_count();
  if (facts_ != nullptr && options_.consult_promoted) {
    // Fixed snapshot: every screen in this run sees exactly this prefix, so
    // verdicts stay pure functions of (dump, options, snapshot) whatever
    // other runs promote meanwhile.
    promoted_ = &facts_->promoted_clauses;
    promoted_watermark_ =
        options_.promoted_watermark.value_or(promoted_->published());
  }
  rc_setup_ = MakeRootCauseSetup(module, dump);
  thread_logs_.resize(dump.threads.size());
  for (const ErrorLogEntry& e : dump.error_log) {
    if (e.thread < thread_logs_.size()) {
      thread_logs_[e.thread].push_back(e);
    }
  }
  // A full ring means older entries may have rotated out.
  log_was_full_ = dump.error_log.size() >= kErrorLogCapacity;
  faults_.plan = options_.fault_plan;
  faults_.task = options_.fault_task;
}

void ResEngine::RecordFault(Status status) {
  if (fault_.ok()) {
    fault_ = std::move(status);
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
  // a deterministic property of the variable, not of call timing — see
  // ResStats::expr_reuse_hits.
  if (v->var < var_watermark_) {
    ++tctx->stats.expr_reuse_hits;
  }
  return v;
}

uint64_t ResEngine::solver_fingerprint() const { return solver_.fingerprint(); }

ResEngine::Hypothesis ResEngine::MakeInitialHypothesis() {
  Hypothesis h;
  h.state = SymSnapshot::FromCoredump(module_, dump_, pool_);
  for (size_t t = 0; t < dump_.threads.size(); ++t) {
    SymThread& st = h.state.MutableThread(t);
    st.lbr_remaining = dump_.threads[t].lbr.size();
    st.errlog_remaining = thread_logs_[t].size();
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
      if (!dump_.has_memory) {
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
      if (!dump_.has_memory) {
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
      if (!dump_.has_memory) {
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
  size_t rem = h.state.thread(tid).lbr_remaining;
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

bool ResEngine::GateNode(const StackEntry& n, Gated* g, TaskCtx* tctx,
                         std::vector<const Expr*>* core) {
  if (n.parent == nullptr) {
    // The base case needs no gate; its witness is the empty assignment.
    g->model = std::make_shared<const Assignment>();
    g->verified = true;
    return true;
  }
  g->ctx = n.parent->ctx;
  SolveOutcome outcome = solver_.CheckIncremental(&g->ctx, n.h.constraints,
                                                  &tctx->stats.solver);
  if (!outcome.fault.ok()) {
    // Injected solver failure: fail the RUN, not the hypothesis — treating
    // it as UNSAT/unknown would silently change the verdict. The node is
    // left un-passed so nothing downstream consumes the poisoned check.
    RecordFault(std::move(outcome.fault));
    return false;
  }
  switch (outcome.result) {
    case SatResult::kUnsat:
      *core = std::move(outcome.core);
      ++tctx->stats.pruned_unsat;
      return false;
    case SatResult::kSat:
      g->verified = true;
      g->model = std::move(outcome.model);
      return true;
    case SatResult::kUnknown:
      // Unknown verdicts keep the parent's witness as the node's model.
      g->model = n.parent->model;
      g->verified = false;
      ++tctx->stats.unknown_kept;
      return true;
  }
  return false;
}

int ResEngine::ScreenRefutes(const StackEntry& n, uint64_t screen_seq) {
  auto contains = [&n](const Expr* e) { return n.h.constraint_set.contains(e); };
  // (i) Cores containing one of this node's fresh constraints. A core made
  // entirely of inherited constraints with seq <= parent_screen_seq would
  // have refuted the parent at its own screen (the parent's set contains
  // every non-fresh element), so only fresh-touching cores and...
  std::vector<const Expr*> fresh;
  n.h.constraints.AppendSuffixTo(n.screen_base, &fresh);
  for (const Expr* f : fresh) {
    if (clause_store_.RefutesByMember(f, screen_seq, contains)) {
      return 1;
    }
  }
  // (ii) ...cores published after the parent's screen ran can apply.
  if (screen_seq > n.parent_screen_seq &&
      clause_store_.RefutesNewSince(n.parent_screen_seq, screen_seq,
                                    contains)) {
    return 1;
  }
  // (iii) The promoted (cross-task) store, bounded by this run's fixed
  // watermark. The fresh-only argument from (i) transfers: every ancestor
  // screened against the same snapshot, so an all-inherited core would have
  // refuted one of them already.
  if (promoted_ != nullptr) {
    for (const Expr* f : fresh) {
      if (promoted_->RefutesByMember(f, promoted_watermark_, contains)) {
        return 2;
      }
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Unit execution: the S_pre -> S' -> (S' ⊇ S_post) step of §2.4.
// ---------------------------------------------------------------------------

// The in-progress unit: everything ExecuteUnit's forward run mutates. A
// multi-way choice forks it, and each option continues from its own copy.
struct ResEngine::UnitState {
  struct MemCell {
    const Expr* preread_var = nullptr;  // value before the unit (if read)
    const Expr* written = nullptr;      // latest value written by the unit
  };
  struct HeapAccess {
    uint32_t pos;
    uint64_t addr;
  };
  struct HeapEvent {
    uint32_t pos;
    bool is_alloc;
    uint64_t base;
  };

  explicit UnitState(Hypothesis base) : h(std::move(base)) {}

  Hypothesis h;                        // the copy of `base` being extended
  std::vector<bool> wset;              // the unit's static register write set
  std::vector<const Expr*> pre_regs;   // the frame's registers in S_pre
                                       // (S_post's, write set havocked)
  std::vector<const Expr*> env;        // register values so far
  std::vector<const Expr*> cons;       // matching constraints so far
  std::map<uint64_t, MemCell> cells;   // unit-local memory
  SuffixUnit unit;
  std::vector<HeapAccess> heap_accesses;
  std::vector<HeapEvent> heap_events;
  std::vector<std::pair<Pc, const Expr*>> outputs;  // forward order
  std::vector<uint64_t> claimed_allocs;             // kAlloc bases unwound here
  uint32_t next = 0;              // the instruction to run next
  std::optional<int64_t> pinned;  // a fork's option for instruction `next`
};

void ResEngine::ExecuteUnit(Hypothesis base, const UnitPlan& plan,
                            TaskCtx* tctx, std::vector<Hypothesis>* out) {
  UnitState s(std::move(base));
  const SymThread& st = s.h.state.thread(plan.tid);
  assert(!st.frames.empty());
  const SymFrame& frame = st.frames.back();
  assert(frame.func == plan.block.func);
  const Function& fn = module_.function(plan.block.func);
  const BasicBlock& bb = fn.blocks[plan.block.block];
  assert(plan.end_index <= bb.instructions.size());

  // Static register write set of the unit (kCall's rd is written at return
  // time, i.e. by a *later* unit, so it is excluded here).
  s.wset.assign(fn.num_regs, false);
  for (uint32_t i = 0; i < plan.end_index; ++i) {
    const Instruction& inst = bb.instructions[i];
    if (inst.op == Opcode::kCall) {
      continue;
    }
    if (auto w = InstructionWrittenReg(inst)) {
      s.wset[*w] = true;
    }
  }

  // S_pre registers: havoc the write set (paper §2.4: "replacing every
  // memory location overwritten by B with an unconstrained symbolic value").
  s.pre_regs = frame.regs;
  if (plan.check_frame_post) {
    for (RegId r = 0; r < fn.num_regs; ++r) {
      if (s.wset[r]) {
        s.pre_regs[r] = FreshVar(tctx, VarTag::kReg, VarOrigin::kHavocReg);
      }
    }
  }
  s.env = s.pre_regs;
  s.cons = plan.extra_constraints;
  s.unit.tid = plan.tid;
  s.unit.block = plan.block;
  s.unit.end_index = plan.end_index;
  s.unit.includes_terminator = plan.includes_terminator;
  ContinueUnit(plan, std::move(s), tctx, out);
}

void ResEngine::ContinueUnit(const UnitPlan& plan, UnitState s, TaskCtx* tctx,
                             std::vector<Hypothesis>* out) {
  const Function& fn = module_.function(plan.block.func);
  const BasicBlock& bb = fn.blocks[plan.block.block];
  const uint32_t end = plan.end_index;
  // The parts of `s` the instruction cases below read and write.
  Hypothesis& h = s.h;
  std::vector<const Expr*>& env = s.env;
  std::vector<const Expr*>& cons = s.cons;
  std::map<uint64_t, UnitState::MemCell>& cells = s.cells;
  SuffixUnit& unit = s.unit;

  bool forked = false;
  bool infeasible = false;

  // Resolves a multi-way choice, which every instruction makes before its
  // first write: `s` is still the state at the instruction's start. A
  // single option resolves in place. Otherwise each option continues from
  // its own copy of `s` (the last from `s` itself), re-entering this
  // instruction with the option pinned, and this run stops.
  auto choose_single_aware =
      [&](const std::vector<int64_t>& options) -> std::optional<int64_t> {
    if (options.size() == 1) {
      return options[0];
    }
    if (options.empty()) {
      infeasible = true;
      return std::nullopt;
    }
    tctx->stats.address_forks += options.size();
    for (size_t k = 0; k + 1 < options.size(); ++k) {
      UnitState fork = s;
      fork.pinned = options[k];
      ContinueUnit(plan, std::move(fork), tctx, out);
    }
    s.pinned = options.back();
    ContinueUnit(plan, std::move(s), tctx, out);
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
    if (s.pinned) {
      // A fork re-entering this instruction: the option was enumerated
      // before the fork, from this same state.
      const int64_t value = *std::exchange(s.pinned, std::nullopt);
      cons.push_back(pool_->Eq(e, pool_->Const(value)));
      return static_cast<uint64_t>(value);
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
    Status fault;
    std::vector<int64_t> values =
        solver_.EnumerateValues(e, context, kAddressForkLimit, &complete,
                                &tctx->stats.solver, &fault);
    if (values.empty() && fault.ok()) {
      // The bias may have over-constrained; retry with the sound context.
      std::vector<const Expr*> plain;
      plain.reserve(h.constraints.size() + cons.size());
      h.constraints.AppendTo(&plain);
      for (const Expr* c : cons) {
        plain.push_back(c);
      }
      values = solver_.EnumerateValues(e, plain, kAddressForkLimit,
                                       &complete, &tctx->stats.solver, &fault);
    }
    if (!fault.ok()) {
      // Injected solver failure: fail the run, as GateNode does — reading it
      // as "no address fits" would silently prune the hypothesis.
      RecordFault(std::move(fault));
      infeasible = true;
      return std::nullopt;
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
    UnitState::MemCell& cell = cells[addr];
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
      s.heap_accesses.push_back({pos, addr});
    }
  };

  // --- Forward symbolic execution of the unit. ---
  for (; s.next < end && !forked && !infeasible; ++s.next) {
    const uint32_t i = s.next;
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
          if (std::find(s.claimed_allocs.begin(), s.claimed_allocs.end(),
                        base) != s.claimed_allocs.end()) {
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
        s.claimed_allocs.push_back(target->base);
        s.heap_events.push_back({i, /*is_alloc=*/true, target->base});
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
        s.heap_events.push_back({i, /*is_alloc=*/false, *base});
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
        s.outputs.emplace_back(pc, env[inst.ra]);
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
        for (size_t t = 0; t < h.state.thread_count(); ++t) {
          const SymThread& u = h.state.thread(t);
          if (u.id == plan.tid || u.spawn_linked || u.opaque ||
              u.frames.size() != 1) {
            continue;
          }
          const SymFrame& uf = u.frames.back();
          if (uf.func == callee.id && uf.block == 0 && uf.index == 0) {
            candidates.push_back(static_cast<int64_t>(u.id));
          }
        }
        auto chosen = s.pinned ? std::exchange(s.pinned, std::nullopt)
                               : choose_single_aware(candidates);
        if (!chosen) {
          break;
        }
        SymThread& u = h.state.MutableThread(static_cast<size_t>(*chosen));
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
        if (*target >= h.state.thread_count() ||
            h.state.thread(*target).dump_state != ThreadState::kExited) {
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
  for (const UnitState::HeapAccess& acc : s.heap_accesses) {
    const SnapAlloc* a = h.state.FindAlloc(acc.addr);
    if (a == nullptr || a->state == SnapAllocState::kUnallocated) {
      ++tctx->stats.pruned_structural;
      return;  // the word does not exist at this point in time
    }
    bool claimed_here = false;
    uint32_t alloc_pos = 0;
    bool freed_here = false;
    uint32_t free_pos = 0;
    for (const UnitState::HeapEvent& ev : s.heap_events) {
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
  const bool minidump = !dump_.has_memory;
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

  // --- Register matching (the frame still holds S_post's registers). ---
  SymThread& thread = h.state.MutableThread(plan.tid);
  SymFrame& frame = thread.frames.back();
  if (plan.check_frame_post) {
    for (RegId r = 0; r < fn.num_regs; ++r) {
      if (s.wset[r]) {
        cons.push_back(pool_->Eq(env[r], frame.regs[r]));
      }
    }
    frame.regs = std::move(s.pre_regs);
  }
  frame.block = plan.block.block;
  frame.index = 0;

  // --- Heap metadata rewind. ---
  for (const UnitState::HeapEvent& ev : s.heap_events) {
    SnapAlloc& a = h.state.MutableHeap()[ev.base];
    a.state = ev.is_alloc ? SnapAllocState::kUnallocated : SnapAllocState::kAllocated;
  }

  // --- Error-log breadcrumbs (§2.4). ---
  if (options_.use_error_log && !s.outputs.empty()) {
    const std::vector<ErrorLogEntry>& tlog = thread_logs_[plan.tid];
    size_t rem = thread.errlog_remaining;
    size_t k = s.outputs.size();
    size_t matched = std::min(rem, k);
    if (k > rem && !log_was_full_) {
      // The complete log is missing outputs this unit would have produced.
      ++tctx->stats.pruned_errlog;
      return;
    }
    for (size_t j = 0; j < matched; ++j) {
      const ErrorLogEntry& entry = tlog[rem - matched + j];
      const auto& [opc, oval] = s.outputs[k - matched + j];
      if (entry.pc != opc) {
        ++tctx->stats.pruned_errlog;
        return;
      }
      cons.push_back(pool_->Eq(oval, pool_->Const(entry.value)));
    }
    thread.errlog_remaining = rem - matched;
  }

  // --- LBR breadcrumb consumption. ---
  if (plan.consumes_lbr && options_.use_lbr && thread.lbr_remaining > 0) {
    --thread.lbr_remaining;
  }

  h.AppendUnit(std::move(unit));

  // Fold the new unit into the hypothesis's detector context: O(|unit|) at
  // append time buys per-node detection that never re-walks the chain.
  if (options_.stop_at_root_cause) {
    h.rc_ctx.AppendUnit(rc_setup_, module_, dump_, h.units_backward);
    ++tctx->stats.detector_units_scanned;
  }

  // Commit the unit's constraints (dedup + literal-false pruning). The
  // solver gate itself runs later, when the commit loop pops the child.
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
  const SymFrame& top = h.state.thread(tid).frames.back();
  std::vector<Hypothesis> out;
  UnitPlan plan;
  plan.tid = tid;
  plan.block = BlockRef{top.func, top.block};
  plan.end_index = top.index;
  plan.includes_terminator = false;
  plan.check_frame_post = true;
  plan.consumes_lbr = false;
  ExecuteUnit(h, plan, tctx, &out);
  for (Hypothesis& h2 : out) {
    h2.state.MutableThread(tid).partial_done = true;
  }
  return out;
}

std::vector<ResEngine::Hypothesis> ResEngine::TryReverseLocal(const Hypothesis& h,
                                                              uint32_t tid,
                                                              const PredEdge& edge,
                                                              TaskCtx* tctx) {
  const SymFrame& top = h.state.thread(tid).frames.back();
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
  ExecuteUnit(h, plan, tctx, &out);
  return out;
}

std::vector<ResEngine::Hypothesis> ResEngine::TryReverseCallEntry(
    const Hypothesis& h, uint32_t tid, const PredEdge& edge, TaskCtx* tctx) {
  const SymThread& st = h.state.thread(tid);
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
  SymThread& st2 = h2.state.MutableThread(tid);
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
  ExecuteUnit(std::move(h2), plan, tctx, &out);
  return out;
}

std::vector<ResEngine::Hypothesis> ResEngine::TryReverseReturn(const Hypothesis& h,
                                                               uint32_t tid,
                                                               const PredEdge& edge,
                                                               TaskCtx* tctx) {
  const SymFrame& top = h.state.thread(tid).frames.back();
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
  SymThread& st2 = h2.state.MutableThread(tid);
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
  ExecuteUnit(std::move(h2), plan, tctx, &out);
  return out;
}

std::vector<ResEngine::Hypothesis> ResEngine::TryMarkBirth(const Hypothesis& h,
                                                           uint32_t tid,
                                                           const PredEdge* spawn_edge,
                                                           TaskCtx* tctx) {
  const SymFrame& top = h.state.thread(tid).frames.back();
  const Function& fn = module_.function(top.func);

  Hypothesis h2 = h;
  h2.state.MutableThread(tid).at_birth = true;
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
// state (globals at their initializers, empty heap). It needs the node's
// post-gate solver context, and its own solver check is the final gate of
// the synthesized full execution.
std::optional<ResEngine::Reported> ResEngine::CompleteStartNode(
    const Hypothesis& h, const Gated& g, TaskCtx* tctx) {
  for (const auto& [base, a] : h.state.heap()) {
    if (a.state != SnapAllocState::kUnallocated) {
      return std::nullopt;
    }
  }
  Hypothesis h2 = h;
  std::vector<const Expr*> cons;
  for (const GlobalVar& gv : module_.globals()) {
    for (uint64_t w = 0; w < gv.size_words; ++w) {
      uint64_t addr = gv.address + w * kWordSize;
      const Expr* value = h2.state.ReadMem(pool_, addr);
      if (value == nullptr) {
        if (!dump_.has_memory) {
          continue;
        }
        return std::nullopt;
      }
      cons.push_back(pool_->Eq(value, pool_->Const(gv.init[w])));
    }
  }
  if (!CommitFresh(&h2, std::move(cons), tctx)) {
    return std::nullopt;
  }
  SolverContext cctx = g.ctx;  // fork this node's post-gate context
  SolveOutcome outcome =
      solver_.CheckIncremental(&cctx, h2.constraints, &tctx->stats.solver);
  if (!outcome.fault.ok()) {
    // As in GateNode: an injected failure fails the run, never reads as an
    // unverified start.
    RecordFault(std::move(outcome.fault));
    return std::nullopt;
  }
  switch (outcome.result) {
    case SatResult::kUnsat:
      ++tctx->stats.pruned_unsat;
      return std::nullopt;
    case SatResult::kSat:
      return Reported{std::move(h2), std::move(outcome.model), true};
    case SatResult::kUnknown:
      ++tctx->stats.unknown_kept;
      return Reported{std::move(h2), g.model, false};  // inherited witness
  }
  return std::nullopt;
}

bool ResEngine::AllThreadsAtBirth(const Hypothesis& h) const {
  for (size_t t = 0; t < h.state.thread_count(); ++t) {
    if (!h.state.thread(t).at_birth) {
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
  for (uint32_t t = 0; t < h.state.thread_count(); ++t) {
    if (t != dump_.trap.thread) {
      order.push_back(t);
    }
  }
  for (uint32_t tid : order) {
    const SymThread& st = h.state.thread(tid);
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

std::vector<RootCause> ResEngine::DetectNode(const Hypothesis& h,
                                             const Gated& g) {
  Status fault = faults_.Check(kFaultDetect);
  if (!fault.ok()) {
    RecordFault(std::move(fault));
    return {};
  }
  return Detect(h, h.rc_ctx, *g.model);
}

std::vector<RootCause> ResEngine::DetectFinal(const Reported& r) {
  // Hypotheses carry a folded context only while the run detects per node,
  // so fold the reported chain here, in append order: from the unit at the
  // crash back to the head.
  std::vector<const SuffixChainPtr*> links;
  for (const SuffixChainPtr* p = &r.h.units_backward; *p != nullptr;
       p = &(*p)->prev) {
    links.push_back(p);
  }
  RootCauseContext ctx;
  for (size_t i = links.size(); i-- > 0;) {
    ctx.AppendUnit(rc_setup_, module_, dump_, *links[i]);
  }
  stats_.detector_units_scanned += links.size();
  return Detect(r.h, ctx, *r.model);
}

std::vector<RootCause> ResEngine::Detect(const Hypothesis& h,
                                         const RootCauseContext& ctx,
                                         const Assignment& model) {
  // The lockset scan runs only once the screen latched. Seed it with the
  // owner, at suffix start, of every lock word the chain touches or a
  // blocked thread waits on.
  std::map<uint64_t, uint32_t> owners;
  if (ctx.conc_candidate) {
    auto seed = [&](uint64_t m) {
      const Expr* value = h.state.ReadMem(pool_, m);
      if (value == nullptr) {
        return;
      }
      int64_t owner = EvalExpr(value, model);
      if (owner > 0 && static_cast<uint64_t>(owner) <= kMaxThreads) {
        owners[m] = static_cast<uint32_t>(owner - 1);
      }
    };
    for (uint64_t m : ctx.lock_mutexes) {
      seed(m);
    }
    for (uint64_t m : rc_setup_.blocked_mutexes) {
      seed(m);
    }
  }
  return DetectRootCausesIncremental(module_, dump_, rc_setup_, ctx,
                                     h.units_backward.get(), owners, &stats_);
}

SynthesizedSuffix ResEngine::Finalize(const Reported& r) const {
  SynthesizedSuffix s;
  // The chain head is the deepest unit, i.e. the first in execution order.
  s.units.reserve(r.h.depth());
  for (const SuffixChainNode* n = r.h.units_backward.get(); n != nullptr;
       n = n->prev.get()) {
    s.units.push_back(n->unit);
  }
  s.initial_state = r.h.state;
  s.model = *r.model;
  s.constraints = r.h.constraints.Materialize();
  s.verified = r.verified;
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

  // --- The commit loop: a depth-first search, one node at a time. ---
  //
  // Each popped node is screened against the learned clauses, gated by the
  // solver (its incremental context forked from the parent's post-gate
  // context), then checked for root causes (verified nodes, when
  // stop_at_root_cause) or for a complete start (all-at-birth nodes), and
  // otherwise expanded. Its children are pushed so the first is popped next.
  std::vector<StackEntry> stack;
  {
    StackEntry root;
    root.h = MakeInitialHypothesis();
    root.ns = HashCombine(0x9e5u, 1);
    stack.push_back(std::move(root));
  }
  const bool detecting = options_.stop_at_root_cause;

  // Root-cause candidate under refinement (see below), with its causes.
  std::optional<Reported> candidate;
  std::vector<RootCause> candidate_causes;
  int candidate_strength = 0;
  uint64_t refine_deadline = 0;
  // The deepest node committed so far (verified preferred at equal depth).
  std::optional<Reported> best;

  uint64_t committed_pops = 0;
  // Every verdict leaves through here; the reported node's suffix is
  // materialized here, once.
  auto finish = [&](StopReason stop, const Reported* reported,
                    std::vector<RootCause> causes) {
    if (!fault_.ok()) {
      // A recorded fault fails the whole run: the in-progress result (stats
      // included) is discarded, so the kTaskFailed output is a constant.
      ResResult failed;
      failed.stop = StopReason::kTaskFailed;
      failed.status = fault_;
      return failed;
    }
    stats_.committed_units = committed_pops;
    result.stop = stop;
    if (reported != nullptr) {
      result.suffix = Finalize(*reported);
    }
    result.causes = std::move(causes);
    result.stats = stats_;
    return std::move(result);
  };
  auto finish_candidate = [&] {
    return finish(StopReason::kRootCauseFound, &*candidate,
                  std::move(candidate_causes));
  };

  bool budget_hit = false;
  bool deadline_hit = false;
  while (!stack.empty()) {
    // Injected/internal failure: stop committing.
    if (!fault_.ok()) {
      break;
    }
    // Step-deadline watchdog: counts every committed pop — screen-refuted
    // and gate-failed nodes included — so UNSAT-heavy searches that barely
    // advance hypotheses_explored still terminate. Wall clock never enters
    // the decision.
    ++committed_pops;
    if (options_.deadline_units != 0 &&
        committed_pops > options_.deadline_units) {
      deadline_hit = true;
      break;
    }
    StackEntry n = std::move(stack.back());
    stack.pop_back();
    // Deterministic learned-clause screen: refute this hypothesis from the
    // store's committed prefix before paying for its gate. The verdict is a
    // pure function of the committed search prefix. A screen-refuted node
    // behaves exactly like a gate-failed one, except no gate runs.
    const uint64_t screen_seq = clause_store_.published();
    if (options_.clause_sharing && n.parent != nullptr &&
        (screen_seq > 0 || promoted_watermark_ > 0)) {
      int refuted = ScreenRefutes(n, screen_seq);
      if (refuted != 0) {
        if (refuted == 1) {
          ++stats_.solver.clause_hits;
        } else {
          ++stats_.solver.promoted_clause_hits;
        }
        ++stats_.pruned_unsat;
        continue;
      }
    }
    Gated g;
    TaskCtx gate;
    std::vector<const Expr*> core;
    if (!GateNode(n, &g, &gate, &core)) {
      // A refuted node never reaches the frontier, so it consumes no
      // budget.
      stats_ += gate.stats;
      if (options_.clause_sharing && !core.empty()) {
        if (clause_store_.Publish(std::move(core))) {
          ++stats_.solver.clauses_learned;
        }
      }
      continue;
    }
    // A passing gate that meets the spent budget stops the run with its
    // stats unmerged.
    if (stats_.hypotheses_explored >= options_.max_hypotheses) {
      budget_hit = true;
      break;
    }
    stats_ += gate.stats;
    ++stats_.hypotheses_explored;
    if (n.parent != nullptr) {
      ++stats_.expansions;
    }
    stats_.max_depth = std::max(stats_.max_depth, n.h.depth());
    if (g.verified) {
      stats_.max_sat_depth = std::max(stats_.max_sat_depth, n.h.depth());
    }
    if (!best.has_value() || n.h.depth() > best->h.depth() ||
        (n.h.depth() == best->h.depth() && g.verified && !best->verified)) {
      best = Reported{n.h, g.model, g.verified};
    }

    if (g.verified && detecting) {
      std::vector<RootCause> causes = DetectNode(n.h, g);
      if (!causes.empty()) {
        int strength = CauseStrength(causes.front());
        if (!candidate.has_value() || strength > candidate_strength) {
          candidate = Reported{n.h, g.model, g.verified};
          candidate_causes = std::move(causes);
          candidate_strength = strength;
          refine_deadline = stats_.hypotheses_explored + kRefineBudget;
        }
        // A plain race may refine into an interrupted-RMW / stale-read
        // explanation once more of the interleaving is in the suffix; keep
        // searching briefly. Fully specific causes stop immediately.
        if (candidate_strength >= kTerminalStrength) {
          return finish_candidate();
        }
      }
    }
    if (candidate.has_value() && stats_.hypotheses_explored >= refine_deadline) {
      return finish_candidate();
    }

    if (AllThreadsAtBirth(n.h)) {
      TaskCtx complete;
      std::optional<Reported> start = CompleteStartNode(n.h, g, &complete);
      stats_ += complete.stats;
      if (start.has_value()) {
        std::vector<RootCause> causes = DetectFinal(*start);
        if (causes.empty() && candidate.has_value()) {
          // A shallower suffix explained the failure better than the full
          // path (e.g. the racing window); prefer that explanation.
          return finish_candidate();
        }
        return finish(StopReason::kReachedStart, &*start, std::move(causes));
      }
      continue;
    }

    if (n.h.depth() >= options_.max_units) {
      continue;
    }
    {
      Status fault = faults_.Check(kFaultExplore);
      if (!fault.ok()) {
        RecordFault(std::move(fault));
        continue;
      }
    }
    TaskCtx explore;
    explore.ns = n.ns;
    std::vector<Hypothesis> children = Expand(n.h, &explore);
    stats_ += explore.stats;
    auto gated = std::make_shared<const Gated>(std::move(g));
    for (size_t i = children.size(); i-- > 0;) {
      stack.push_back(StackEntry{std::move(children[i]), HashCombine(n.ns, i + 1),
                                 gated, n.h.constraints.size(), screen_seq});
    }
  }

  if (candidate.has_value()) {
    return finish_candidate();
  }
  StopReason stop = deadline_hit ? StopReason::kDeadlineExceeded
                    : budget_hit ? StopReason::kBudget
                                 : StopReason::kFrontierExhausted;
  if (deadline_hit) {
    ++stats_.deadline_cancels;
  }
  const Reported* reported = nullptr;
  std::vector<RootCause> causes;
  if (best.has_value() && best->h.depth() > 0) {
    // A deadline stop keeps its reason even when the best suffix happens to
    // sit at max depth: the triage layer's degraded-retry logic keys off it.
    if (!deadline_hit && best->h.depth() >= options_.max_units) {
      stop = StopReason::kMaxDepth;
    }
    reported = &*best;
    causes = DetectFinal(*best);
  }
  // Hardware verdict: the search space was exhausted and no feasible suffix
  // of the required confidence depth exists — no execution of P can have
  // produced this coredump (paper §3.2). A truncated search (budget or
  // deadline) never claims it: the evidence is incomplete.
  if (!budget_hit && !deadline_hit &&
      stats_.max_sat_depth < kHwConfidenceDepth) {
    result.hardware_error_suspected = true;
  }
  return finish(stop, reported, std::move(causes));
}

}  // namespace res
