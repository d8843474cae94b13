#include "src/vm/vm.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "src/support/string_util.h"

namespace res {

Vm::Vm(const Module* module, VmOptions options)
    : module_(module),
      options_(options),
      scheduler_(&default_scheduler_) {}

Status Vm::Reset() {
  memory_ = AddressSpace();
  heap_ = Heap();
  threads_.clear();
  lbr_.clear();
  error_log_ = ErrorLog();
  trap_ = TrapInfo();
  stopped_ = false;
  main_exited_ = false;
  steps_ = 0;
  current_tid_ = 0;
  runnable_stale_ = true;
  turn_length_ = turn_left_ = 0;
  EnsurePredecoded();

  for (const GlobalVar& g : module_->globals()) {
    RES_RETURN_IF_ERROR(memory_.MapRegion(g.address, g.size_words));
    for (uint64_t i = 0; i < g.size_words; ++i) {
      RES_RETURN_IF_ERROR(memory_.WriteWord(g.address + i * kWordSize, g.init[i]));
    }
  }

  if (module_->entry() == kNoFunc) {
    return FailedPrecondition("module has no entry function");
  }
  const Function& entry = module_->function(module_->entry());
  Thread main;
  main.id = 0;
  Frame frame;
  frame.func = entry.id;
  frame.block = 0;
  frame.index = 0;
  frame.regs.assign(entry.num_regs, 0);
  main.frames.push_back(std::move(frame));
  threads_.push_back(std::move(main));
  lbr_.emplace_back();
  EnterBlock(0, entry.id, 0);
  return OkStatus();
}

void Vm::RestoreForReplay(AddressSpace memory, Heap heap, std::vector<Thread> threads) {
  memory_ = std::move(memory);
  heap_ = std::move(heap);
  threads_ = std::move(threads);
  lbr_.assign(threads_.size(), LbrRing());
  trap_ = TrapInfo();
  stopped_ = false;
  main_exited_ = false;
  steps_ = 0;
  current_tid_ = 0;
  runnable_stale_ = true;
  turn_length_ = turn_left_ = 0;
  EnsurePredecoded();
  for (const Thread& t : threads_) {
    if (!t.frames.empty()) {
      EnterBlock(t.id, t.top().func, t.top().block);
    }
  }
}

RunResult Vm::Run() { return RunBounded(options_.max_steps - steps_); }

void Vm::EnsurePredecoded() {
  if (predecoded_ != nullptr) {
    return;
  }
  owned_predecoded_ =
      std::make_unique<PredecodedModule>(PredecodedModule::Build(*module_));
  predecoded_ = owned_predecoded_.get();
}

void Vm::RaiseTrap(TrapKind kind, uint32_t tid, const Pc& pc, uint64_t address,
                   std::string message) {
  trap_.kind = kind;
  trap_.thread = tid;
  trap_.pc = pc;
  trap_.address = address;
  trap_.message = std::move(message);
  stopped_ = true;
}

namespace {

// A heap word is readable and writable while its allocation lives.
bool HeapAdmits(const Heap& heap, uint64_t addr) {
  return !IsHeapAddress(addr) ||
         heap.CheckAccess(addr) == Heap::AccessVerdict::kOk;
}

}  // namespace

inline bool Vm::CheckedRead(uint32_t tid, const Frame& f, uint64_t addr,
                            int64_t* out) {
  const int64_t* word = memory_.FindWord(addr);
  if (word == nullptr || !HeapAdmits(heap_, addr)) [[unlikely]] {
    RaiseMemoryTrap(tid, f, addr, /*is_write=*/false);
    return false;
  }
  *out = *word;
  if (recorder_ != nullptr) {
    recorder_->OnMemoryOp(tid, addr, *out, /*is_write=*/false);
  }
  return true;
}

inline bool Vm::CheckedWrite(uint32_t tid, const Frame& f, uint64_t addr,
                             int64_t value) {
  int64_t* word = memory_.FindWord(addr);
  if (word == nullptr || !HeapAdmits(heap_, addr)) [[unlikely]] {
    RaiseMemoryTrap(tid, f, addr, /*is_write=*/true);
    return false;
  }
  *word = value;
  if (recorder_ != nullptr) {
    recorder_->OnMemoryOp(tid, addr, value, /*is_write=*/true);
  }
  return true;
}

void Vm::RaiseMemoryTrap(uint32_t tid, const Frame& f, uint64_t addr,
                         bool is_write) {
  if (IsHeapAddress(addr)) {
    switch (heap_.CheckAccess(addr)) {
      case Heap::AccessVerdict::kFreed:
        RaiseTrap(TrapKind::kUseAfterFree, tid, f.pc(), addr,
                  is_write ? "write to freed memory" : "read of freed memory");
        return;
      case Heap::AccessVerdict::kUnallocated:
        RaiseTrap(TrapKind::kMemoryFault, tid, f.pc(), addr,
                  is_write ? "write to unallocated heap" : "read of unallocated heap");
        return;
      case Heap::AccessVerdict::kOk:
        break;
    }
  }
  RaiseTrap(TrapKind::kMemoryFault, tid, f.pc(), addr,
            AddressSpace::AccessError(addr, is_write).message());
}

void Vm::RecordBranch(uint32_t tid, const Pc& source, FuncId dfunc, BlockId dblock) {
  BranchRecord rec;
  rec.source = source;
  rec.dest = Pc{dfunc, dblock, 0};
  lbr_[tid].Record(rec);
}

void Vm::EnterBlock(uint32_t tid, FuncId func, BlockId block) {
  if (recorder_ != nullptr) {
    recorder_->OnBlock(tid, BlockRef{func, block});
  }
}

void Vm::WakeLockWaiters(uint64_t mutex_addr) {
  for (Thread& t : threads_) {
    if (t.state == ThreadState::kBlockedOnLock && t.blocked_on == mutex_addr) {
      t.state = ThreadState::kRunnable;
      runnable_stale_ = true;
    }
  }
}

void Vm::WakeJoiners(uint32_t exited_tid) {
  for (Thread& t : threads_) {
    if (t.state == ThreadState::kBlockedOnJoin && t.blocked_on == exited_tid) {
      t.state = ThreadState::kRunnable;
      runnable_stale_ = true;
    }
  }
}

void Vm::ThreadExit(uint32_t tid, int64_t value) {
  Thread& t = threads_[tid];
  t.state = ThreadState::kExited;
  t.exit_value = value;
  runnable_stale_ = true;
  WakeJoiners(tid);
  if (tid == 0) {
    main_exited_ = true;
    stopped_ = true;  // process exits with the main thread
  }
}

// Handler prologue/epilogue of the computed-goto dispatch: RES_OP opens a
// handler for one opcode, an address-taken label. A handler never falls
// through; it leaves by one of
//   RES_NEXT()      the op ran straight through: step to the next op;
//   RES_DISPATCH()  the handler moved `op` itself (a branch, call or return);
//   goto schedule   a trap, or a change of threads or of runnability.
// Dispatching a step takes one from the burst, tells the recorder, and
// returns to `schedule` once the burst is spent.
#define RES_BEGIN_STEP()                 \
  if (left == 0) {                       \
    goto schedule;                       \
  }                                      \
  --left;                                \
  if (recorder != nullptr) {             \
    recorder->OnSchedule(tid);           \
  }
#define RES_OP(name) op_##name:
#define RES_OP_INVALID op_invalid:
#define RES_DISPATCH()                   \
  do {                                   \
    RES_BEGIN_STEP()                     \
    if (op->raw_op >= kOpCount) {        \
      goto op_invalid;                   \
    }                                    \
    goto* kDispatch[op->raw_op];         \
  } while (0)
#define RES_NEXT()                       \
  do {                                   \
    ++op;                                \
    ++f->index;                          \
    RES_DISPATCH();                      \
  } while (0)
// Binary ALU ops: `expr` over the operands as signed (a, b) or unsigned
// (ua, ub) words, wrapping.
#define RES_BINARY_OP(name, expr)                            \
  RES_OP(name) {                                             \
    [[maybe_unused]] const int64_t a = regs[op->ra];         \
    [[maybe_unused]] const int64_t b = regs[op->rb];         \
    [[maybe_unused]] const uint64_t ua = static_cast<uint64_t>(a); \
    [[maybe_unused]] const uint64_t ub = static_cast<uint64_t>(b); \
    regs[op->rd] = static_cast<int64_t>(expr);               \
    RES_NEXT();                                              \
  }

RunResult Vm::RunBounded(uint64_t budget) {
  constexpr size_t kOpCount = static_cast<size_t>(Opcode::kHalt) + 1;
  // One slot per opcode byte, in strict Opcode enum order.
  static const void* const kDispatch[] = {
      &&op_kConst,  &&op_kMov,    &&op_kAdd,    &&op_kSub,    &&op_kMul,
      &&op_kDivS,   &&op_kRemS,   &&op_kAnd,    &&op_kOr,     &&op_kXor,
      &&op_kShl,    &&op_kShrL,   &&op_kShrA,   &&op_kCmpEq,  &&op_kCmpNe,
      &&op_kCmpLtS, &&op_kCmpLeS, &&op_kCmpLtU, &&op_kCmpLeU, &&op_kSelect,
      &&op_kLoad,   &&op_kStore,  &&op_kAlloc,  &&op_kFree,   &&op_kInput,
      &&op_kOutput, &&op_kLock,   &&op_kUnlock, &&op_kAtomicRmwAdd,
      &&op_kSpawn,  &&op_kJoin,   &&op_kAssert, &&op_kYield,  &&op_kNop,
      &&op_kBr,     &&op_kCondBr, &&op_kCall,   &&op_kRet,    &&op_kHalt,
  };
  static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) == kOpCount,
                "dispatch table must cover the full opcode enum");
  const uint64_t room =
      steps_ < options_.max_steps ? options_.max_steps - steps_ : 0;
  const uint64_t end = steps_ + std::min(budget, room);
  const PredecodedModule& pm = *predecoded_;
  Recorder* const recorder = recorder_;
  RunResult result;

  // The running thread, its top frame and the op it executes next. A
  // straight-line op advances `op` and the frame's index in place; the
  // handlers that move control, frames, threads or runnability reload them.
  uint32_t tid = current_tid_;
  Thread* t = nullptr;
  Frame* f = nullptr;
  int64_t* regs = nullptr;
  const DecodedOp* fn_ops = nullptr;      // the first op of f's function
  const uint32_t* block_first = nullptr;  // its blocks' offsets from fn_ops
  const DecodedOp* op = nullptr;
  // A burst runs between two visits to `schedule`: at most `burst` steps
  // of `tid`, of which `left` are still to go.
  uint64_t burst = 0;
  uint64_t left = 0;

  auto enter_frame = [&] {
    f = &t->top();
    regs = f->regs.data();
    const PredecodedFunction& pfn = pm.function(f->func);
    fn_ops = pm.ops() + pfn.first_op;
    block_first = pfn.block_first_op.data();
    op = fn_ops + block_first[f->block] + f->index;
  };

schedule:
  steps_ += burst - left;
  turn_left_ -= burst - left;
  if (stopped_) {
    result.steps = steps_;
    if (trap_.kind != TrapKind::kNone) {
      result.outcome = RunOutcome::kTrapped;
      result.trap = trap_;
    } else {
      result.outcome = RunOutcome::kHalted;
    }
    return result;
  }
  if (steps_ >= end) {
    result.outcome = RunOutcome::kStepLimit;
    result.trap.kind = TrapKind::kStepLimit;
    result.steps = steps_;
    return result;
  }
  if (turn_left_ == 0 || runnable_stale_) {
    if (runnable_stale_) {
      runnable_.clear();
      for (const Thread& th : threads_) {
        if (th.runnable()) {
          runnable_.push_back(th.id);
        }
      }
      runnable_stale_ = false;
    }
    if (runnable_.empty()) {
      turn_length_ = turn_left_ = 0;  // no thread may run on
      bool all_exited = true;
      uint32_t blocked_tid = 0;
      Pc blocked_pc;
      for (const Thread& th : threads_) {
        if (th.state == ThreadState::kBlockedOnLock ||
            th.state == ThreadState::kBlockedOnJoin) {
          all_exited = false;
          blocked_tid = th.id;
          blocked_pc = th.top().pc();
          break;
        }
      }
      result.steps = steps_;
      if (all_exited) {
        result.outcome = RunOutcome::kHalted;
        return result;
      }
      RaiseTrap(TrapKind::kDeadlock, blocked_tid, blocked_pc, 0,
                "all live threads blocked");
      result.outcome = RunOutcome::kTrapped;
      result.trap = trap_;
      return result;
    }
    // The ending turn's steps past its picked one were granted.
    if (turn_length_ - turn_left_ > 1) {
      scheduler_->OnGrantedSteps(turn_length_ - turn_left_ - 1);
    }
    tid = scheduler_->Pick(runnable_, current_tid_);
    if (tid == Scheduler::kDiverged) {
      turn_length_ = turn_left_ = 0;
      result.outcome = RunOutcome::kScheduleDiverged;
      result.steps = steps_;
      return result;
    }
    current_tid_ = tid;
    turn_length_ = turn_left_ = 1 + scheduler_->Grant();
  }
  burst = left = std::min(turn_left_, end - steps_);
  t = &threads_[tid];
  assert(t->runnable());
  enter_frame();
  RES_DISPATCH();

  RES_OP(kConst) {
    regs[op->rd] = op->imm;
    RES_NEXT();
  }
  RES_OP(kMov) {
    regs[op->rd] = regs[op->ra];
    RES_NEXT();
  }
  RES_BINARY_OP(kAdd, ua + ub)
  RES_BINARY_OP(kSub, ua - ub)
  RES_BINARY_OP(kMul, ua * ub)
  RES_BINARY_OP(kAnd, ua & ub)
  RES_BINARY_OP(kOr, ua | ub)
  RES_BINARY_OP(kXor, ua ^ ub)
  RES_BINARY_OP(kShl, ua << (ub & 63))
  RES_BINARY_OP(kShrL, ua >> (ub & 63))
  RES_BINARY_OP(kShrA, a >> (ub & 63))
  RES_BINARY_OP(kCmpEq, a == b)
  RES_BINARY_OP(kCmpNe, a != b)
  RES_BINARY_OP(kCmpLtS, a < b)
  RES_BINARY_OP(kCmpLeS, a <= b)
  RES_BINARY_OP(kCmpLtU, ua < ub)
  RES_BINARY_OP(kCmpLeU, ua <= ub)
  RES_OP(kDivS)
  RES_OP(kRemS) {
    const int64_t a = regs[op->ra];
    const int64_t b = regs[op->rb];
    if (b == 0 || (a == std::numeric_limits<int64_t>::min() && b == -1)) {
      RaiseTrap(TrapKind::kDivByZero, tid, f->pc(), 0,
                b == 0 ? "division by zero" : "signed division overflow");
      goto schedule;
    }
    regs[op->rd] = op->op() == Opcode::kDivS ? a / b : a % b;
    RES_NEXT();
  }
  RES_OP(kSelect) {
    regs[op->rd] = regs[op->rc] != 0 ? regs[op->ra] : regs[op->rb];
    RES_NEXT();
  }
  RES_OP(kLoad) {
    const uint64_t addr =
        static_cast<uint64_t>(regs[op->ra]) + static_cast<uint64_t>(op->imm);
    int64_t value = 0;
    if (!CheckedRead(tid, *f, addr, &value)) {
      goto schedule;
    }
    regs[op->rd] = value;
    RES_NEXT();
  }
  RES_OP(kStore) {
    const uint64_t addr =
        static_cast<uint64_t>(regs[op->ra]) + static_cast<uint64_t>(op->imm);
    if (!CheckedWrite(tid, *f, addr, regs[op->rb])) {
      goto schedule;
    }
    RES_NEXT();
  }
  RES_OP(kAlloc) {
    auto r = heap_.Allocate(static_cast<uint64_t>(regs[op->ra]));
    if (!r.ok()) {
      RaiseTrap(TrapKind::kHeapExhausted, tid, f->pc(), 0, r.status().message());
      goto schedule;
    }
    const Allocation* a = heap_.FindCovering(r.value());
    Status map = memory_.MapRegion(r.value(), a->size_words);
    assert(map.ok());
    (void)map;
    regs[op->rd] = static_cast<int64_t>(r.value());
    RES_NEXT();
  }
  RES_OP(kFree) {
    const uint64_t base = static_cast<uint64_t>(regs[op->ra]);
    Status s = heap_.Free(base);
    if (!s.ok()) {
      RaiseTrap(s.code() == StatusCode::kFailedPrecondition
                    ? TrapKind::kDoubleFree
                    : TrapKind::kInvalidFree,
                tid, f->pc(), base, s.message());
      goto schedule;
    }
    RES_NEXT();
  }
  RES_OP(kInput) {
    const int64_t value = inputs_ != nullptr ? inputs_->Next(tid, op->imm) : 0;
    regs[op->rd] = value;
    if (recorder != nullptr) {
      recorder->OnInput(tid, op->imm, value);
    }
    RES_NEXT();
  }
  RES_OP(kOutput) {
    ErrorLogEntry e;
    e.thread = tid;
    e.pc = f->pc();
    e.channel = op->imm;
    e.value = regs[op->ra];
    e.message = op->str_id;
    error_log_.Append(e);
    RES_NEXT();
  }
  RES_OP(kLock) {
    const uint64_t addr = static_cast<uint64_t>(regs[op->ra]);
    int64_t owner = 0;
    if (!CheckedRead(tid, *f, addr, &owner)) {
      goto schedule;
    }
    if (owner != 0) {
      // Blocks without advancing; the lock is retried when woken.
      t->state = ThreadState::kBlockedOnLock;
      t->blocked_on = addr;
      runnable_stale_ = true;
      goto schedule;
    }
    if (!CheckedWrite(tid, *f, addr, static_cast<int64_t>(tid) + 1)) {
      goto schedule;
    }
    RES_NEXT();
  }
  RES_OP(kUnlock) {
    const uint64_t addr = static_cast<uint64_t>(regs[op->ra]);
    int64_t owner = 0;
    if (!CheckedRead(tid, *f, addr, &owner)) {
      goto schedule;
    }
    if (owner != static_cast<int64_t>(tid) + 1) {
      RaiseTrap(TrapKind::kUnlockNotOwned, tid, f->pc(), addr,
                StrFormat("unlock of mutex owned by %lld",
                          static_cast<long long>(owner) - 1));
      goto schedule;
    }
    if (!CheckedWrite(tid, *f, addr, 0)) {
      goto schedule;
    }
    WakeLockWaiters(addr);
    ++f->index;
    goto schedule;
  }
  RES_OP(kAtomicRmwAdd) {
    const uint64_t addr = static_cast<uint64_t>(regs[op->ra]);
    int64_t old = 0;
    if (!CheckedRead(tid, *f, addr, &old)) {
      goto schedule;
    }
    if (!CheckedWrite(tid, *f, addr,
                      static_cast<int64_t>(static_cast<uint64_t>(old) +
                                           static_cast<uint64_t>(regs[op->rb])))) {
      goto schedule;
    }
    regs[op->rd] = old;
    RES_NEXT();
  }
  RES_OP(kSpawn) {
    Frame nf;
    nf.func = op->callee;
    nf.block = 0;
    nf.index = 0;
    nf.regs.assign(op->callee_num_regs, 0);
    nf.regs[0] = regs[op->ra];
    uint32_t new_tid = kMaxThreads;
    for (Thread& cand : threads_) {
      if (cand.state == ThreadState::kUnborn) {
        new_tid = cand.id;
        cand.state = ThreadState::kRunnable;
        cand.frames.clear();
        cand.frames.push_back(std::move(nf));
        break;
      }
    }
    if (new_tid == kMaxThreads) {
      if (threads_.size() >= kMaxThreads) {
        RaiseTrap(TrapKind::kThreadLimit, tid, f->pc(), 0, "too many threads");
        goto schedule;
      }
      Thread nt;
      nt.id = static_cast<uint32_t>(threads_.size());
      nt.frames.push_back(std::move(nf));
      new_tid = nt.id;
      threads_.push_back(std::move(nt));  // may invalidate t and f
      lbr_.emplace_back();
    }
    runnable_stale_ = true;
    Frame& spawner = threads_[tid].top();
    spawner.regs[op->rd] = static_cast<int64_t>(new_tid);
    EnterBlock(new_tid, op->callee, 0);
    ++spawner.index;
    goto schedule;
  }
  RES_OP(kJoin) {
    const int64_t target = regs[op->ra];
    if (target < 0 || static_cast<size_t>(target) >= threads_.size()) {
      RaiseTrap(TrapKind::kMemoryFault, tid, f->pc(), static_cast<uint64_t>(target),
                "join of invalid thread id");
      goto schedule;
    }
    if (threads_[static_cast<size_t>(target)].state != ThreadState::kExited) {
      // Blocks without advancing; retried when the target exits.
      t->state = ThreadState::kBlockedOnJoin;
      t->blocked_on = static_cast<uint64_t>(target);
      runnable_stale_ = true;
      goto schedule;
    }
    RES_NEXT();
  }
  RES_OP(kAssert) {
    if (regs[op->rc] == 0) {
      RaiseTrap(TrapKind::kAssertFailure, tid, f->pc(), 0, module_->str(op->str_id));
      goto schedule;
    }
    RES_NEXT();
  }
  RES_OP(kYield)
  RES_OP(kNop) {
    RES_NEXT();
  }

  // --- Terminators. ---
  RES_OP(kBr) {
    RecordBranch(tid, f->pc(), f->func, op->target0);
    f->block = op->target0;
    f->index = 0;
    EnterBlock(tid, f->func, f->block);
    op = fn_ops + block_first[f->block];
    RES_DISPATCH();
  }
  RES_OP(kCondBr) {
    const BlockId dest = regs[op->rc] != 0 ? op->target0 : op->target1;
    RecordBranch(tid, f->pc(), f->func, dest);
    f->block = dest;
    f->index = 0;
    EnterBlock(tid, f->func, f->block);
    op = fn_ops + block_first[f->block];
    RES_DISPATCH();
  }
  RES_OP(kCall) {
    const Pc pc = f->pc();
    f->block = op->target0;
    f->index = 0;
    Frame nf;
    nf.func = op->callee;
    nf.block = 0;
    nf.index = 0;
    nf.regs.assign(op->callee_num_regs, 0);
    const RegId* args = pm.args(*op);
    for (uint16_t i = 0; i < op->arg_count; ++i) {
      nf.regs[i] = regs[args[i]];
    }
    nf.caller_result_reg = op->rd;
    RecordBranch(tid, pc, op->callee, 0);
    t->frames.push_back(std::move(nf));  // may invalidate f
    EnterBlock(tid, op->callee, 0);
    enter_frame();
    RES_DISPATCH();
  }
  RES_OP(kRet) {
    const int64_t value = op->ra != kNoReg ? regs[op->ra] : 0;
    const RegId result_reg = f->caller_result_reg;
    const Pc pc = f->pc();
    t->frames.pop_back();
    if (t->frames.empty()) {
      ThreadExit(tid, value);
      goto schedule;
    }
    enter_frame();  // the caller, resuming at its call's continuation
    if (result_reg != kNoReg) {
      regs[result_reg] = value;
    }
    RecordBranch(tid, pc, f->func, f->block);
    EnterBlock(tid, f->func, f->block);
    RES_DISPATCH();
  }
  RES_OP(kHalt) {
    ThreadExit(tid, 0);
    goto schedule;
  }
  RES_OP_INVALID {
    RaiseTrap(TrapKind::kInvalidOpcode, tid, f->pc(), 0,
              StrFormat("invalid opcode %u", static_cast<unsigned>(op->raw_op)));
    goto schedule;
  }
}

#undef RES_BEGIN_STEP
#undef RES_OP
#undef RES_OP_INVALID
#undef RES_DISPATCH
#undef RES_NEXT
#undef RES_BINARY_OP

}  // namespace res
