#include "src/vm/vm.h"

#include <cassert>
#include <limits>

#include "src/support/string_util.h"

// Direct-threaded dispatch (computed goto) where the compiler supports the
// GNU labels-as-values extension; everywhere else Step falls back to a
// portable dense switch over the same handler bodies.
#if defined(__GNUC__) || defined(__clang__)
#define RES_VM_COMPUTED_GOTO 1
#else
#define RES_VM_COMPUTED_GOTO 0
#endif

namespace res {

namespace {

int64_t EvalBinary(Opcode op, int64_t a, int64_t b) {
  uint64_t ua = static_cast<uint64_t>(a);
  uint64_t ub = static_cast<uint64_t>(b);
  switch (op) {
    case Opcode::kAdd:
      return static_cast<int64_t>(ua + ub);
    case Opcode::kSub:
      return static_cast<int64_t>(ua - ub);
    case Opcode::kMul:
      return static_cast<int64_t>(ua * ub);
    case Opcode::kDivS:
      return a / b;  // caller guards b != 0 and overflow
    case Opcode::kRemS:
      return a % b;
    case Opcode::kAnd:
      return static_cast<int64_t>(ua & ub);
    case Opcode::kOr:
      return static_cast<int64_t>(ua | ub);
    case Opcode::kXor:
      return static_cast<int64_t>(ua ^ ub);
    case Opcode::kShl:
      return static_cast<int64_t>(ua << (ub & 63));
    case Opcode::kShrL:
      return static_cast<int64_t>(ua >> (ub & 63));
    case Opcode::kShrA:
      return a >> (ub & 63);
    case Opcode::kCmpEq:
      return a == b ? 1 : 0;
    case Opcode::kCmpNe:
      return a != b ? 1 : 0;
    case Opcode::kCmpLtS:
      return a < b ? 1 : 0;
    case Opcode::kCmpLeS:
      return a <= b ? 1 : 0;
    case Opcode::kCmpLtU:
      return ua < ub ? 1 : 0;
    case Opcode::kCmpLeU:
      return ua <= ub ? 1 : 0;
    default:
      assert(false && "not a binary op");
      return 0;
  }
}

}  // namespace

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
  block_trace_.clear();
  consumed_inputs_.clear();
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
  block_trace_.clear();
  consumed_inputs_.clear();
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

bool Vm::CheckedRead(uint32_t tid, const Pc& pc, uint64_t addr, int64_t* out) {
  if (IsHeapAddress(addr)) {
    Heap::AccessVerdict verdict = heap_.CheckAccess(addr);
    if (verdict == Heap::AccessVerdict::kFreed) {
      RaiseTrap(TrapKind::kUseAfterFree, tid, pc, addr, "read of freed memory");
      return false;
    }
    if (verdict == Heap::AccessVerdict::kUnallocated) {
      RaiseTrap(TrapKind::kMemoryFault, tid, pc, addr, "read of unallocated heap");
      return false;
    }
  }
  auto r = memory_.ReadWord(addr);
  if (!r.ok()) {
    RaiseTrap(TrapKind::kMemoryFault, tid, pc, addr, r.status().message());
    return false;
  }
  *out = r.value();
  if (recorder_ != nullptr) {
    recorder_->OnMemoryOp(tid, addr, *out, /*is_write=*/false);
  }
  return true;
}

bool Vm::CheckedWrite(uint32_t tid, const Pc& pc, uint64_t addr, int64_t value) {
  if (IsHeapAddress(addr)) {
    Heap::AccessVerdict verdict = heap_.CheckAccess(addr);
    if (verdict == Heap::AccessVerdict::kFreed) {
      RaiseTrap(TrapKind::kUseAfterFree, tid, pc, addr, "write to freed memory");
      return false;
    }
    if (verdict == Heap::AccessVerdict::kUnallocated) {
      RaiseTrap(TrapKind::kMemoryFault, tid, pc, addr, "write to unallocated heap");
      return false;
    }
  }
  Status s = memory_.WriteWord(addr, value);
  if (!s.ok()) {
    RaiseTrap(TrapKind::kMemoryFault, tid, pc, addr, s.message());
    return false;
  }
  if (recorder_ != nullptr) {
    recorder_->OnMemoryOp(tid, addr, value, /*is_write=*/true);
  }
  return true;
}

void Vm::RecordBranch(uint32_t tid, const Pc& source, FuncId dfunc, BlockId dblock) {
  BranchRecord rec;
  rec.source = source;
  rec.dest = Pc{dfunc, dblock, 0};
  lbr_[tid].Record(rec);
}

void Vm::EnterBlock(uint32_t tid, FuncId func, BlockId block) {
  if (options_.record_block_trace) {
    block_trace_.push_back(BlockTraceEntry{tid, BlockRef{func, block}});
  }
}

void Vm::WakeLockWaiters(uint64_t mutex_addr) {
  for (Thread& t : threads_) {
    if (t.state == ThreadState::kBlockedOnLock && t.blocked_on == mutex_addr) {
      t.state = ThreadState::kRunnable;
    }
  }
}

void Vm::WakeJoiners(uint32_t exited_tid) {
  for (Thread& t : threads_) {
    if (t.state == ThreadState::kBlockedOnJoin && t.blocked_on == exited_tid) {
      t.state = ThreadState::kRunnable;
    }
  }
}

void Vm::ThreadExit(uint32_t tid, int64_t value) {
  Thread& t = threads_[tid];
  t.state = ThreadState::kExited;
  t.exit_value = value;
  WakeJoiners(tid);
  if (tid == 0) {
    main_exited_ = true;
    stopped_ = true;  // process exits with the main thread
  }
}

RunResult Vm::RunBounded(uint64_t budget) {
  RunResult result;
  uint64_t executed = 0;
  while (!stopped_) {
    if (executed >= budget || steps_ >= options_.max_steps) {
      result.outcome = RunOutcome::kStepLimit;
      result.trap.kind = TrapKind::kStepLimit;
      result.steps = steps_;
      return result;
    }
    runnable_scratch_.clear();
    for (const Thread& t : threads_) {
      if (t.runnable()) {
        runnable_scratch_.push_back(t.id);
      }
    }
    if (runnable_scratch_.empty()) {
      bool all_exited = true;
      uint32_t blocked_tid = 0;
      Pc blocked_pc;
      for (const Thread& t : threads_) {
        if (t.state == ThreadState::kBlockedOnLock ||
            t.state == ThreadState::kBlockedOnJoin) {
          all_exited = false;
          blocked_tid = t.id;
          blocked_pc = t.top().pc();
          break;
        }
      }
      if (all_exited) {
        result.outcome = RunOutcome::kHalted;
        result.steps = steps_;
        return result;
      }
      RaiseTrap(TrapKind::kDeadlock, blocked_tid, blocked_pc, 0,
                "all live threads blocked");
      result.outcome = RunOutcome::kTrapped;
      result.trap = trap_;
      result.steps = steps_;
      return result;
    }

    uint32_t tid = scheduler_->Pick(runnable_scratch_, current_tid_);
    if (scheduler_->failed()) {
      result.outcome = RunOutcome::kScheduleDiverged;
      result.steps = steps_;
      return result;
    }
    current_tid_ = tid;
    if (recorder_ != nullptr) {
      recorder_->OnSchedule(tid);
    }
    ++steps_;
    ++executed;
    ++threads_[tid].steps_executed;
    if (!Step(tid)) {
      break;
    }
  }
  result.steps = steps_;
  if (trap_.kind != TrapKind::kNone) {
    result.outcome = RunOutcome::kTrapped;
    result.trap = trap_;
  } else {
    result.outcome = RunOutcome::kHalted;
  }
  return result;
}

// Handler prologue/epilogue shared between the two dispatch modes: RES_OP
// opens a handler for one opcode (a case label under dense-switch, an
// address-taken label under computed goto); handlers exit with an explicit
// `goto advance` / `return`, never fall through.
#if RES_VM_COMPUTED_GOTO
#define RES_OP(name) op_##name:
#define RES_OP_INVALID op_invalid:
#else
#define RES_OP(name) case Opcode::name:
#define RES_OP_INVALID default:
#endif

bool Vm::Step(uint32_t tid) {
  Thread& t = threads_[tid];
  assert(t.runnable());
  Frame& f = t.top();
  const PredecodedModule& pm = *predecoded_;
  const PredecodedFunction& pfn = pm.function(f.func);
  const DecodedOp& inst =
      pm.ops()[pfn.first_op + pfn.block_first_op[f.block] + f.index];
  const Pc pc = f.pc();

  auto reg = [&f](RegId r) -> int64_t& { return f.regs[r]; };

#if RES_VM_COMPUTED_GOTO
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
  static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                    static_cast<size_t>(Opcode::kHalt) + 1,
                "dispatch table must cover the full opcode enum");
  if (inst.raw_op >= sizeof(kDispatch) / sizeof(kDispatch[0])) {
    goto op_invalid;
  }
  goto* kDispatch[inst.raw_op];
#else
  switch (inst.op()) {
#endif

  RES_OP(kConst) {
    reg(inst.rd) = inst.imm;
    goto advance;
  }
  RES_OP(kMov) {
    reg(inst.rd) = reg(inst.ra);
    goto advance;
  }
  RES_OP(kAdd)
  RES_OP(kSub)
  RES_OP(kMul)
  RES_OP(kAnd)
  RES_OP(kOr)
  RES_OP(kXor)
  RES_OP(kShl)
  RES_OP(kShrL)
  RES_OP(kShrA)
  RES_OP(kCmpEq)
  RES_OP(kCmpNe)
  RES_OP(kCmpLtS)
  RES_OP(kCmpLeS)
  RES_OP(kCmpLtU)
  RES_OP(kCmpLeU) {
    reg(inst.rd) = EvalBinary(inst.op(), reg(inst.ra), reg(inst.rb));
    goto advance;
  }
  RES_OP(kDivS)
  RES_OP(kRemS) {
    int64_t b = reg(inst.rb);
    int64_t a = reg(inst.ra);
    if (b == 0 || (a == std::numeric_limits<int64_t>::min() && b == -1)) {
      RaiseTrap(TrapKind::kDivByZero, tid, pc, 0,
                b == 0 ? "division by zero" : "signed division overflow");
      return false;
    }
    reg(inst.rd) = EvalBinary(inst.op(), a, b);
    goto advance;
  }
  RES_OP(kSelect) {
    reg(inst.rd) = reg(inst.rc) != 0 ? reg(inst.ra) : reg(inst.rb);
    goto advance;
  }
  RES_OP(kLoad) {
    uint64_t addr =
        static_cast<uint64_t>(reg(inst.ra)) + static_cast<uint64_t>(inst.imm);
    int64_t value = 0;
    if (!CheckedRead(tid, pc, addr, &value)) {
      return false;
    }
    reg(inst.rd) = value;
    goto advance;
  }
  RES_OP(kStore) {
    uint64_t addr =
        static_cast<uint64_t>(reg(inst.ra)) + static_cast<uint64_t>(inst.imm);
    if (!CheckedWrite(tid, pc, addr, reg(inst.rb))) {
      return false;
    }
    goto advance;
  }
  RES_OP(kAlloc) {
    auto r = heap_.Allocate(static_cast<uint64_t>(reg(inst.ra)));
    if (!r.ok()) {
      RaiseTrap(TrapKind::kHeapExhausted, tid, pc, 0, r.status().message());
      return false;
    }
    const Allocation* a = heap_.FindCovering(r.value());
    Status map = memory_.MapRegion(r.value(), a->size_words);
    assert(map.ok());
    (void)map;
    reg(inst.rd) = static_cast<int64_t>(r.value());
    goto advance;
  }
  RES_OP(kFree) {
    uint64_t base = static_cast<uint64_t>(reg(inst.ra));
    Status s = heap_.Free(base);
    if (!s.ok()) {
      RaiseTrap(s.code() == StatusCode::kFailedPrecondition
                    ? TrapKind::kDoubleFree
                    : TrapKind::kInvalidFree,
                tid, pc, base, s.message());
      return false;
    }
    goto advance;
  }
  RES_OP(kInput) {
    int64_t value = inputs_ != nullptr ? inputs_->Next(tid, inst.imm) : 0;
    reg(inst.rd) = value;
    if (options_.record_consumed_inputs) {
      consumed_inputs_.push_back(ConsumedInput{tid, inst.imm, value});
    }
    if (recorder_ != nullptr) {
      recorder_->OnInput(tid, inst.imm, value);
    }
    goto advance;
  }
  RES_OP(kOutput) {
    ErrorLogEntry e;
    e.thread = tid;
    e.pc = pc;
    e.channel = inst.imm;
    e.value = reg(inst.ra);
    e.message = inst.str_id;
    error_log_.Append(e);
    goto advance;
  }
  RES_OP(kLock) {
    uint64_t addr = static_cast<uint64_t>(reg(inst.ra));
    int64_t owner = 0;
    if (!CheckedRead(tid, pc, addr, &owner)) {
      return false;
    }
    if (owner == 0) {
      if (!CheckedWrite(tid, pc, addr, static_cast<int64_t>(tid) + 1)) {
        return false;
      }
    } else {
      t.state = ThreadState::kBlockedOnLock;
      t.blocked_on = addr;
      return true;  // do not advance index; retried when woken
    }
    goto advance;
  }
  RES_OP(kUnlock) {
    uint64_t addr = static_cast<uint64_t>(reg(inst.ra));
    int64_t owner = 0;
    if (!CheckedRead(tid, pc, addr, &owner)) {
      return false;
    }
    if (owner != static_cast<int64_t>(tid) + 1) {
      RaiseTrap(TrapKind::kUnlockNotOwned, tid, pc, addr,
                StrFormat("unlock of mutex owned by %lld",
                          static_cast<long long>(owner) - 1));
      return false;
    }
    if (!CheckedWrite(tid, pc, addr, 0)) {
      return false;
    }
    WakeLockWaiters(addr);
    goto advance;
  }
  RES_OP(kAtomicRmwAdd) {
    uint64_t addr = static_cast<uint64_t>(reg(inst.ra));
    int64_t old = 0;
    if (!CheckedRead(tid, pc, addr, &old)) {
      return false;
    }
    if (!CheckedWrite(tid, pc, addr,
                      static_cast<int64_t>(static_cast<uint64_t>(old) +
                                           static_cast<uint64_t>(reg(inst.rb))))) {
      return false;
    }
    reg(inst.rd) = old;
    goto advance;
  }
  RES_OP(kSpawn) {
    Frame nf;
    nf.func = inst.callee;
    nf.block = 0;
    nf.index = 0;
    nf.regs.assign(inst.callee_num_regs, 0);
    nf.regs[0] = reg(inst.ra);
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
        RaiseTrap(TrapKind::kThreadLimit, tid, pc, 0, "too many threads");
        return false;
      }
      Thread nt;
      nt.id = static_cast<uint32_t>(threads_.size());
      nt.frames.push_back(std::move(nf));
      new_tid = nt.id;
      threads_.push_back(std::move(nt));  // may invalidate t/f references
      lbr_.emplace_back();
    }
    Frame& spawner = threads_[tid].top();
    spawner.regs[inst.rd] = static_cast<int64_t>(new_tid);
    EnterBlock(new_tid, inst.callee, 0);
    ++spawner.index;
    return true;
  }
  RES_OP(kJoin) {
    int64_t target = reg(inst.ra);
    if (target < 0 || static_cast<size_t>(target) >= threads_.size()) {
      RaiseTrap(TrapKind::kMemoryFault, tid, pc, static_cast<uint64_t>(target),
                "join of invalid thread id");
      return false;
    }
    if (threads_[static_cast<size_t>(target)].state != ThreadState::kExited) {
      t.state = ThreadState::kBlockedOnJoin;
      t.blocked_on = static_cast<uint64_t>(target);
      return true;  // retried when the target exits
    }
    goto advance;
  }
  RES_OP(kAssert) {
    if (reg(inst.rc) == 0) {
      RaiseTrap(TrapKind::kAssertFailure, tid, pc, 0, module_->str(inst.str_id));
      return false;
    }
    goto advance;
  }
  RES_OP(kYield)
  RES_OP(kNop) {
    goto advance;
  }

  // --- Terminators. ---
  RES_OP(kBr) {
    RecordBranch(tid, pc, f.func, inst.target0);
    f.block = inst.target0;
    f.index = 0;
    scheduler_->OnBlockBoundary(tid);
    EnterBlock(tid, f.func, f.block);
    return true;
  }
  RES_OP(kCondBr) {
    BlockId dest = reg(inst.rc) != 0 ? inst.target0 : inst.target1;
    RecordBranch(tid, pc, f.func, dest);
    f.block = dest;
    f.index = 0;
    scheduler_->OnBlockBoundary(tid);
    EnterBlock(tid, f.func, f.block);
    return true;
  }
  RES_OP(kCall) {
    f.block = inst.target0;
    f.index = 0;
    Frame nf;
    nf.func = inst.callee;
    nf.block = 0;
    nf.index = 0;
    nf.regs.assign(inst.callee_num_regs, 0);
    const RegId* args = pm.args(inst);
    for (uint16_t i = 0; i < inst.arg_count; ++i) {
      nf.regs[i] = f.regs[args[i]];
    }
    nf.caller_result_reg = inst.rd;
    RecordBranch(tid, pc, inst.callee, 0);
    t.frames.push_back(std::move(nf));
    scheduler_->OnBlockBoundary(tid);
    EnterBlock(tid, inst.callee, 0);
    return true;
  }
  RES_OP(kRet) {
    int64_t value = inst.ra != kNoReg ? reg(inst.ra) : 0;
    RegId result_reg = f.caller_result_reg;
    t.frames.pop_back();
    if (t.frames.empty()) {
      scheduler_->OnBlockBoundary(tid);
      ThreadExit(tid, value);
      return !stopped_;
    }
    Frame& caller = t.top();
    if (result_reg != kNoReg) {
      caller.regs[result_reg] = value;
    }
    RecordBranch(tid, pc, caller.func, caller.block);
    scheduler_->OnBlockBoundary(tid);
    EnterBlock(tid, caller.func, caller.block);
    return true;
  }
  RES_OP(kHalt) {
    scheduler_->OnBlockBoundary(tid);
    ThreadExit(tid, 0);
    return !stopped_;
  }
  RES_OP_INVALID {
    RaiseTrap(TrapKind::kInvalidOpcode, tid, pc, 0,
              StrFormat("invalid opcode %u",
                        static_cast<unsigned>(inst.raw_op)));
    return false;
  }

#if !RES_VM_COMPUTED_GOTO
  }
#endif

advance:
  ++f.index;
  return true;
}

#undef RES_OP
#undef RES_OP_INVALID

}  // namespace res
