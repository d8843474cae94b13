#include "src/res/root_cause.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/res/reverse_engine.h"
#include "src/support/string_util.h"

namespace res {

namespace {

// Borrowed execution-order view of a suffix chain (SuffixChainUnits), for
// the scans detection cannot answer from the folded context.
using UnitsView = std::vector<const SuffixUnit*>;

// Symbolizes a memory address against the module's globals / segments.
std::string SymbolizeAddress(const Module& module, uint64_t addr) {
  for (const GlobalVar& g : module.globals()) {
    if (addr >= g.address && addr < g.address + g.size_words * kWordSize) {
      uint64_t off = addr - g.address;
      if (off == 0) {
        return g.name;
      }
      return StrFormat("%s+%llu", g.name.c_str(),
                       static_cast<unsigned long long>(off));
    }
  }
  if (IsHeapAddress(addr)) {
    return StrFormat("heap:0x%llx", static_cast<unsigned long long>(addr));
  }
  return StrFormat("0x%llx", static_cast<unsigned long long>(addr));
}

// Per-access lockset computation: which mutexes each access's thread held.
struct AccessWithLockset {
  const MemAccess* access;
  size_t unit_index;
  std::set<uint64_t> lockset;
};

std::vector<AccessWithLockset> ComputeLocksets(
    const UnitsView& units, const std::map<uint64_t, uint32_t>& lock_owners) {
  std::map<uint32_t, std::set<uint64_t>> held;
  for (const auto& [mutex, owner] : lock_owners) {
    held[owner].insert(mutex);
  }
  std::vector<AccessWithLockset> out;
  for (size_t i = 0; i < units.size(); ++i) {
    const SuffixUnit& u = *units[i];
    // Merge the unit's lock operations and accesses by instruction index so
    // the lockset at each access reflects the true acquisition order.
    size_t next_op = 0;
    for (const MemAccess& a : u.accesses) {
      while (next_op < u.lock_ops.size() &&
             u.lock_ops[next_op].index <= a.pc.index) {
        const LockOp& op = u.lock_ops[next_op];
        if (op.is_lock) {
          held[u.tid].insert(op.mutex);
        } else {
          held[u.tid].erase(op.mutex);
        }
        ++next_op;
      }
      out.push_back(AccessWithLockset{&a, i, held[u.tid]});
    }
    for (; next_op < u.lock_ops.size(); ++next_op) {
      const LockOp& op = u.lock_ops[next_op];
      if (op.is_lock) {
        held[u.tid].insert(op.mutex);
      } else {
        held[u.tid].erase(op.mutex);
      }
    }
  }
  return out;
}

bool LocksetsDisjoint(const std::set<uint64_t>& a, const std::set<uint64_t>& b) {
  for (uint64_t m : a) {
    if (b.count(m) != 0) {
      return false;
    }
  }
  return true;
}

// The concurrency-bug detectors (§4 evaluates RES on exactly these classes).
void DetectConcurrencyBugs(const Module& module, const UnitsView& units,
                           const std::map<uint64_t, uint32_t>& lock_owners,
                           std::vector<RootCause>* out) {
  std::vector<AccessWithLockset> accesses = ComputeLocksets(units, lock_owners);

  // Atomicity violation: thread T reads X, another thread writes X, T writes
  // (or re-reads) X — the interleaved read-modify-write pattern.
  for (size_t i = 0; i < accesses.size(); ++i) {
    const auto& first = accesses[i];
    if (first.access->is_write || first.access->is_sync) {
      continue;
    }
    for (size_t j = i + 1; j < accesses.size(); ++j) {
      const auto& middle = accesses[j];
      if (middle.access->addr != first.access->addr || middle.access->is_sync ||
          !middle.access->is_write || middle.access->tid == first.access->tid) {
        continue;
      }
      if (!LocksetsDisjoint(first.lockset, middle.lockset)) {
        continue;
      }
      for (size_t k = j + 1; k < accesses.size(); ++k) {
        const auto& last = accesses[k];
        if (last.access->addr != first.access->addr || last.access->is_sync ||
            last.access->tid != first.access->tid) {
          continue;
        }
        RootCause cause;
        cause.kind = RootCauseKind::kAtomicityViolation;
        cause.site_a = first.access->pc;
        cause.site_b = middle.access->pc;
        cause.thread_a = first.access->tid;
        cause.thread_b = middle.access->tid;
        cause.address = first.access->addr;
        cause.description = StrFormat(
            "atomicity violation on %s: t%u's read-modify-write at %s interleaved "
            "by t%u's write at %s",
            SymbolizeAddress(module, cause.address).c_str(), cause.thread_a,
            module.PcToString(cause.site_a).c_str(), cause.thread_b,
            module.PcToString(cause.site_b).c_str());
        out->push_back(std::move(cause));
        break;
      }
      if (!out->empty() && out->back().kind == RootCauseKind::kAtomicityViolation) {
        break;
      }
    }
    if (!out->empty() && out->back().kind == RootCauseKind::kAtomicityViolation) {
      break;
    }
  }

  // Plain data race: conflicting unsynchronized accesses.
  for (size_t i = 0; i < accesses.size() && out->empty(); ++i) {
    for (size_t j = i + 1; j < accesses.size(); ++j) {
      const auto& a = accesses[i];
      const auto& b = accesses[j];
      if (a.access->addr != b.access->addr || a.access->tid == b.access->tid ||
          a.access->is_sync || b.access->is_sync) {
        continue;
      }
      if (!a.access->is_write && !b.access->is_write) {
        continue;
      }
      if (!LocksetsDisjoint(a.lockset, b.lockset)) {
        continue;
      }
      RootCause cause;
      // Read that races with a later foreign write: the read observed
      // pre-update state — an order violation flavour of race.
      cause.kind = (!a.access->is_write && b.access->is_write)
                       ? RootCauseKind::kOrderViolation
                       : RootCauseKind::kDataRace;
      cause.site_a = a.access->pc;
      cause.site_b = b.access->pc;
      cause.thread_a = a.access->tid;
      cause.thread_b = b.access->tid;
      cause.address = a.access->addr;
      cause.description = StrFormat(
          "%s on %s between t%u at %s and t%u at %s",
          std::string(RootCauseKindName(cause.kind)).c_str(),
          SymbolizeAddress(module, cause.address).c_str(), cause.thread_a,
          module.PcToString(cause.site_a).c_str(), cause.thread_b,
          module.PcToString(cause.site_b).c_str());
      out->push_back(std::move(cause));
      break;
    }
  }
}

const Instruction* InstructionAt(const Module& module, const Pc& pc) {
  if (pc.func == kNoFunc || pc.func >= module.functions().size()) {
    return nullptr;
  }
  const Function& fn = module.function(pc.func);
  if (pc.block >= fn.blocks.size() ||
      pc.index >= fn.blocks[pc.block].instructions.size()) {
    return nullptr;
  }
  return &fn.blocks[pc.block].instructions[pc.index];
}

// The overflow pass's taint refinement: the backward def-use walk of
// register `reg` on thread `tid` from just before instruction
// `before_index` of units[from_unit]. Counts the units it visits.
ValueOrigin TrackOrigin(const Module& module, const UnitsView& units,
                        uint32_t tid, RegId reg, size_t from_unit,
                        uint32_t before_index, ResStats* stats) {
  OriginFold fold;
  fold.live_regs.insert(reg);
  for (size_t ui = from_unit + 1; ui-- > 0 && !fold.stopped;) {
    const SuffixUnit& u = *units[ui];
    const uint32_t scan_end =
        ui == from_unit ? std::min(u.end_index, before_index) : u.end_index;
    ++stats->detector_units_scanned;
    fold.ProcessUnit(module, u, tid, scan_end);
  }
  return fold.Finish();
}

// Buffer-overflow witness check for one access: the symbolic base object
// differs from the object the concrete address landed in. Fills `cause`
// (complete except the def-use taint refinement) and reports whether that
// refinement is still needed.
bool OverflowWitnessForAccess(const Module& module, const Coredump& dump,
                              const MemAccess& a, RootCause* cause,
                              bool* needs_taint, RegId* value_reg) {
  if (!a.is_write || !a.address_was_symbolic || a.symbolic_base == 0) {
    return false;
  }
  auto object_of = [&module](uint64_t addr) -> std::pair<uint64_t, uint64_t> {
    for (const GlobalVar& g : module.globals()) {
      if (addr >= g.address && addr < g.address + g.size_words * kWordSize) {
        return {g.address, g.size_words * kWordSize};
      }
    }
    return {0, 0};
  };
  auto [base_obj, base_size] = object_of(a.symbolic_base);
  auto [land_obj, land_size] = object_of(a.addr);
  (void)land_size;
  bool out_of_object =
      base_obj != 0 && (land_obj != base_obj ||
                        a.addr >= base_obj + base_size);
  if (!out_of_object && base_obj == 0 && IsHeapAddress(a.symbolic_base)) {
    // Heap variant: landed outside the allocation containing the base.
    out_of_object = !(a.addr >= a.symbolic_base &&
                      IsHeapAddress(a.addr));
  }
  if (!out_of_object) {
    return false;
  }
  cause->kind = RootCauseKind::kBufferOverflow;
  cause->site_a = a.pc;
  cause->site_b = dump.trap.pc;
  cause->thread_a = a.tid;
  cause->thread_b = dump.trap.thread;
  cause->address = a.addr;
  cause->input_tainted = a.address_input_tainted;
  // The address was concretized through memory: chase the index's def-use
  // chain for an external-input source (exploitability §3.1).
  const Instruction* winst = InstructionAt(module, a.pc);
  *needs_taint = !cause->input_tainted && winst != nullptr &&
                 winst->op == Opcode::kStore;
  *value_reg = *needs_taint ? winst->ra : kNoReg;
  cause->description = StrFormat(
      "out-of-bounds write at %s: base object %s, landed at %s%s",
      module.PcToString(a.pc).c_str(),
      SymbolizeAddress(module, a.symbolic_base).c_str(),
      SymbolizeAddress(module, a.addr).c_str(),
      a.address_input_tainted ? " (index from external input)" : "");
  return true;
}

// Use-after-free / double-free matching for one unit's kFree events against
// the dump's trap (pure per-event).
void AppendFreeMatchCauses(const Module& module, const Coredump& dump,
                           const SuffixUnit& u, std::vector<RootCause>* out) {
  for (const UnitEvent& e : u.events) {
    if (e.kind != UnitEventKind::kFree) {
      continue;
    }
    bool matches;
    if (dump.trap.kind == TrapKind::kDoubleFree) {
      matches = e.value == dump.trap.address;
    } else {
      // The free that poisoned the accessed allocation.
      matches = dump.trap.address >= e.value;
      for (const Allocation& a : dump.heap_allocations) {
        if (a.base == e.value) {
          matches = dump.trap.address >= a.base &&
                    dump.trap.address < a.base + a.size_words * kWordSize;
        }
      }
    }
    if (matches) {
      RootCause cause;
      cause.kind = dump.trap.kind == TrapKind::kDoubleFree
                       ? RootCauseKind::kDoubleFree
                       : RootCauseKind::kUseAfterFree;
      cause.site_a = e.pc;
      cause.site_b = dump.trap.pc;
      cause.thread_a = u.tid;
      cause.thread_b = dump.trap.thread;
      cause.address = dump.trap.address;
      cause.description = StrFormat(
          "%s: freed at %s, %s at %s",
          std::string(RootCauseKindName(cause.kind)).c_str(),
          module.PcToString(e.pc).c_str(),
          dump.trap.kind == TrapKind::kDoubleFree ? "freed again" : "accessed",
          module.PcToString(dump.trap.pc).c_str());
      out->push_back(std::move(cause));
    }
  }
}

// The div/assert/fault explanation from the trap operand's folded origin.
void AppendOriginTrapCause(const Module& module, const Coredump& dump,
                           const ValueOrigin& origin,
                           std::vector<RootCause>* out) {
  RootCauseKind kind = dump.trap.kind == TrapKind::kDivByZero
                           ? RootCauseKind::kDivByZero
                           : (dump.trap.kind == TrapKind::kMemoryFault
                                  ? RootCauseKind::kWildPointer
                                  : RootCauseKind::kSemanticBug);
  if (!origin.input_pcs.empty()) {
    RootCause cause;
    cause.kind = kind;
    cause.site_a = origin.input_pcs.front();
    cause.site_b = dump.trap.pc;
    cause.thread_a = dump.trap.thread;
    cause.thread_b = dump.trap.thread;
    cause.input_tainted = true;
    cause.description = StrFormat(
        "%s at %s fed by unvalidated input at %s",
        std::string(RootCauseKindName(cause.kind)).c_str(),
        module.PcToString(dump.trap.pc).c_str(),
        module.PcToString(cause.site_a).c_str());
    out->push_back(std::move(cause));
  } else if (!origin.writer_pcs.empty()) {
    RootCause cause;
    cause.kind = kind;
    cause.site_a = origin.writer_pcs.front();
    cause.site_b = dump.trap.pc;
    cause.thread_a = dump.trap.thread;
    cause.thread_b = dump.trap.thread;
    cause.description = StrFormat(
        "%s at %s; offending value written at %s",
        std::string(RootCauseKindName(cause.kind)).c_str(),
        module.PcToString(dump.trap.pc).c_str(),
        module.PcToString(cause.site_a).c_str());
    out->push_back(std::move(cause));
  }
}

// Which register the trap-kind origin pass would track for this dump.
RegId OriginOperandForTrap(const Module& module, const Coredump& dump) {
  if (dump.trap.kind != TrapKind::kDivByZero &&
      dump.trap.kind != TrapKind::kAssertFailure &&
      dump.trap.kind != TrapKind::kMemoryFault) {
    return kNoReg;
  }
  const Instruction* inst = InstructionAt(module, dump.trap.pc);
  if (inst == nullptr) {
    return kNoReg;
  }
  if (dump.trap.kind == TrapKind::kDivByZero) {
    return inst->rb;
  }
  if (dump.trap.kind == TrapKind::kAssertFailure) {
    return inst->rc;
  }
  return inst->ra;  // faulting address base
}

}  // namespace

std::string_view RootCauseKindName(RootCauseKind kind) {
  switch (kind) {
    case RootCauseKind::kDataRace: return "data_race";
    case RootCauseKind::kAtomicityViolation: return "atomicity_violation";
    case RootCauseKind::kOrderViolation: return "order_violation";
    case RootCauseKind::kBufferOverflow: return "buffer_overflow";
    case RootCauseKind::kUseAfterFree: return "use_after_free";
    case RootCauseKind::kDoubleFree: return "double_free";
    case RootCauseKind::kDivByZero: return "div_by_zero";
    case RootCauseKind::kSemanticBug: return "semantic_bug";
    case RootCauseKind::kWildPointer: return "wild_pointer";
    case RootCauseKind::kDeadlock: return "deadlock";
    case RootCauseKind::kUnknown: return "unknown";
  }
  return "?";
}

std::string RootCause::BucketSignature(const Module& module) const {
  // Order the two sites canonically so A-vs-B and B-vs-A bucket together.
  std::string sa = module.PcToString(site_a);
  std::string sb = module.PcToString(site_b);
  if (sb < sa) {
    std::swap(sa, sb);
  }
  switch (kind) {
    case RootCauseKind::kDataRace:
    case RootCauseKind::kAtomicityViolation:
    case RootCauseKind::kOrderViolation:
      // One unsynchronized-access bug produces different racing pairs and
      // different labels across schedules; bucket by the contended datum.
      return StrFormat("race:%s", SymbolizeAddress(module, address).c_str());
    case RootCauseKind::kUseAfterFree:
    case RootCauseKind::kDoubleFree:
      // Bucket by the free site: many distinct crash stacks, one bug.
      return StrFormat("%s:%s", std::string(RootCauseKindName(kind)).c_str(),
                       module.PcToString(site_a).c_str());
    case RootCauseKind::kBufferOverflow:
    case RootCauseKind::kWildPointer:
      return StrFormat("%s:%s", std::string(RootCauseKindName(kind)).c_str(),
                       module.PcToString(site_a).c_str());
    case RootCauseKind::kDivByZero:
    case RootCauseKind::kSemanticBug:
      return StrFormat("%s:%s", std::string(RootCauseKindName(kind)).c_str(),
                       sa.c_str());
    case RootCauseKind::kDeadlock:
      return StrFormat("deadlock:%s", description.c_str());
    case RootCauseKind::kUnknown:
      return "unknown";
  }
  return "unknown";
}

void OriginFold::ProcessUnit(const Module& module, const SuffixUnit& u,
                             uint32_t tid, uint32_t scan_end) {
  if (stopped) {
    return;
  }
  if (u.tid != tid) {
    // A foreign write to a live address feeds the value.
    for (const MemAccess& a : u.accesses) {
      if (a.is_write && live_addrs.contains(a.addr)) {
        writer_pcs.push_back(a.pc);
        live_addrs.erase(a.addr);
      }
    }
    return;
  }
  const Function& fn = module.function(u.block.func);
  const BasicBlock& bb = fn.blocks[u.block.block];
  if (!bb.instructions.empty() &&
      (bb.terminator().op == Opcode::kCall || bb.terminator().op == Opcode::kRet) &&
      u.includes_terminator) {
    // Frame boundary: register identity does not survive it.
    stopped = true;
    return;
  }
  for (uint32_t i = scan_end; i-- > 0;) {
    const Instruction& inst = bb.instructions[i];
    auto written = InstructionWrittenReg(inst);
    if (!written || !live_regs.contains(*written)) {
      if (inst.op == Opcode::kStore) {
        // A same-thread store to a live address.
        for (const MemAccess& a : u.accesses) {
          if (a.is_write && a.pc.index == i && live_addrs.contains(a.addr)) {
            writer_pcs.push_back(a.pc);
            live_addrs.erase(a.addr);
            live_regs.insert(inst.rb);
          }
        }
      }
      continue;
    }
    live_regs.erase(*written);
    switch (inst.op) {
      case Opcode::kInput:
        input_pcs.push_back(Pc{u.block.func, u.block.block, i});
        break;
      case Opcode::kLoad: {
        // Find this load's concrete address among the unit's accesses.
        for (const MemAccess& a : u.accesses) {
          if (!a.is_write && a.pc.index == i) {
            live_addrs.insert(a.addr);
          }
        }
        break;
      }
      case Opcode::kConst:
        break;  // literal: flow ends here
      default:
        for (RegId r : InstructionReadRegs(inst)) {
          live_regs.insert(r);
        }
        break;
    }
  }
}

std::optional<RootCause> DetectDeadlockCycle(const Module& module,
                                             const Coredump& dump) {
  if (dump.trap.kind != TrapKind::kDeadlock) {
    return std::nullopt;
  }
  // waits_for[t] = owner of the mutex t is blocked on.
  std::map<uint32_t, uint32_t> waits_for;
  for (const ThreadDump& t : dump.threads) {
    if (t.state != ThreadState::kBlockedOnLock) {
      continue;
    }
    auto owner_word = dump.memory.ReadWord(t.blocked_on);
    if (!owner_word.ok() || owner_word.value() <= 0) {
      continue;
    }
    waits_for[t.id] = static_cast<uint32_t>(owner_word.value() - 1);
  }
  // Find a cycle by walking from each blocked thread.
  for (const auto& [start, first_owner] : waits_for) {
    std::vector<uint32_t> chain = {start};
    uint32_t cur = first_owner;
    for (size_t steps = 0; steps < waits_for.size() + 1; ++steps) {
      auto pos = std::find(chain.begin(), chain.end(), cur);
      if (pos != chain.end()) {
        // Cycle found: canonicalize by rotating to the smallest tid.
        std::vector<uint32_t> cycle(pos, chain.end());
        auto min_it = std::min_element(cycle.begin(), cycle.end());
        std::rotate(cycle.begin(), min_it, cycle.end());
        RootCause cause;
        cause.kind = RootCauseKind::kDeadlock;
        cause.thread_a = cycle.front();
        cause.thread_b = cycle.size() > 1 ? cycle[1] : cycle.front();
        std::string desc = "lock cycle:";
        for (uint32_t t : cycle) {
          desc += StrFormat(" t%u", t);
        }
        cause.description = desc;
        const ThreadDump& td = dump.threads[cause.thread_a];
        if (!td.frames.empty()) {
          cause.site_a = Pc{td.frames.back().func, td.frames.back().block,
                            td.frames.back().index};
        }
        cause.address = td.blocked_on;
        return cause;
      }
      chain.push_back(cur);
      auto next = waits_for.find(cur);
      if (next == waits_for.end()) {
        break;
      }
      cur = next->second;
    }
  }
  return std::nullopt;
}

RootCauseSetup MakeRootCauseSetup(const Module& module, const Coredump& dump) {
  RootCauseSetup setup;
  setup.deadlock = DetectDeadlockCycle(module, dump);
  setup.trap_thread = dump.trap.thread;
  setup.origin_operand = OriginOperandForTrap(module, dump);
  setup.track_origin = setup.origin_operand != kNoReg;
  for (const ThreadDump& t : dump.threads) {
    if (t.state == ThreadState::kBlockedOnLock) {
      setup.blocked_mutexes.push_back(t.blocked_on);
    }
  }
  std::sort(setup.blocked_mutexes.begin(), setup.blocked_mutexes.end());
  setup.blocked_mutexes.erase(
      std::unique(setup.blocked_mutexes.begin(), setup.blocked_mutexes.end()),
      setup.blocked_mutexes.end());
  return setup;
}

void RootCauseContext::AppendUnit(const RootCauseSetup& setup,
                                  const Module& module, const Coredump& dump,
                                  const SuffixChainPtr& head) {
  const SuffixUnit& u = head->unit;

  // Overflow witnesses: cons in reverse access order so walking the chain
  // yields this unit's witnesses in access order, before all older units'.
  for (size_t ai = u.accesses.size(); ai-- > 0;) {
    const MemAccess& a = u.accesses[ai];
    RootCause cause;
    bool needs_taint = false;
    RegId value_reg = kNoReg;
    if (!OverflowWitnessForAccess(module, dump, a, &cause, &needs_taint,
                                  &value_reg)) {
      continue;
    }
    auto witness = std::make_shared<OverflowWitness>();
    witness->cause = std::move(cause);
    witness->needs_taint = needs_taint;
    witness->value_reg = value_reg;
    witness->before_index = a.pc.index;
    witness->tid = a.tid;
    witness->unit_depth = head->depth;
    witness->prev = overflows;
    overflows = std::move(witness);
  }

  // Concurrency screen: latch `conc_candidate` as soon as some address has
  // non-sync accesses from two distinct threads, at least one a write —
  // the precondition of every pair the concurrency scan can emit. Once
  // latched the per-address map is no longer needed.
  if (!conc_candidate) {
    for (const MemAccess& a : u.accesses) {
      if (a.is_sync) {
        continue;
      }
      if (a.tid >= 64) {
        conc_candidate = true;  // out of mask range: never skip the scan
        break;
      }
      AddrConcInfo info;
      if (const AddrConcInfo* existing = addr_info.Find(a.addr)) {
        info = *existing;
      }
      info.tids |= uint64_t{1} << a.tid;
      if (a.is_write) {
        info.writers |= uint64_t{1} << a.tid;
      }
      if ((info.tids & (info.tids - 1)) != 0 && info.writers != 0) {
        conc_candidate = true;
        break;
      }
      addr_info.Set(a.addr, info);
    }
  }

  // Lock words, whose owners at suffix start seed the lockset scan.
  for (const LockOp& op : u.lock_ops) {
    auto it = std::lower_bound(lock_mutexes.begin(), lock_mutexes.end(), op.mutex);
    if (it == lock_mutexes.end() || *it != op.mutex) {
      lock_mutexes.insert(it, op.mutex);
    }
  }

  // Free events, for the use-after-free / double-free pass.
  for (const UnitEvent& e : u.events) {
    if (e.kind == UnitEventKind::kFree) {
      auto node = std::make_shared<FreeUnit>();
      node->node = head;
      node->prev = frees;
      frees = std::move(node);
      break;  // one chain node per unit; the pass iterates its events
    }
  }

  // Trap-operand origin fold: the backward def-use walk visits units in
  // exactly append order, so one ProcessUnit per append keeps the fold equal
  // to a walk over the whole chain.
  if (setup.track_origin) {
    if (!origin_seeded) {
      origin.live_regs.insert(setup.origin_operand);
      origin_seeded = true;
    }
    // With both live sets empty the walk body cannot change any state, so
    // the fold is already final and further units can be skipped outright.
    if (!origin.stopped &&
        (!origin.live_regs.empty() || !origin.live_addrs.empty())) {
      origin.ProcessUnit(module, u, setup.trap_thread, u.end_index);
    }
  }
}

std::vector<RootCause> DetectRootCausesIncremental(
    const Module& module, const Coredump& dump, const RootCauseSetup& setup,
    const RootCauseContext& ctx, const SuffixChainNode* chain_head,
    const std::map<uint64_t, uint32_t>& lock_owners, ResStats* stats) {
  std::vector<RootCause> causes;

  if (setup.deadlock.has_value()) {
    causes.push_back(*setup.deadlock);
    return causes;
  }

  const size_t n_units = chain_head != nullptr ? chain_head->depth : 0;
  UnitsView view;  // built on first use
  auto ensure_view = [&]() -> const UnitsView& {
    if (view.empty()) {
      view = SuffixChainUnits(chain_head);
    }
    return view;
  };

  // Overflow pass: replay the prebuilt witnesses (chain order is execution
  // order); only the rare taint refinement walks units.
  for (const RootCauseContext::OverflowWitness* w = ctx.overflows.get();
       w != nullptr; w = w->prev.get()) {
    RootCause cause = w->cause;
    if (w->needs_taint) {
      ValueOrigin vo =
          TrackOrigin(module, ensure_view(), w->tid, w->value_reg,
                      n_units - w->unit_depth, w->before_index, stats);
      cause.input_tainted = !vo.input_pcs.empty();
    }
    causes.push_back(std::move(cause));
  }

  // Concurrency pass: skipped outright while the screen proves it empty.
  if (ctx.conc_candidate) {
    stats->detector_units_scanned += n_units;
    DetectConcurrencyBugs(module, ensure_view(), lock_owners, &causes);
  }

  switch (dump.trap.kind) {
    case TrapKind::kUseAfterFree:
    case TrapKind::kDoubleFree: {
      for (const RootCauseContext::FreeUnit* f = ctx.frees.get(); f != nullptr;
           f = f->prev.get()) {
        AppendFreeMatchCauses(module, dump, f->node->unit, &causes);
      }
      break;
    }
    case TrapKind::kDivByZero:
    case TrapKind::kAssertFailure:
    case TrapKind::kMemoryFault: {
      // A concurrency or overflow explanation already covers the trap.
      if (causes.empty() && setup.track_origin) {
          AppendOriginTrapCause(module, dump, ctx.origin.Finish(), &causes);
      }
      break;
    }
    default:
      break;
  }
  return causes;
}

}  // namespace res
