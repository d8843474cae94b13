#include "src/coredump/coredump.h"

namespace res {

namespace {

bool PcInModule(const Module& module, const Pc& pc) {
  if (pc.func >= module.functions().size()) {
    return false;
  }
  const Function& fn = module.function(pc.func);
  if (pc.block >= fn.blocks.size()) {
    return false;
  }
  // Frame indices point at the next instruction to execute and trap PCs at
  // the trapping instruction; both are strictly inside the block (every
  // block ends with a terminator that transfers control before the index
  // can run off the end).
  return pc.index < fn.blocks[pc.block].instructions.size();
}

}  // namespace

RES_FAULT_SITE(kFaultValidate, "coredump.validate", StatusCode::kDataLoss);

Status Coredump::Validate(const Module& module,
                          const FaultScope& faults) const {
  RES_RETURN_IF_ERROR(faults.Check(kFaultValidate));
  if (static_cast<uint8_t>(trap.kind) >
      static_cast<uint8_t>(TrapKind::kInvalidOpcode)) {
    return DataLoss("trap kind out of range");
  }
  if (trap.kind == TrapKind::kNone) {
    return DataLoss("coredump carries no trap");
  }
  if (trap.thread >= threads.size()) {
    return DataLoss("trap thread index out of range");
  }
  if (!PcInModule(module, trap.pc)) {
    return DataLoss("trap pc outside module");
  }
  if (threads[trap.thread].frames.empty()) {
    return DataLoss("faulting thread has no frames");
  }
  for (size_t i = 0; i < threads.size(); ++i) {
    const ThreadDump& t = threads[i];
    if (t.id != i) {
      return DataLoss("thread id does not match its slot");
    }
    // kUnborn is replay-internal; a captured dump never contains it.
    if (static_cast<uint8_t>(t.state) >
        static_cast<uint8_t>(ThreadState::kExited)) {
      return DataLoss("thread state out of range");
    }
    for (size_t j = 0; j < t.frames.size(); ++j) {
      const Frame& f = t.frames[j];
      if (!PcInModule(module, f.pc())) {
        return DataLoss("frame pc outside module");
      }
      if (f.regs.size() != module.function(f.func).num_regs) {
        return DataLoss("frame register file size mismatch");
      }
      if (j == 0) {
        if (f.caller_result_reg != kNoReg) {
          return DataLoss("outermost frame expects a return value");
        }
      } else if (f.caller_result_reg != kNoReg &&
                 f.caller_result_reg >=
                     module.function(t.frames[j - 1].func).num_regs) {
        return DataLoss("caller result register out of range");
      }
    }
    if (t.lbr.size() > kLbrDepth) {
      return DataLoss("LBR ring deeper than hardware");
    }
    for (const BranchRecord& b : t.lbr) {
      if (!PcInModule(module, b.source) || !PcInModule(module, b.dest)) {
        return DataLoss("LBR entry outside module");
      }
    }
  }
  uint64_t prev_end = 0;
  for (const Allocation& a : heap_allocations) {
    if (static_cast<uint8_t>(a.state) >
        static_cast<uint8_t>(AllocState::kFreed)) {
      return DataLoss("allocation state out of range");
    }
    if (a.size_words > (UINT64_MAX - a.base) / 8) {
      return DataLoss("allocation extent overflows");
    }
    // The bump allocator hands out ascending, non-overlapping extents and
    // the serializer emits them in base order.
    if (a.base < prev_end) {
      return DataLoss("allocation table not ascending");
    }
    prev_end = a.base + a.size_words * 8;
    if (a.alloc_seq == 0 || a.alloc_seq >= heap_next_seq) {
      return DataLoss("allocation sequence outside heap epoch");
    }
  }
  if (has_memory) {
    // The VM maps exactly the module's globals in the globals segment:
    // every word of each, and no other.
    uint64_t declared_words = 0;
    for (const GlobalVar& g : module.globals()) {
      for (uint64_t i = 0; i < g.size_words; ++i) {
        if (!memory.IsMappedWord(g.address + i * kWordSize)) {
          return DataLoss("declared global word missing from the memory image");
        }
      }
      declared_words += g.size_words;
    }
    uint64_t global_words = 0;
    memory.ForEachWord([&global_words](uint64_t addr, int64_t) {
      global_words += IsGlobalAddress(addr) ? 1 : 0;
    });
    if (global_words != declared_words) {
      return DataLoss("memory image maps globals the module does not declare");
    }
  }
  if (error_log.size() > kErrorLogCapacity) {
    return DataLoss("error log longer than its ring");
  }
  for (const ErrorLogEntry& e : error_log) {
    if (e.thread >= threads.size()) {
      return DataLoss("error-log thread index out of range");
    }
    if (!PcInModule(module, e.pc)) {
      return DataLoss("error-log pc outside module");
    }
    if (e.message != kNoStr && e.message >= module.strings().size()) {
      return DataLoss("error-log message string out of range");
    }
  }
  return OkStatus();
}

Coredump CaptureCoredump(const Vm& vm) {
  Coredump dump;
  dump.trap = vm.trap();
  dump.memory = vm.memory().Clone();
  dump.has_memory = true;
  for (const Thread& t : vm.threads()) {
    ThreadDump td;
    td.id = t.id;
    td.state = t.state;
    td.blocked_on = t.blocked_on;
    td.frames = t.frames;
    td.lbr = vm.lbr(t.id).Harvest();
    dump.threads.push_back(std::move(td));
  }
  for (const auto& [base, alloc] : vm.heap().allocations()) {
    dump.heap_allocations.push_back(alloc);
  }
  dump.heap_next_free = vm.heap().next_free();
  dump.heap_next_seq = vm.heap().next_seq();
  dump.error_log = vm.error_log().entries();
  return dump;
}

Coredump MakeMinidump(const Coredump& full) {
  Coredump mini = full;
  mini.memory = AddressSpace();
  mini.has_memory = false;
  mini.heap_allocations.clear();
  mini.error_log.clear();
  for (ThreadDump& td : mini.threads) {
    td.lbr.clear();
  }
  return mini;
}

std::string FaultingStackSignature(const Module& module, const Coredump& dump) {
  std::string sig;
  const ThreadDump& t = dump.FaultingThread();
  for (size_t i = t.frames.size(); i-- > 0;) {
    if (!sig.empty()) {
      sig += '<';
    }
    sig += module.function(t.frames[i].func).name;
    if (i == t.frames.size() - 1) {
      // Innermost frame: include the faulting block for WER-like precision.
      sig += '.';
      sig += module.function(t.frames[i].func).blocks[t.frames[i].block].name;
    }
  }
  return sig;
}

}  // namespace res
