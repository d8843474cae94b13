#include "src/coredump/serialize.h"

#include <algorithm>
#include <utility>

#include "src/support/wire.h"

namespace res {

namespace {

constexpr uint64_t kMagic = 0x524553434f524531ULL;  // "RESCORE1"
constexpr uint32_t kVersion = 2;

void WritePc(WireWriter* w, const Pc& pc) {
  w->U32(pc.func);
  w->U32(pc.block);
  w->U32(pc.index);
}

bool ReadPc(WireReader* r, Pc* pc) {
  return r->U32(&pc->func) && r->U32(&pc->block) && r->U32(&pc->index);
}

using MemoryWord = std::pair<uint64_t, int64_t>;  // (address, value)

// The shape of every image a VM captures: word-aligned addresses in
// ascending order, each in the globals segment (in a declared global, when
// the module is known) or in a heap allocation; allocations that tile the
// heap segment from kHeapBase, as the bump allocator hands them out; every
// allocation word present; and no image at all in a minidump. Checked
// before a single page is built, so an image maps at most the globals
// segment (the module's globals, when it is known) plus the heap words its
// bytes carry, never a page per word.
Status CheckMemoryImage(const std::vector<MemoryWord>& words, bool has_memory,
                        const std::vector<Allocation>& allocations,
                        const Module* module) {
  if (!has_memory && !words.empty()) {
    return DataLoss("minidump carries a memory image");
  }
  uint64_t heap_end = kHeapBase;
  for (const Allocation& a : allocations) {
    if (a.base != heap_end ||
        a.size_words > (kHeapLimit - heap_end) / kWordSize) {
      return DataLoss("heap allocations do not tile the heap segment");
    }
    heap_end += a.size_words * kWordSize;
  }
  // The declared globals as [begin, end) byte ranges, ascending.
  std::vector<std::pair<uint64_t, uint64_t>> declared;
  if (module != nullptr) {
    for (const GlobalVar& g : module->globals()) {
      declared.emplace_back(g.address, g.address + g.size_words * kWordSize);
    }
    std::sort(declared.begin(), declared.end());
  }
  size_t next_global = 0;  // the first range not wholly below the cursor
  uint64_t heap_words = 0;
  for (size_t i = 0; i < words.size(); ++i) {
    const uint64_t addr = words[i].first;
    if (!IsWordAligned(addr) || (i > 0 && addr <= words[i - 1].first)) {
      return DataLoss("memory image not aligned and ascending");
    }
    if (addr >= kHeapBase && addr < heap_end) {
      ++heap_words;
    } else if (!IsGlobalAddress(addr)) {
      return DataLoss("memory word outside globals and heap allocations");
    } else if (module != nullptr) {
      while (next_global < declared.size() &&
             declared[next_global].second <= addr) {
        ++next_global;
      }
      if (next_global == declared.size() ||
          addr < declared[next_global].first) {
        return DataLoss("memory image maps globals the module does not declare");
      }
    }
  }
  if (has_memory && heap_words != (heap_end - kHeapBase) / kWordSize) {
    return DataLoss("heap allocation word missing from the memory image");
  }
  return OkStatus();
}

}  // namespace

std::vector<uint8_t> SerializeCoredump(const Coredump& dump) {
  WireWriter w;
  w.U64(kMagic);
  w.U32(kVersion);

  // Trap.
  w.U8(static_cast<uint8_t>(dump.trap.kind));
  w.U32(dump.trap.thread);
  WritePc(&w, dump.trap.pc);
  w.U64(dump.trap.address);
  w.Str(dump.trap.message);

  // Memory image.
  w.U8(dump.has_memory ? 1 : 0);
  w.U64(dump.memory.MappedWordCount());
  dump.memory.ForEachWord([&w](uint64_t addr, int64_t value) {
    w.U64(addr);
    w.I64(value);
  });

  // Threads.
  w.U64(dump.threads.size());
  for (const ThreadDump& t : dump.threads) {
    w.U32(t.id);
    w.U8(static_cast<uint8_t>(t.state));
    w.U64(t.blocked_on);
    w.U64(t.frames.size());
    for (const Frame& f : t.frames) {
      w.U32(f.func);
      w.U32(f.block);
      w.U32(f.index);
      w.U32(f.caller_result_reg);
      w.U64(f.regs.size());
      for (int64_t r : f.regs) {
        w.I64(r);
      }
    }
    w.U64(t.lbr.size());
    for (const BranchRecord& b : t.lbr) {
      WritePc(&w, b.source);
      WritePc(&w, b.dest);
    }
  }

  // Heap metadata.
  w.U64(dump.heap_allocations.size());
  for (const Allocation& a : dump.heap_allocations) {
    w.U64(a.base);
    w.U64(a.size_words);
    w.U8(static_cast<uint8_t>(a.state));
    w.U64(a.alloc_seq);
  }
  w.U64(dump.heap_next_free);
  w.U64(dump.heap_next_seq);

  // Error log.
  w.U64(dump.error_log.size());
  for (const ErrorLogEntry& e : dump.error_log) {
    w.U32(e.thread);
    WritePc(&w, e.pc);
    w.I64(e.channel);
    w.I64(e.value);
    w.U32(e.message);
  }
  return w.Take();
}

RES_FAULT_SITE(kFaultDeserialize, "coredump.deserialize",
               StatusCode::kDataLoss);

Result<Coredump> DeserializeCoredump(const std::vector<uint8_t>& bytes,
                                     const FaultScope& faults,
                                     const Module* module) {
  RES_RETURN_IF_ERROR(faults.Check(kFaultDeserialize));
  WireReader r(bytes);
  uint64_t magic;
  uint32_t version;
  if (!r.U64(&magic) || magic != kMagic) {
    return DataLoss("bad coredump magic");
  }
  if (!r.U32(&version) || version != kVersion) {
    return DataLoss("unsupported coredump version");
  }
  Coredump dump;

  uint8_t kind;
  if (!r.U8(&kind) || !r.U32(&dump.trap.thread) ||
      !ReadPc(&r, &dump.trap.pc) || !r.U64(&dump.trap.address) ||
      !r.Str(&dump.trap.message)) {
    return DataLoss("truncated trap record");
  }
  dump.trap.kind = static_cast<TrapKind>(kind);

  uint8_t has_memory;
  uint64_t word_count;
  if (!r.U8(&has_memory) || !r.U64(&word_count)) {
    return DataLoss("truncated memory header");
  }
  if (!r.FitsRemaining(word_count, 16)) {
    return DataLoss("memory image larger than payload");
  }
  dump.has_memory = has_memory != 0;
  // Pages are built only after the heap table, once CheckMemoryImage has
  // placed every word.
  std::vector<MemoryWord> words(word_count);
  for (auto& [addr, value] : words) {
    if (!r.U64(&addr) || !r.I64(&value)) {
      return DataLoss("truncated memory image");
    }
  }

  uint64_t thread_count;
  if (!r.U64(&thread_count)) {
    return DataLoss("truncated thread table");
  }
  if (!r.FitsRemaining(thread_count, 21)) {
    return DataLoss("thread table larger than payload");
  }
  for (uint64_t i = 0; i < thread_count; ++i) {
    ThreadDump t;
    uint8_t state;
    uint64_t frame_count;
    if (!r.U32(&t.id) || !r.U8(&state) || !r.U64(&t.blocked_on) ||
        !r.U64(&frame_count)) {
      return DataLoss("truncated thread record");
    }
    if (!r.FitsRemaining(frame_count, 24)) {
      return DataLoss("frame table larger than payload");
    }
    t.state = static_cast<ThreadState>(state);
    for (uint64_t j = 0; j < frame_count; ++j) {
      Frame f;
      uint32_t result_reg;
      uint64_t reg_count;
      if (!r.U32(&f.func) || !r.U32(&f.block) || !r.U32(&f.index) ||
          !r.U32(&result_reg) || !r.U64(&reg_count)) {
        return DataLoss("truncated frame record");
      }
      if (!r.FitsRemaining(reg_count, 8)) {
        return DataLoss("register file larger than payload");
      }
      f.caller_result_reg = static_cast<RegId>(result_reg);
      f.regs.resize(reg_count);
      for (uint64_t k = 0; k < reg_count; ++k) {
        if (!r.I64(&f.regs[k])) {
          return DataLoss("truncated register file");
        }
      }
      t.frames.push_back(std::move(f));
    }
    uint64_t lbr_count;
    if (!r.U64(&lbr_count)) {
      return DataLoss("truncated LBR record");
    }
    if (!r.FitsRemaining(lbr_count, 24)) {
      return DataLoss("LBR ring larger than payload");
    }
    for (uint64_t j = 0; j < lbr_count; ++j) {
      BranchRecord b;
      if (!ReadPc(&r, &b.source) || !ReadPc(&r, &b.dest)) {
        return DataLoss("truncated LBR entry");
      }
      t.lbr.push_back(b);
    }
    dump.threads.push_back(std::move(t));
  }

  uint64_t alloc_count;
  if (!r.U64(&alloc_count)) {
    return DataLoss("truncated heap table");
  }
  if (!r.FitsRemaining(alloc_count, 25)) {
    return DataLoss("heap table larger than payload");
  }
  for (uint64_t i = 0; i < alloc_count; ++i) {
    Allocation a;
    uint8_t state;
    if (!r.U64(&a.base) || !r.U64(&a.size_words) || !r.U8(&state) ||
        !r.U64(&a.alloc_seq)) {
      return DataLoss("truncated allocation record");
    }
    a.state = static_cast<AllocState>(state);
    dump.heap_allocations.push_back(a);
  }
  if (!r.U64(&dump.heap_next_free) || !r.U64(&dump.heap_next_seq)) {
    return DataLoss("truncated heap cursor");
  }
  RES_RETURN_IF_ERROR(CheckMemoryImage(words, dump.has_memory,
                                       dump.heap_allocations, module));
  for (const auto& [addr, value] : words) {
    dump.memory.WriteWordUnchecked(addr, value);
  }

  uint64_t log_count;
  if (!r.U64(&log_count)) {
    return DataLoss("truncated error log");
  }
  if (!r.FitsRemaining(log_count, 36)) {
    return DataLoss("error log larger than payload");
  }
  for (uint64_t i = 0; i < log_count; ++i) {
    ErrorLogEntry e;
    if (!r.U32(&e.thread) || !ReadPc(&r, &e.pc) || !r.I64(&e.channel) ||
        !r.I64(&e.value) || !r.U32(&e.message)) {
      return DataLoss("truncated error log entry");
    }
    dump.error_log.push_back(e);
  }
  if (!r.AtEnd()) {
    return DataLoss("trailing bytes after coredump");
  }
  return dump;
}

}  // namespace res
