#include "src/res/snapshot.h"

namespace res {

SymSnapshot SymSnapshot::FromCoredump(const Module& module, const Coredump& dump,
                                      ExprPool* pool) {
  SymSnapshot snap;
  snap.dump_ = &dump;
  for (const ThreadDump& td : dump.threads) {
    SymThread t;
    t.id = td.id;
    t.dump_state = td.state;
    t.blocked_on = td.blocked_on;
    for (const Frame& f : td.frames) {
      SymFrame sf;
      sf.func = f.func;
      sf.block = f.block;
      sf.index = f.index;
      sf.caller_result_reg = f.caller_result_reg;
      sf.regs.reserve(f.regs.size());
      for (int64_t v : f.regs) {
        sf.regs.push_back(pool->Const(v));
      }
      t.frames.push_back(std::move(sf));
    }
    if (td.state == ThreadState::kExited || t.frames.empty()) {
      t.opaque = true;
      t.at_birth = true;
      t.partial_done = true;
    } else if (t.frames.back().index == 0) {
      // Nothing of the current block has executed; there is no partial unit.
      t.partial_done = true;
    }
    snap.threads_.push_back(std::make_shared<SymThread>(std::move(t)));
  }
  HeapMap heap;
  for (const Allocation& a : dump.heap_allocations) {
    SnapAlloc sa;
    sa.base = a.base;
    sa.size_words = a.size_words;
    sa.alloc_seq = a.alloc_seq;
    sa.state = a.state == AllocState::kAllocated ? SnapAllocState::kAllocated
                                                 : SnapAllocState::kFreed;
    heap.emplace(sa.base, sa);
  }
  snap.heap_ = std::make_shared<HeapMap>(std::move(heap));
  return snap;
}

const Expr* SymSnapshot::ReadMem(ExprPool* pool, uint64_t addr) const {
  if (const Expr* e = overlay_.Find(addr)) {
    return e;
  }
  auto word = dump_->memory.ReadWord(addr);
  if (!word.ok()) {
    return nullptr;
  }
  return pool->Const(word.value());
}

const SnapAlloc* SymSnapshot::FindAlloc(uint64_t addr) const {
  const HeapMap& heap = *heap_;
  auto it = heap.upper_bound(addr);
  if (it == heap.begin()) {
    return nullptr;
  }
  --it;
  const SnapAlloc& a = it->second;
  if (addr >= a.base && addr < a.base + a.size_words * kWordSize) {
    return &a;
  }
  return nullptr;
}

}  // namespace res
