// Symbolic snapshots (paper §2.3).
//
// A SymSnapshot is "a mix of known, concrete values and currently unknown,
// symbolic values": the hypothesized machine state at the *start* of the
// execution suffix inferred so far. Concrete content comes from the coredump
// (the suffix-end state); every location the suffix overwrites has been
// replaced by a symbolic variable, possibly constrained by the matching
// conditions the reverse engine collected.
//
// Memory is represented as the coredump image plus a copy-on-write overlay
// of symbolic words; thread stacks hold expression-valued registers; heap
// metadata is rewound alongside (an allocation that happens inside the
// suffix is kUnallocated in the snapshot). The overlay, the thread stacks
// and the heap table are structured so that forking a hypothesis (which
// copies its snapshot) is O(delta), not O(state): the overlay freezes its
// writes into shared immutable layers, and each thread and the heap map are
// shared until a fork mutates them.
#ifndef RES_RES_SNAPSHOT_H_
#define RES_RES_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/coredump/coredump.h"
#include "src/ir/module.h"
#include "src/support/persistent.h"
#include "src/symbolic/expr.h"

namespace res {

struct SymFrame {
  FuncId func = kNoFunc;
  BlockId block = 0;
  uint32_t index = 0;
  std::vector<const Expr*> regs;
  RegId caller_result_reg = kNoReg;

  Pc pc() const { return Pc{func, block, index}; }
};

struct SymThread {
  uint32_t id = 0;
  ThreadState dump_state = ThreadState::kRunnable;
  uint64_t blocked_on = 0;
  std::vector<SymFrame> frames;  // back() = active frame at snapshot time
  // True once the thread's partial trailing block has been absorbed into the
  // suffix (the first backward step for every live thread).
  bool partial_done = false;
  // True when the thread has been rewound to its creation (spawn or program
  // start): no further units can be attributed to it.
  bool at_birth = false;
  // True when a reversed kSpawn has claimed this thread's creation.
  bool spawn_linked = false;
  // Threads that were already exited at the coredump are opaque to the
  // engine (their stacks are gone); they contribute no units.
  bool opaque = false;
  // Breadcrumbs of this thread the suffix has not consumed yet: LBR ring
  // entries and error-log entries, each oldest first.
  size_t lbr_remaining = 0;
  size_t errlog_remaining = 0;

  bool Reversible() const { return !at_birth && !opaque && !frames.empty(); }
};

// Rewound allocation state. kUnallocated means "does not exist yet at
// snapshot time" (its kAlloc lies inside the suffix).
enum class SnapAllocState : uint8_t { kAllocated, kFreed, kUnallocated };

struct SnapAlloc {
  uint64_t base = 0;
  uint64_t size_words = 0;
  uint64_t alloc_seq = 0;
  SnapAllocState state = SnapAllocState::kAllocated;
};

// Copy-on-write address -> expression map. Writes land in a small private
// delta; once the delta grows past a threshold it is frozen into an
// immutable layer shared (by shared_ptr) with every copy taken afterwards.
// Copying a CowOverlay therefore costs O(delta) — at most the freeze
// threshold — instead of O(total overlay), which is what makes hypothesis
// fan-out in the reverse engine cheap at depth. The layering itself is the
// generic PersistentMap (src/support/persistent.h); this wrapper fixes the
// key/value types and keeps Find's historical nullptr-on-absent contract.
//
// Thread-safety: frozen layers are immutable and reference-counted through
// std::shared_ptr, whose control-block refcount updates are atomic — so any
// number of threads may concurrently copy overlays that share layers, read
// through them (Find/ForEach), and drop copies. The private delta is NOT
// synchronized: Set requires that the writing thread exclusively owns this
// particular CowOverlay copy (the reverse engine guarantees it — each
// engine step mutates only the hypothesis it owns; shared ancestors are
// frozen and read-only).
class CowOverlay {
 public:
  // Value stored for `addr`, or nullptr when the address is absent.
  const Expr* Find(uint64_t addr) const {
    const Expr* const* v = map_.Find(addr);
    return v != nullptr ? *v : nullptr;
  }

  void Set(uint64_t addr, const Expr* value) { map_.Set(addr, value); }

  // Visits every live (address, value) pair exactly once, newest layer wins.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    map_.ForEach([&fn](uint64_t addr, const Expr* value) { fn(addr, value); });
  }

  // Number of distinct addresses (counts shadowed writes once).
  size_t DistinctCount() const { return map_.DistinctCount(); }

 private:
  PersistentMap<uint64_t, const Expr*> map_;
};

class SymSnapshot {
 public:
  using HeapMap = std::map<uint64_t, SnapAlloc>;

  // Builds the base-case snapshot: an exact, fully concrete copy of the
  // coredump (paper §2.4: "Spost is initialized with a copy of the
  // coredump C").
  static SymSnapshot FromCoredump(const Module& module, const Coredump& dump,
                                  ExprPool* pool);

  // Memory word at snapshot time: overlay expression, else the concrete
  // coredump value, else nullptr (word does not exist in the dump).
  const Expr* ReadMem(ExprPool* pool, uint64_t addr) const;
  void WriteMem(uint64_t addr, const Expr* value) { overlay_.Set(addr, value); }
  const CowOverlay& overlay() const { return overlay_; }

  // Thread stacks, indexed by thread id. Reads share each SymThread across
  // snapshot copies; MutableThread clones that one thread first if any
  // other snapshot still shares it, so a fork that changes one thread
  // copies one thread.
  size_t thread_count() const { return threads_.size(); }
  const SymThread& thread(size_t tid) const { return *threads_[tid]; }
  SymThread& MutableThread(size_t tid) {
    std::shared_ptr<SymThread>& t = threads_[tid];
    if (t.use_count() != 1) {
      t = std::make_shared<SymThread>(*t);
    }
    return *t;
  }

  // Heap metadata. Reads share the table across snapshot copies; the
  // mutable accessor clones it first if any other snapshot still shares it.
  //
  // Thread-safety (threads and heap alike): safe under the engine's
  // ownership protocol — the hypotheses of one engine run live on one
  // thread, a shared object is never mutated (a writer clones first),
  // concurrent cloners only read it, and use_count() can only report a
  // stale value in benign directions (a false "shared" triggers a redundant
  // clone; a false "exclusive" is impossible while other owners exist).
  const HeapMap& heap() const { return *heap_; }
  HeapMap& MutableHeap() {
    if (heap_.use_count() != 1) {
      heap_ = std::make_shared<HeapMap>(*heap_);
    }
    return *heap_;
  }

  // Allocation covering addr, if any.
  const SnapAlloc* FindAlloc(uint64_t addr) const;

 private:
  const Coredump* dump_ = nullptr;  // not owned; source of concrete words
  CowOverlay overlay_;
  std::vector<std::shared_ptr<SymThread>> threads_;
  std::shared_ptr<HeapMap> heap_ = std::make_shared<HeapMap>();
};

}  // namespace res

#endif  // RES_RES_SNAPSHOT_H_
