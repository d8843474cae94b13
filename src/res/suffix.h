// The synthesized execution suffix — RES's output artifact (paper §2.1).
//
// A SynthesizedSuffix is <T_i, M_i>: the instruction trace (as a sequence of
// block-granular units with a thread schedule and concrete inputs) plus the
// partial memory image / stacks to start from (the constrained symbolic
// snapshot, concretized through the solver model). Executing the suffix from
// that state deterministically reproduces the coredump.
#ifndef RES_RES_SUFFIX_H_
#define RES_RES_SUFFIX_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cfg/cfg.h"
#include "src/ir/module.h"
#include "src/res/snapshot.h"
#include "src/symbolic/expr.h"

namespace res {

// One dynamic memory access inside the suffix, with its concretized address.
struct MemAccess {
  Pc pc;
  uint32_t tid = 0;
  uint64_t addr = 0;
  bool is_write = false;
  bool is_sync = false;      // lock/unlock/atomic — never counts as racy
  // Static base object of the address expression when the address was NOT a
  // plain constant (affine form base+k*sym). 0 when the address was concrete
  // from the start. A mismatch between the object containing `symbolic_base`
  // and the object containing `addr` is the buffer-overflow witness.
  uint64_t symbolic_base = 0;
  bool address_was_symbolic = false;
  // The address expression depended on an external-input variable — the
  // attacker-controlled-pointer signal used for exploitability rating.
  bool address_input_tainted = false;
};

// A lock or unlock performed inside a unit, with its instruction index so
// lockset analysis sees the true acquisition order.
struct LockOp {
  uint64_t mutex = 0;
  bool is_lock = false;
  uint32_t index = 0;
};

// Heap / thread lifecycle events inside a unit.
enum class UnitEventKind : uint8_t { kAlloc, kFree, kSpawn, kJoin, kOutput, kInput };

struct UnitEvent {
  UnitEventKind kind;
  Pc pc;
  uint64_t value = 0;  // alloc/free base, spawned/joined tid
  const Expr* expr = nullptr;  // input variable / output value expression
};

// One block-granular element of the suffix: thread `tid` executed
// instructions [0, end_index) of `block` (end_index == block size means the
// terminator ran too; smaller values occur only for the trailing partial
// blocks of threads that were preempted or trapped mid-block).
struct SuffixUnit {
  uint32_t tid = 0;
  BlockRef block;
  uint32_t end_index = 0;
  bool includes_terminator = false;
  std::vector<MemAccess> accesses;
  std::vector<UnitEvent> events;
  std::vector<LockOp> lock_ops;
};

// Immutable, structurally-shared suffix spine. Every hypothesis of the
// reverse engine appends one SuffixUnit per backward step and shares the
// rest of the chain with its parent, so forking copies a shared_ptr instead
// of the whole unit vector. The head is the deepest unit — the one furthest
// from the crash, i.e. the FIRST in execution order; walking `prev` moves
// toward the crash. The incremental root-cause detector folds over exactly
// this chain (src/res/root_cause.h), so it lives here rather than inside
// the engine.
struct SuffixChainNode {
  SuffixUnit unit;
  std::shared_ptr<const SuffixChainNode> prev;  // toward the crash
  size_t depth = 1;  // chain length including this node
};
using SuffixChainPtr = std::shared_ptr<const SuffixChainNode>;

// Returns the new head after appending `unit` as the new deepest element.
SuffixChainPtr ExtendSuffixChain(SuffixChainPtr head, SuffixUnit unit);

// Borrowed execution-order view of the chain (head first). The chain must
// outlive the returned pointers.
std::vector<const SuffixUnit*> SuffixChainUnits(const SuffixChainNode* head);

struct SynthesizedSuffix {
  std::vector<SuffixUnit> units;        // forward (execution) order
  SymSnapshot initial_state;            // M_i, symbolic form
  Assignment model;                     // concrete witness for all variables
  std::vector<const Expr*> constraints; // the path/match condition
  bool verified = false;                // solver proved SAT (vs unknown)

  size_t TotalInstructions() const {
    size_t n = 0;
    for (const SuffixUnit& u : units) {
      n += u.end_index;
    }
    return n;
  }
};

// Instruction-count schedule slices for deterministic replay (consumed by
// SliceScheduler). Built from the unit sequence plus one extra step for the
// trap instruction / each blocked thread's final lock attempt.
struct ScheduleSlice {
  uint32_t tid = 0;
  uint64_t steps = 0;
};

std::vector<ScheduleSlice> BuildSchedule(const Module& module, const Coredump& dump,
                                         const SynthesizedSuffix& suffix);

// §3.3: "RES automatically focuses developers' attention on the recently
// read or written state". Addresses touched by the suffix.
struct ReadWriteSets {
  std::set<uint64_t> reads;
  std::set<uint64_t> writes;
};
ReadWriteSets ComputeReadWriteSets(const SynthesizedSuffix& suffix);

// Debug rendering of the suffix (one line per unit).
std::string SuffixToString(const Module& module, const SynthesizedSuffix& suffix);

}  // namespace res

#endif  // RES_RES_SUFFIX_H_
