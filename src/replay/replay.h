// Deterministic replay of synthesized suffixes (paper §2.1: "a special
// environment is slipped underneath the debugger to instantiate M_i and
// replay T_i; to the developer it looks as if the program deterministically
// runs into the same failure").
//
// BuildReplayState concretizes the suffix's symbolic snapshot through the
// solver model into a VM-ready machine state; ReplaySuffix runs it under a
// SliceScheduler + ReplayInputProvider and verifies the resulting coredump
// against the original.
#ifndef RES_REPLAY_REPLAY_H_
#define RES_REPLAY_REPLAY_H_

#include <memory>
#include <string>

#include "src/coredump/coredump.h"
#include "src/ir/module.h"
#include "src/res/suffix.h"
#include "src/support/status.h"
#include "src/vm/input.h"
#include "src/vm/scheduler.h"
#include "src/vm/vm.h"

namespace res {

struct ReplayState {
  AddressSpace memory;
  Heap heap;
  std::vector<Thread> threads;
  std::vector<SliceScheduler::Slice> schedule;
  // Per-thread input values in consumption order.
  std::vector<std::pair<uint32_t, int64_t>> inputs;
};

// Concretizes <M_i, T_i> from the suffix; fails if the suffix references
// state the model cannot pin down.
Result<ReplayState> BuildReplayState(const Module& module, const Coredump& dump,
                                     const SynthesizedSuffix& suffix,
                                     ExprPool* pool);

struct ReplayOutcome {
  bool schedule_followed = false;  // the run did not end kScheduleDiverged
  bool trap_matches = false;       // same trap kind / pc / thread / address
  bool state_matches = false;      // memory + stacks + heap equal the dump
  RunResult run;
  Coredump replay_dump;
  std::string mismatch;            // first difference, for diagnostics
};

// End-to-end: build state, run, capture, compare. `pool` must be the engine
// pool that produced the suffix. `predecoded`, when non-null, must be the
// lowering of `module` (e.g. ResRuntime::ModuleFacts::predecoded); the VM
// shares it instead of lowering the module itself, so a daemon replaying
// many suffixes of one module lowers it once.
Result<ReplayOutcome> ReplaySuffix(const Module& module, const Coredump& dump,
                                   const SynthesizedSuffix& suffix, ExprPool* pool,
                                   const PredecodedModule* predecoded = nullptr);

// Structural comparison of two coredumps. Thread run-states are compared
// leniently (a thread at an uncompleted kLock and one already parked on it
// are the same moment); everything else is exact.
bool CompareCoredumps(const Module& module, const Coredump& expected,
                      const Coredump& actual, std::string* why);

}  // namespace res

#endif  // RES_REPLAY_REPLAY_H_
