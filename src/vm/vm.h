// The resvm concrete interpreter.
//
// Executes a verified Module one instruction at a time under sequential
// consistency, fetching from its predecoded lowering (src/vm/predecode.h).
// One interpreter loop, RunBounded, holds both the scheduling and the
// handlers, dispatched direct-threaded (computed goto); a thread runs op
// after op in place for as many steps as its scheduler picked and granted
// it. A pluggable Scheduler interleaves threads, a pluggable InputProvider
// supplies environment values, and an optional Recorder observes the run
// (the record-replay baselines, and tests' ground truth). On failure the
// VM freezes with full state (memory, heap metadata, all thread stacks,
// LBR rings, error log) ready for coredump capture. docs/ARCHITECTURE.md
// §12.
#ifndef RES_VM_VM_H_
#define RES_VM_VM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/ir/module.h"
#include "src/support/status.h"
#include "src/vm/address_space.h"
#include "src/vm/breadcrumbs.h"
#include "src/vm/heap.h"
#include "src/vm/input.h"
#include "src/vm/predecode.h"
#include "src/vm/recorder.h"
#include "src/vm/scheduler.h"
#include "src/vm/thread.h"
#include "src/vm/trap.h"

namespace res {

struct VmOptions {
  uint64_t max_steps = 50'000'000;
};

enum class RunOutcome : uint8_t {
  kHalted = 0,         // main thread exited normally
  kTrapped = 1,        // failure trap (see TrapInfo)
  kStepLimit = 2,      // budget exhausted
  kScheduleDiverged = 3,  // the scheduler's Pick returned kDiverged
};

struct RunResult {
  RunOutcome outcome = RunOutcome::kHalted;
  TrapInfo trap;
  uint64_t steps = 0;
};

class Vm {
 public:
  explicit Vm(const Module* module, VmOptions options = {});

  // Non-owning collaborators; defaults: round-robin scheduler, zero inputs.
  // A new scheduler makes the next step a Pick.
  void set_scheduler(Scheduler* s) {
    scheduler_ = s;
    turn_length_ = turn_left_ = 0;
  }
  void set_input_provider(InputProvider* p) { inputs_ = p; }
  void set_recorder(Recorder* r) { recorder_ = r; }

  // Shares an already-built lowering (e.g. the one cached in
  // ResRuntime::ModuleFacts) instead of building one at Reset or
  // RestoreForReplay; call it before them. The lowering must have been
  // built from this VM's module and must outlive the VM. Non-owning.
  void set_predecoded(const PredecodedModule* pm) { predecoded_ = pm; }

  // (Re)initializes globals and the main thread. Must be called before Run
  // unless RestoreForReplay was used.
  Status Reset();

  // Replaces execution state wholesale (replay of a synthesized suffix).
  void RestoreForReplay(AddressSpace memory, Heap heap, std::vector<Thread> threads);

  // Runs until halt/trap/limit.
  RunResult Run();

  // Runs at most `steps` further instructions (incremental driving, used by
  // the debugger and the fault injector). Returns the same result kinds;
  // kStepLimit means "still running". Slicing a run into several calls
  // changes nothing observable: a turn carries across them.
  RunResult RunBounded(uint64_t steps);

  // --- State inspection (coredump capture, tests, debugger). ---
  const Module& module() const { return *module_; }
  const AddressSpace& memory() const { return memory_; }
  AddressSpace* mutable_memory() { return &memory_; }
  const Heap& heap() const { return heap_; }
  const std::vector<Thread>& threads() const { return threads_; }
  const TrapInfo& trap() const { return trap_; }
  const ErrorLog& error_log() const { return error_log_; }
  const LbrRing& lbr(uint32_t tid) const { return lbr_[tid]; }
  uint64_t steps() const { return steps_; }

 private:
  // Builds the owned lowering unless a shared PredecodedModule was provided.
  void EnsurePredecoded();

  void RaiseTrap(TrapKind kind, uint32_t tid, const Pc& pc, uint64_t address,
                 std::string message);

  // Memory access with heap poisoning checks for thread `tid` at frame `f`'s
  // pc. On failure raises a trap and returns false. Inline in vm.cc: an
  // access that succeeds builds no status.
  bool CheckedRead(uint32_t tid, const Frame& f, uint64_t addr, int64_t* out);
  bool CheckedWrite(uint32_t tid, const Frame& f, uint64_t addr, int64_t value);
  // Raises the trap of an access CheckedRead/CheckedWrite refused: the
  // heap's verdict first, then the address space's error.
  [[gnu::cold, gnu::noinline]] void RaiseMemoryTrap(uint32_t tid, const Frame& f,
                                                    uint64_t addr, bool is_write);

  void RecordBranch(uint32_t tid, const Pc& source, FuncId dfunc, BlockId dblock);
  void EnterBlock(uint32_t tid, FuncId func, BlockId block);
  // These change thread states, so they mark the runnable set stale.
  void WakeLockWaiters(uint64_t mutex_addr);
  void WakeJoiners(uint32_t exited_tid);
  void ThreadExit(uint32_t tid, int64_t value);

  const Module* module_;
  VmOptions options_;

  AddressSpace memory_;
  Heap heap_;
  std::vector<Thread> threads_;
  std::vector<LbrRing> lbr_;
  ErrorLog error_log_;
  TrapInfo trap_;
  bool stopped_ = false;
  bool main_exited_ = false;
  uint64_t steps_ = 0;
  uint32_t current_tid_ = 0;

  const PredecodedModule* predecoded_ = nullptr;  // non-owning when shared
  std::unique_ptr<PredecodedModule> owned_predecoded_;

  // The runnable tids, ascending; rebuilt only after a thread changed state.
  std::vector<uint32_t> runnable_;
  bool runnable_stale_ = true;
  // The current turn: the step Pick chose current_tid_ for plus the steps
  // the scheduler granted after it. A runnable-set change ends it early;
  // otherwise it carries across RunBounded calls.
  uint64_t turn_length_ = 0;
  uint64_t turn_left_ = 0;

  RoundRobinScheduler default_scheduler_;
  Scheduler* scheduler_;
  InputProvider* inputs_ = nullptr;  // null => every input reads 0
  Recorder* recorder_ = nullptr;
};

}  // namespace res

#endif  // RES_VM_VM_H_
