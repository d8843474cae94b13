// Thread and activation-frame state.
#ifndef RES_VM_THREAD_H_
#define RES_VM_THREAD_H_

#include <cstdint>
#include <vector>

#include "src/ir/module.h"

namespace res {

// One activation record. Registers are the function's locals; together the
// frame stack is the thread's "call stack with an accurate stack" that the
// paper's RES prototype requires (§6).
struct Frame {
  FuncId func = kNoFunc;
  BlockId block = 0;
  uint32_t index = 0;           // next instruction to execute
  std::vector<int64_t> regs;
  // Where the caller resumes: the register receiving the return value (in the
  // caller frame) was stashed by the kCall. kNoReg discards the result.
  RegId caller_result_reg = kNoReg;

  Pc pc() const { return Pc{func, block, index}; }

  bool operator==(const Frame&) const = default;
};

enum class ThreadState : uint8_t {
  kRunnable = 0,
  kBlockedOnLock = 1,
  kBlockedOnJoin = 2,
  kExited = 3,
  // Replay-only: the thread's slot is reserved (it is created mid-suffix by
  // a kSpawn) but it does not exist yet. Never observed in normal runs.
  kUnborn = 4,
};

struct Thread {
  uint32_t id = 0;
  ThreadState state = ThreadState::kRunnable;
  std::vector<Frame> frames;    // back() is the active frame
  uint64_t blocked_on = 0;      // mutex address or joined tid
  int64_t exit_value = 0;

  bool runnable() const { return state == ThreadState::kRunnable; }
  Frame& top() { return frames.back(); }
  const Frame& top() const { return frames.back(); }
};

}  // namespace res

#endif  // RES_VM_THREAD_H_
