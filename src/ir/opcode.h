// Opcode set of the resvm IR.
//
// The IR is a register machine over 64-bit words: each function has a file of
// virtual registers; memory is the shared byte-addressed space of layout.h.
// Blocks are straight-line; the only control transfer is the terminator
// (kBr/kCondBr/kCall/kRet/kHalt), which is what makes block-at-a-time reverse
// execution (the RES core loop) well-defined.
#ifndef RES_IR_OPCODE_H_
#define RES_IR_OPCODE_H_

#include <cstdint>
#include <string_view>

namespace res {

enum class Opcode : uint8_t {
  // Data movement / arithmetic (rd <- op(ra, rb) unless noted).
  kConst,    // rd <- imm
  kMov,      // rd <- ra
  kAdd,
  kSub,
  kMul,
  kDivS,     // signed division; traps on divisor 0 or INT64_MIN/-1
  kRemS,     // signed remainder; traps on divisor 0
  kAnd,
  kOr,
  kXor,
  kShl,      // shift amount taken mod 64
  kShrL,     // logical right shift
  kShrA,     // arithmetic right shift
  kCmpEq,    // rd <- (ra == rb) ? 1 : 0
  kCmpNe,
  kCmpLtS,
  kCmpLeS,
  kCmpLtU,
  kCmpLeU,
  kSelect,   // rd <- rc ? ra : rb

  // Memory. Effective address = ra + imm; must be mapped and word-aligned.
  kLoad,     // rd <- mem[ra + imm]
  kStore,    // mem[ra + imm] <- rb

  // Heap.
  kAlloc,    // rd <- address of fresh allocation of ra bytes (word-rounded)
  kFree,     // releases allocation starting at ra; traps on double free

  // Environment.
  kInput,    // rd <- next external input on channel imm (symbolic in RES)
  kOutput,   // emit ra on channel imm; also appended to the error-log breadcrumbs

  // Synchronization. A mutex is a word in memory: 0 = free, tid+1 = held.
  kLock,     // blocks until mem[ra] == 0, then mem[ra] <- tid+1 (atomically)
  kUnlock,   // requires mem[ra] == tid+1; mem[ra] <- 0
  kAtomicRmwAdd,  // rd <- mem[ra]; mem[ra] <- rd + rb  (atomic)

  // Threads.
  kSpawn,    // rd <- new thread id, running callee(ra)
  kJoin,     // blocks until thread ra has exited

  // Checks.
  kAssert,   // traps (assertion failure, message str_id) if rc == 0
  kYield,    // scheduling hint; no state change
  kNop,

  // Terminators.
  kBr,       // jump to target0
  kCondBr,   // jump to (rc != 0 ? target0 : target1)
  kCall,     // call callee(args...); on return, rd <- result, continue at target0
  kRet,      // return ra (or 0 if no operand) to the caller
  kHalt,     // thread exits (main thread: program exits)
};

std::string_view OpcodeName(Opcode op);

// True for kBr/kCondBr/kCall/kRet/kHalt — the only legal last instructions.
bool IsTerminator(Opcode op);

// True for the three-operand ALU ops rd <- ra (op) rb.
bool IsBinaryAlu(Opcode op);

// Parses an opcode name; returns false if unknown.
bool ParseOpcode(std::string_view name, Opcode* out);

}  // namespace res

#endif  // RES_IR_OPCODE_H_
