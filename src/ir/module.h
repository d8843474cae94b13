// Core IR data structures: Instruction, BasicBlock, Function, Module, Pc.
#ifndef RES_IR_MODULE_H_
#define RES_IR_MODULE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/ir/opcode.h"

namespace res {

using RegId = uint16_t;
using BlockId = uint32_t;
using FuncId = uint32_t;
using StrId = uint32_t;

inline constexpr RegId kNoReg = 0xffff;
inline constexpr BlockId kNoBlock = 0xffffffff;
inline constexpr FuncId kNoFunc = 0xffffffff;
inline constexpr StrId kNoStr = 0xffffffff;

// One IR instruction. Operand roles by opcode are documented in opcode.h.
struct Instruction {
  Opcode op = Opcode::kNop;
  RegId rd = kNoReg;  // destination register
  RegId ra = kNoReg;  // first source / address base
  RegId rb = kNoReg;  // second source / store value
  RegId rc = kNoReg;  // condition (kCondBr, kSelect, kAssert)
  int64_t imm = 0;    // immediate / address offset / channel id
  BlockId target0 = kNoBlock;  // kBr target, kCondBr true-target, kCall continuation
  BlockId target1 = kNoBlock;  // kCondBr false-target
  FuncId callee = kNoFunc;     // kCall / kSpawn callee
  std::vector<RegId> args;     // kCall arguments
  StrId str_id = kNoStr;       // kAssert / kOutput message

  bool operator==(const Instruction& other) const = default;
};

// Registers this instruction reads, in operand order.
std::vector<RegId> InstructionReadRegs(const Instruction& inst);

// The register this instruction writes at the point it executes, if any.
// Note: kCall's rd is written at the *continuation*, not at the call site;
// it is still reported here because the frame that resumes owns it.
std::optional<RegId> InstructionWrittenReg(const Instruction& inst);

// True if the instruction may write memory (kStore, kLock, kUnlock,
// kAtomicRmwAdd, kAlloc/kFree via heap metadata are excluded — metadata is
// modeled separately).
bool InstructionWritesMemory(const Instruction& inst);

// True if the instruction may read memory.
bool InstructionReadsMemory(const Instruction& inst);

struct BasicBlock {
  std::string name;
  std::vector<Instruction> instructions;

  const Instruction& terminator() const { return instructions.back(); }
};

struct Function {
  std::string name;
  FuncId id = kNoFunc;
  uint16_t num_params = 0;  // parameters arrive in registers 0..num_params-1
  uint16_t num_regs = 0;    // size of the virtual register file
  std::vector<BasicBlock> blocks;  // block 0 is the entry block

  const BasicBlock& block(BlockId b) const { return blocks[b]; }
};

struct GlobalVar {
  std::string name;
  uint64_t address = 0;       // assigned from kGlobalBase by the builder
  uint64_t size_words = 0;    // extent in 8-byte words
  std::vector<int64_t> init;  // initial word values (zero-padded to size_words)
};

// A program counter: a unique static location in the module.
struct Pc {
  FuncId func = kNoFunc;
  BlockId block = kNoBlock;
  uint32_t index = 0;  // instruction index within the block

  bool operator==(const Pc&) const = default;
  bool operator<(const Pc& o) const {
    if (func != o.func) return func < o.func;
    if (block != o.block) return block < o.block;
    return index < o.index;
  }
};

class Module {
 public:
  const std::vector<Function>& functions() const { return functions_; }
  const Function& function(FuncId id) const { return functions_[id]; }
  const std::vector<GlobalVar>& globals() const { return globals_; }
  const std::vector<std::string>& strings() const { return strings_; }
  FuncId entry() const { return entry_; }

  // Mutation API (used by the builder and the parser).
  FuncId AddFunction(Function fn);
  Function* mutable_function(FuncId id) { return &functions_[id]; }
  void AddGlobal(GlobalVar g) { globals_.push_back(std::move(g)); }
  StrId InternString(const std::string& s);
  void set_entry(FuncId f) { entry_ = f; }

  // Lookups.
  std::optional<FuncId> FindFunction(const std::string& name) const;
  const GlobalVar* FindGlobal(const std::string& name) const;
  const std::string& str(StrId id) const;

  // Next free global address (word-aligned), for layout by the builder.
  uint64_t NextGlobalAddress() const;

  // Human-readable "func.block[idx]" for diagnostics.
  std::string PcToString(const Pc& pc) const;

  // Total number of instructions across all functions (for stats).
  size_t TotalInstructionCount() const;

 private:
  std::vector<Function> functions_;
  std::vector<GlobalVar> globals_;
  std::vector<std::string> strings_;
  FuncId entry_ = kNoFunc;
};

}  // namespace res

#endif  // RES_IR_MODULE_H_
