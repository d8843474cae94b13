// The VM's execution stream: a one-time lowering of a verified Module into
// a dense, cache-friendly instruction array.
//
// A Module resolves function -> block -> instruction through three vector
// indirections into a ~100-byte, vector-bearing Instruction.
// PredecodedModule flattens every function into one contiguous array of
// fixed-size POD DecodedOps, and keeps call argument lists in a shared
// operand pool, so the interpreter's hot loop touches no std::vector. The
// VM still addresses ops by Pc (function, block, index), so traps,
// breadcrumbs, LBR records, block traces and coredumps speak Pc.
//
// Lowering is total and never fails: unknown opcode bytes are preserved
// verbatim for the VM's invalid-opcode trap. docs/ARCHITECTURE.md §12.
#ifndef RES_VM_PREDECODE_H_
#define RES_VM_PREDECODE_H_

#include <cstdint>
#include <vector>

#include "src/ir/module.h"

namespace res {

// One lowered instruction. Fixed-size POD: everything the hot loop needs is
// inline; variable-length call args are (arg_begin, arg_count) into the
// module-wide operand pool.
struct DecodedOp {
  uint8_t raw_op = 0;     // the Opcode byte, preserved even when out of range
  RegId rd = kNoReg;
  RegId ra = kNoReg;
  RegId rb = kNoReg;
  RegId rc = kNoReg;
  uint16_t arg_count = 0;        // kCall argument count
  uint16_t callee_num_regs = 0;  // kCall/kSpawn callee register-file size
  int64_t imm = 0;
  BlockId target0 = kNoBlock;    // kBr target / kCondBr true / kCall continuation
  BlockId target1 = kNoBlock;    // kCondBr false-target
  FuncId callee = kNoFunc;       // kCall / kSpawn callee
  uint32_t arg_begin = 0;        // offset into the operand pool
  StrId str_id = kNoStr;

  Opcode op() const { return static_cast<Opcode>(raw_op); }
};

// Per-function layout: block b's ops start at absolute index
// first_op + block_first_op[b].
struct PredecodedFunction {
  uint32_t first_op = 0;
  std::vector<uint32_t> block_first_op;
};

class PredecodedModule {
 public:
  // Lowers `module`. Never fails.
  static PredecodedModule Build(const Module& module);

  const DecodedOp* ops() const { return ops_.data(); }
  size_t op_count() const { return ops_.size(); }
  const PredecodedFunction& function(FuncId f) const { return funcs_[f]; }
  const RegId* args(const DecodedOp& op) const {
    return arg_pool_.data() + op.arg_begin;
  }

 private:
  std::vector<DecodedOp> ops_;
  std::vector<PredecodedFunction> funcs_;
  std::vector<RegId> arg_pool_;
};

}  // namespace res

#endif  // RES_VM_PREDECODE_H_
