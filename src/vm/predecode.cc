#include "src/vm/predecode.h"

namespace res {

PredecodedModule PredecodedModule::Build(const Module& module) {
  PredecodedModule pm;
  const std::vector<Function>& funcs = module.functions();
  pm.funcs_.resize(funcs.size());
  pm.ops_.reserve(module.TotalInstructionCount());
  for (size_t fi = 0; fi < funcs.size(); ++fi) {
    PredecodedFunction& pf = pm.funcs_[fi];
    pf.first_op = static_cast<uint32_t>(pm.ops_.size());
    pf.block_first_op.reserve(funcs[fi].blocks.size());
    for (const BasicBlock& bb : funcs[fi].blocks) {
      pf.block_first_op.push_back(
          static_cast<uint32_t>(pm.ops_.size()) - pf.first_op);
      for (const Instruction& inst : bb.instructions) {
        DecodedOp op;
        op.raw_op = static_cast<uint8_t>(inst.op);
        op.rd = inst.rd;
        op.ra = inst.ra;
        op.rb = inst.rb;
        op.rc = inst.rc;
        op.imm = inst.imm;
        op.target0 = inst.target0;
        op.target1 = inst.target1;
        op.callee = inst.callee;
        if (inst.callee < funcs.size()) {
          op.callee_num_regs = funcs[inst.callee].num_regs;
        }
        op.str_id = inst.str_id;
        if (!inst.args.empty()) {
          op.arg_begin = static_cast<uint32_t>(pm.arg_pool_.size());
          op.arg_count = static_cast<uint16_t>(inst.args.size());
          pm.arg_pool_.insert(pm.arg_pool_.end(), inst.args.begin(),
                              inst.args.end());
        }
        pm.ops_.push_back(op);
      }
    }
  }
  return pm;
}

}  // namespace res
