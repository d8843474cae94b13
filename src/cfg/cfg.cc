#include "src/cfg/cfg.h"

#include <cassert>

namespace res {

ModuleCfg ModuleCfg::Build(const Module& module) {
  ModuleCfg cfg;
  cfg.module_ = &module;

  size_t total_blocks = 0;
  cfg.block_offset_.resize(module.functions().size());
  for (const Function& fn : module.functions()) {
    cfg.block_offset_[fn.id] = total_blocks;
    total_blocks += fn.blocks.size();
  }
  cfg.preds_.resize(total_blocks);
  // Per function: blocks ending in kRet, call sites (blocks ending in a
  // kCall to it) and kSpawn locations targeting it.
  std::vector<std::vector<BlockId>> return_blocks(module.functions().size());
  std::vector<std::vector<BlockRef>> call_sites(module.functions().size());
  std::vector<std::vector<Pc>> spawn_sites(module.functions().size());

  // Intra-function branch edges + call/return/spawn site collection.
  for (const Function& fn : module.functions()) {
    for (BlockId b = 0; b < fn.blocks.size(); ++b) {
      const BasicBlock& bb = fn.blocks[b];
      BlockRef here{fn.id, b};
      // Spawn sites can appear anywhere in a block.
      for (uint32_t i = 0; i < bb.instructions.size(); ++i) {
        const Instruction& inst = bb.instructions[i];
        if (inst.op == Opcode::kSpawn) {
          spawn_sites[inst.callee].push_back(Pc{fn.id, b, i});
        }
      }
      const Instruction& term = bb.terminator();
      switch (term.op) {
        case Opcode::kBr: {
          BlockRef to{fn.id, term.target0};
          cfg.preds_[cfg.Index(to)].push_back(
              PredEdge{PredKind::kLocalBranch, here, -1, {}, {}});
          break;
        }
        case Opcode::kCondBr: {
          BlockRef t{fn.id, term.target0};
          BlockRef f{fn.id, term.target1};
          cfg.preds_[cfg.Index(t)].push_back(
              PredEdge{PredKind::kLocalBranch, here, 0, {}, {}});
          cfg.preds_[cfg.Index(f)].push_back(
              PredEdge{PredKind::kLocalBranch, here, 1, {}, {}});
          break;
        }
        case Opcode::kCall: {
          call_sites[term.callee].push_back(here);
          break;
        }
        case Opcode::kRet: {
          return_blocks[fn.id].push_back(b);
          break;
        }
        case Opcode::kHalt:
          break;
        default:
          assert(false && "non-terminator at block end; module not verified");
      }
    }
  }

  // Interprocedural edges.
  for (const Function& callee : module.functions()) {
    BlockRef entry{callee.id, 0};
    for (const BlockRef& site : call_sites[callee.id]) {
      // callee entry <- call site
      cfg.preds_[cfg.Index(entry)].push_back(
          PredEdge{PredKind::kCallEntry, site, -1, {}, {}});

      // call continuation <- callee return blocks
      const Function& caller = module.function(site.func);
      const Instruction& call = caller.blocks[site.block].terminator();
      BlockRef cont{site.func, call.target0};
      for (BlockId rb : return_blocks[callee.id]) {
        BlockRef ret_block{callee.id, rb};
        cfg.preds_[cfg.Index(cont)].push_back(
            PredEdge{PredKind::kReturn, ret_block, -1, site, {}});
      }
    }
    for (const Pc& spawn : spawn_sites[callee.id]) {
      cfg.preds_[cfg.Index(entry)].push_back(
          PredEdge{PredKind::kSpawnEntry, BlockRef{spawn.func, spawn.block}, -1, {},
                   spawn});
    }
  }
  return cfg;
}

const std::vector<PredEdge>& ModuleCfg::Predecessors(BlockRef b) const {
  return preds_[Index(b)];
}

}  // namespace res
