// Control-flow graph construction and backward-navigation edges.
//
// RES navigates the CFG *backward* from the failure PC (paper §2.3). This
// module precomputes, for every block, the set of predecessor edges —
// including the interprocedural ones (function entry reached from a call
// site or a spawn; call continuation reached from a callee's return block).
#ifndef RES_CFG_CFG_H_
#define RES_CFG_CFG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/ir/module.h"
#include "src/support/status.h"

namespace res {

struct BlockRef {
  FuncId func = kNoFunc;
  BlockId block = kNoBlock;

  bool operator==(const BlockRef&) const = default;
  bool operator<(const BlockRef& o) const {
    return func != o.func ? func < o.func : block < o.block;
  }
};

enum class PredKind : uint8_t {
  kLocalBranch,  // pred ends with kBr or kCondBr targeting this block
  kCallEntry,    // this block is a function entry; pred ends with kCall to it
  kSpawnEntry,   // this block is a function entry; a kSpawn starts a thread here
  kReturn,       // this block is a kCall continuation; pred is a kRet block of the callee
};

// One way control can have arrived at the head of a block.
struct PredEdge {
  PredKind kind = PredKind::kLocalBranch;
  BlockRef pred;        // block whose terminator transferred control here
  // For kLocalBranch from a kCondBr: 0 if this block is target0 (condition
  // true), 1 if target1 (false). -1 for unconditional br.
  int cond_edge = -1;
  // For kReturn: the caller-side block whose kCall's continuation this is.
  BlockRef call_site;
  // For kSpawnEntry: the location of the kSpawn instruction.
  Pc spawn_site;
};

// Whole-module CFG with interprocedural predecessor edges.
class ModuleCfg {
 public:
  // Builds the CFG; the module must have passed VerifyModule.
  static ModuleCfg Build(const Module& module);

  const Module& module() const { return *module_; }

  const std::vector<PredEdge>& Predecessors(BlockRef b) const;

 private:
  ModuleCfg() = default;

  size_t Index(BlockRef b) const { return block_offset_[b.func] + b.block; }

  const Module* module_ = nullptr;
  std::vector<size_t> block_offset_;           // func -> flat index of its block 0
  std::vector<std::vector<PredEdge>> preds_;   // flat block index -> edges
};

}  // namespace res

#endif  // RES_CFG_CFG_H_
