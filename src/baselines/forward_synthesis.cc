#include "src/baselines/forward_synthesis.h"

#include <map>
#include <memory>
#include <vector>

#include "src/ir/layout.h"
#include "src/symbolic/expr.h"
#include "src/symbolic/solver.h"

namespace res {

namespace {

constexpr size_t kMaxStates = 100'000;    // frontier growth bound
constexpr size_t kAddressForkLimit = 8;   // symbolic-pointer fan-out
constexpr uint64_t kSolverSeed = 11;

struct FwdFrame {
  FuncId func = kNoFunc;
  BlockId block = 0;
  std::vector<const Expr*> regs;
  RegId caller_result_reg = kNoReg;
  BlockId continuation = kNoBlock;
};

struct FwdState {
  std::vector<FwdFrame> frames;
  std::map<uint64_t, const Expr*> memory;   // full memory (globals + heap)
  std::vector<const Expr*> constraints;
  uint64_t heap_next = kHeapBase;
  size_t path_blocks = 0;
};

class ForwardSearch {
 public:
  ForwardSearch(const Module& module, const Coredump& dump,
                const ForwardSynthOptions& options)
      : module_(module),
        dump_(dump),
        options_(options),
        solver_(&pool_, kSolverSeed) {}

  ForwardSynthResult Run() {
    ForwardSynthResult result;
    for (const Function& fn : module_.functions()) {
      for (const BasicBlock& bb : fn.blocks) {
        for (const Instruction& inst : bb.instructions) {
          if (inst.op == Opcode::kSpawn || inst.op == Opcode::kJoin ||
              inst.op == Opcode::kLock || inst.op == Opcode::kUnlock) {
            result.unsupported = true;
            return result;
          }
        }
      }
    }

    FwdState initial;
    for (const GlobalVar& g : module_.globals()) {
      for (uint64_t w = 0; w < g.size_words; ++w) {
        initial.memory[g.address + w * kWordSize] = pool_.Const(g.init[w]);
      }
    }
    FwdFrame main_frame;
    main_frame.func = module_.entry();
    main_frame.block = 0;
    main_frame.regs.assign(module_.function(module_.entry()).num_regs,
                           pool_.Const(0));
    initial.frames.push_back(std::move(main_frame));

    std::vector<FwdState> stack;
    stack.push_back(std::move(initial));

    while (!stack.empty()) {
      if (result.blocks_executed >= options_.max_blocks ||
          stack.size() >= kMaxStates) {
        result.budget_exhausted = true;
        return result;
      }
      FwdState state = std::move(stack.back());
      stack.pop_back();
      ++result.blocks_executed;
      ++state.path_blocks;
      if (ExecuteBlock(&state, &stack, &result)) {
        result.reached_failure = true;
        result.path_length_blocks = state.path_blocks;
        return result;
      }
      if (!state.frames.empty()) {
        stack.push_back(std::move(state));  // path continues
      }
    }
    return result;
  }

 private:
  // Executes the current block of `state`'s top frame. Returns true if the
  // failure instruction was reached feasibly. Successor states are pushed
  // onto `stack`.
  bool ExecuteBlock(FwdState* state, std::vector<FwdState>* stack,
                    ForwardSynthResult* result) {
    FwdFrame& frame = state->frames.back();
    const Function& fn = module_.function(frame.func);
    const BasicBlock& bb = fn.blocks[frame.block];
    auto& env = frame.regs;

    for (uint32_t i = 0; i < bb.instructions.size(); ++i) {
      const Instruction& inst = bb.instructions[i];
      const Pc pc{frame.func, frame.block, i};

      // Goal test: reaching the coredump's failing instruction with the trap
      // condition satisfiable.
      if (pc == dump_.trap.pc) {
        std::vector<const Expr*> goal = state->constraints;
        if (dump_.trap.kind == TrapKind::kAssertFailure) {
          goal.push_back(pool_.Eq(env[inst.rc], pool_.Const(0)));
        } else if (dump_.trap.kind == TrapKind::kDivByZero) {
          goal.push_back(pool_.Eq(env[inst.rb], pool_.Const(0)));
        }
        if (solver_.Check(goal).result != SatResult::kUnsat) {
          return true;
        }
      }

      switch (inst.op) {
        case Opcode::kConst:
          env[inst.rd] = pool_.Const(inst.imm);
          break;
        case Opcode::kMov:
          env[inst.rd] = env[inst.ra];
          break;
        case Opcode::kSelect:
          env[inst.rd] = pool_.Select(env[inst.rc], env[inst.ra], env[inst.rb]);
          break;
        case Opcode::kInput:
          env[inst.rd] = pool_.Var("fwd_in", VarOrigin::kInput);
          break;
        case Opcode::kOutput:
        case Opcode::kYield:
        case Opcode::kNop:
          break;
        case Opcode::kAssert:
          // Surviving the assert constrains the path.
          state->constraints.push_back(pool_.Ne(env[inst.rc], pool_.Const(0)));
          break;
        case Opcode::kDivS:
        case Opcode::kRemS:
          state->constraints.push_back(pool_.Ne(env[inst.rb], pool_.Const(0)));
          env[inst.rd] =
              pool_.Binary(BinOpFromOpcode(inst.op), env[inst.ra], env[inst.rb]);
          break;
        case Opcode::kAlloc: {
          // Concrete bump allocation mirroring the VM.
          const Expr* size = env[inst.ra];
          uint64_t bytes = size->is_const() ? static_cast<uint64_t>(size->value) : 8;
          uint64_t words = (bytes + kWordSize - 1) / kWordSize;
          if (words == 0) {
            words = 1;
          }
          uint64_t base = state->heap_next;
          state->heap_next += words * kWordSize;
          for (uint64_t w = 0; w < words; ++w) {
            state->memory[base + w * kWordSize] = pool_.Const(0);
          }
          env[inst.rd] = pool_.Const(static_cast<int64_t>(base));
          break;
        }
        case Opcode::kFree:
          break;  // metadata not tracked; UAF goals use pc match only
        case Opcode::kLoad:
        case Opcode::kStore: {
          const Expr* addr_expr = pool_.Add(env[inst.ra], pool_.Const(inst.imm));
          std::optional<uint64_t> addr;
          if (addr_expr->is_const()) {
            addr = static_cast<uint64_t>(addr_expr->value);
          } else {
            bool complete = false;
            std::vector<int64_t> values = solver_.EnumerateValues(
                addr_expr, state->constraints, kAddressForkLimit,
                &complete);
            if (values.empty()) {
              state->frames.clear();  // unresolved: drop path
              return false;
            }
            // Fork all but the first value.
            for (size_t v = 1; v < values.size(); ++v) {
              FwdState forked = *state;
              forked.constraints.push_back(
                  pool_.Eq(addr_expr, pool_.Const(values[v])));
              // Rewind the fork to re-execute this block from its start is
              // complex; instead note the fork at address granularity by
              // continuing from the same block with the pinned constraint.
              forked.frames.back().block = frame.block;
              stack->push_back(std::move(forked));
              ++result->states_forked;
            }
            state->constraints.push_back(
                pool_.Eq(addr_expr, pool_.Const(values[0])));
            addr = static_cast<uint64_t>(values[0]);
          }
          if (inst.op == Opcode::kLoad) {
            auto it = state->memory.find(*addr);
            env[inst.rd] = it != state->memory.end()
                               ? it->second
                               : pool_.Var("fwd_mem", VarOrigin::kUnknown);
          } else {
            state->memory[*addr] = env[inst.rb];
          }
          break;
        }
        case Opcode::kBr:
          frame.block = inst.target0;
          return false;  // continue via the scheduler loop
        case Opcode::kCondBr: {
          const Expr* cond = env[inst.rc];
          // False edge forked; true edge continued in place (DFS).
          FwdState false_state = *state;
          false_state.constraints.push_back(pool_.Eq(cond, pool_.Const(0)));
          false_state.frames.back().block = inst.target1;
          if (solver_.Check(false_state.constraints).result != SatResult::kUnsat) {
            stack->push_back(std::move(false_state));
            ++result->states_forked;
          }
          state->constraints.push_back(pool_.Ne(cond, pool_.Const(0)));
          if (solver_.Check(state->constraints).result == SatResult::kUnsat) {
            state->frames.clear();  // true edge infeasible: path dies
            return false;
          }
          frame.block = inst.target0;
          return false;
        }
        case Opcode::kCall: {
          const Function& callee = module_.function(inst.callee);
          frame.block = inst.target0;
          FwdFrame nf;
          nf.func = callee.id;
          nf.block = 0;
          nf.regs.assign(callee.num_regs, pool_.Const(0));
          for (size_t a = 0; a < inst.args.size(); ++a) {
            nf.regs[a] = env[inst.args[a]];
          }
          nf.caller_result_reg = inst.rd;
          state->frames.push_back(std::move(nf));
          return false;
        }
        case Opcode::kRet: {
          const Expr* value =
              inst.ra != kNoReg ? env[inst.ra] : pool_.Const(0);
          RegId result_reg = frame.caller_result_reg;
          state->frames.pop_back();
          if (state->frames.empty()) {
            return false;  // program finished without failing: path dies
          }
          if (result_reg != kNoReg) {
            state->frames.back().regs[result_reg] = value;
          }
          return false;
        }
        case Opcode::kHalt:
          state->frames.clear();
          return false;
        default:
          if (IsBinaryAlu(inst.op)) {
            env[inst.rd] =
                pool_.Binary(BinOpFromOpcode(inst.op), env[inst.ra], env[inst.rb]);
            break;
          }
          state->frames.clear();
          return false;
      }
    }
    return false;
  }

  const Module& module_;
  const Coredump& dump_;
  ForwardSynthOptions options_;
  ExprPool pool_;
  Solver solver_;
};

}  // namespace

ForwardSynthResult ForwardSynthesize(const Module& module, const Coredump& dump,
                                     ForwardSynthOptions options) {
  return ForwardSearch(module, dump, options).Run();
}

}  // namespace res
