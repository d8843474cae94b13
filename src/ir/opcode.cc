#include "src/ir/opcode.h"

#include <array>
#include <utility>

namespace res {

namespace {
struct OpcodeEntry {
  Opcode op;
  std::string_view name;
};

constexpr std::array<OpcodeEntry, 36> kOpcodeTable = {{
    {Opcode::kConst, "const"},
    {Opcode::kMov, "mov"},
    {Opcode::kAdd, "add"},
    {Opcode::kSub, "sub"},
    {Opcode::kMul, "mul"},
    {Opcode::kDivS, "divs"},
    {Opcode::kRemS, "rems"},
    {Opcode::kAnd, "and"},
    {Opcode::kOr, "or"},
    {Opcode::kXor, "xor"},
    {Opcode::kShl, "shl"},
    {Opcode::kShrL, "shrl"},
    {Opcode::kShrA, "shra"},
    {Opcode::kCmpEq, "cmpeq"},
    {Opcode::kCmpNe, "cmpne"},
    {Opcode::kCmpLtS, "cmplts"},
    {Opcode::kCmpLeS, "cmples"},
    {Opcode::kCmpLtU, "cmpltu"},
    {Opcode::kCmpLeU, "cmpleu"},
    {Opcode::kSelect, "select"},
    {Opcode::kLoad, "load"},
    {Opcode::kStore, "store"},
    {Opcode::kAlloc, "alloc"},
    {Opcode::kFree, "free"},
    {Opcode::kInput, "input"},
    {Opcode::kOutput, "output"},
    {Opcode::kLock, "lock"},
    {Opcode::kUnlock, "unlock"},
    {Opcode::kAtomicRmwAdd, "atomic_rmw_add"},
    {Opcode::kSpawn, "spawn"},
    {Opcode::kJoin, "join"},
    {Opcode::kAssert, "assert"},
    {Opcode::kYield, "yield"},
    {Opcode::kNop, "nop"},
    {Opcode::kBr, "br"},
    {Opcode::kCondBr, "condbr"},
}};
}  // namespace

std::string_view OpcodeName(Opcode op) {
  for (const auto& entry : kOpcodeTable) {
    if (entry.op == op) {
      return entry.name;
    }
  }
  switch (op) {
    case Opcode::kCall:
      return "call";
    case Opcode::kRet:
      return "ret";
    case Opcode::kHalt:
      return "halt";
    default:
      return "<bad-opcode>";
  }
}

bool IsTerminator(Opcode op) {
  switch (op) {
    case Opcode::kBr:
    case Opcode::kCondBr:
    case Opcode::kCall:
    case Opcode::kRet:
    case Opcode::kHalt:
      return true;
    default:
      return false;
  }
}

bool IsBinaryAlu(Opcode op) {
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDivS:
    case Opcode::kRemS:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kShrL:
    case Opcode::kShrA:
    case Opcode::kCmpEq:
    case Opcode::kCmpNe:
    case Opcode::kCmpLtS:
    case Opcode::kCmpLeS:
    case Opcode::kCmpLtU:
    case Opcode::kCmpLeU:
      return true;
    default:
      return false;
  }
}

bool ParseOpcode(std::string_view name, Opcode* out) {
  for (const auto& entry : kOpcodeTable) {
    if (entry.name == name) {
      *out = entry.op;
      return true;
    }
  }
  if (name == "call") {
    *out = Opcode::kCall;
    return true;
  }
  if (name == "ret") {
    *out = Opcode::kRet;
    return true;
  }
  if (name == "halt") {
    *out = Opcode::kHalt;
    return true;
  }
  return false;
}

}  // namespace res
