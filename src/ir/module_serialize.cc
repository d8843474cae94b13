#include "src/ir/module_serialize.h"

#include <string>

#include "src/support/wire.h"

namespace res {

namespace {

constexpr uint64_t kMagic = 0x5245534d4f443100ULL;  // "RESMOD1" + NUL
constexpr uint32_t kVersion = 1;

// Minimum on-wire sizes, used as FitsRemaining element bounds. An
// instruction is op(1) + 4 regs(8) + imm(8) + targets(8) + callee(4) +
// arg count(8) + str_id(4) = 41 bytes before its argument list.
constexpr uint64_t kMinInstructionBytes = 41;
constexpr uint64_t kMinBlockBytes = 8 + 8;     // name len + inst count
constexpr uint64_t kMinFunctionBytes = 8 + 2 + 2 + 8;  // name, params, regs, blocks
constexpr uint64_t kMinGlobalBytes = 8 + 8 + 8 + 8;    // name, addr, size, init count
constexpr uint64_t kMinStringBytes = 8;

}  // namespace

bool LooksLikeBinaryModule(const std::vector<uint8_t>& bytes) {
  WireReader r(bytes);
  uint64_t magic;
  return r.U64(&magic) && magic == kMagic;
}

std::vector<uint8_t> SerializeModule(const Module& module) {
  WireWriter w;
  w.U64(kMagic);
  w.U32(kVersion);
  w.U32(module.entry());

  w.U64(module.strings().size());
  for (const std::string& s : module.strings()) {
    w.Str(s);
  }

  w.U64(module.globals().size());
  for (const GlobalVar& g : module.globals()) {
    w.Str(g.name);
    w.U64(g.address);
    w.U64(g.size_words);
    w.U64(g.init.size());
    for (int64_t v : g.init) {
      w.I64(v);
    }
  }

  w.U64(module.functions().size());
  for (const Function& fn : module.functions()) {
    // fn.id is implicit: AddFunction assigns ids densely in order.
    w.Str(fn.name);
    w.U16(fn.num_params);
    w.U16(fn.num_regs);
    w.U64(fn.blocks.size());
    for (const BasicBlock& bb : fn.blocks) {
      w.Str(bb.name);
      w.U64(bb.instructions.size());
      for (const Instruction& inst : bb.instructions) {
        w.U8(static_cast<uint8_t>(inst.op));  // raw byte, corrupt ops intact
        w.U16(inst.rd);
        w.U16(inst.ra);
        w.U16(inst.rb);
        w.U16(inst.rc);
        w.I64(inst.imm);
        w.U32(inst.target0);
        w.U32(inst.target1);
        w.U32(inst.callee);
        w.U64(inst.args.size());
        for (RegId arg : inst.args) {
          w.U16(arg);
        }
        w.U32(inst.str_id);
      }
    }
  }
  return w.Take();
}

RES_FAULT_SITE(kFaultModuleDeserialize, "module.deserialize",
               StatusCode::kDataLoss);

Result<Module> DeserializeModule(const std::vector<uint8_t>& bytes,
                                 const FaultScope& faults) {
  RES_RETURN_IF_ERROR(faults.Check(kFaultModuleDeserialize));
  WireReader r(bytes);
  uint64_t magic;
  uint32_t version;
  if (!r.U64(&magic) || magic != kMagic) {
    return DataLoss("bad module magic");
  }
  if (!r.U32(&version) || version != kVersion) {
    return DataLoss("unsupported module version");
  }
  Module module;
  uint32_t entry;
  if (!r.U32(&entry)) {
    return DataLoss("truncated module header");
  }

  uint64_t string_count;
  if (!r.U64(&string_count)) {
    return DataLoss("truncated string table");
  }
  if (!r.FitsRemaining(string_count, kMinStringBytes)) {
    return DataLoss("string table larger than payload");
  }
  for (uint64_t i = 0; i < string_count; ++i) {
    std::string s;
    if (!r.Str(&s)) {
      return DataLoss("truncated string-table entry");
    }
    // InternString dedups, so a valid module's table has no duplicates;
    // re-interning in order reproduces the exact StrIds. A duplicate means
    // the table is non-canonical and re-interning would shift every later
    // id, so reject it rather than silently remap.
    if (module.InternString(s) != static_cast<StrId>(i)) {
      return DataLoss("duplicate string-table entry");
    }
  }

  uint64_t global_count;
  if (!r.U64(&global_count)) {
    return DataLoss("truncated global table");
  }
  if (!r.FitsRemaining(global_count, kMinGlobalBytes)) {
    return DataLoss("global table larger than payload");
  }
  for (uint64_t i = 0; i < global_count; ++i) {
    GlobalVar g;
    uint64_t init_count;
    if (!r.Str(&g.name) || !r.U64(&g.address) || !r.U64(&g.size_words) ||
        !r.U64(&init_count)) {
      return DataLoss("truncated global record");
    }
    if (!r.FitsRemaining(init_count, 8)) {
      return DataLoss("global initializer larger than payload");
    }
    g.init.resize(init_count);
    for (uint64_t j = 0; j < init_count; ++j) {
      if (!r.I64(&g.init[j])) {
        return DataLoss("truncated global initializer");
      }
    }
    module.AddGlobal(std::move(g));
  }

  uint64_t function_count;
  if (!r.U64(&function_count)) {
    return DataLoss("truncated function table");
  }
  if (!r.FitsRemaining(function_count, kMinFunctionBytes)) {
    return DataLoss("function table larger than payload");
  }
  for (uint64_t fi = 0; fi < function_count; ++fi) {
    Function fn;
    uint64_t block_count;
    if (!r.Str(&fn.name) || !r.U16(&fn.num_params) || !r.U16(&fn.num_regs) ||
        !r.U64(&block_count)) {
      return DataLoss("truncated function record");
    }
    if (!r.FitsRemaining(block_count, kMinBlockBytes)) {
      return DataLoss("block table larger than payload");
    }
    for (uint64_t bi = 0; bi < block_count; ++bi) {
      BasicBlock bb;
      uint64_t inst_count;
      if (!r.Str(&bb.name) || !r.U64(&inst_count)) {
        return DataLoss("truncated block record");
      }
      if (!r.FitsRemaining(inst_count, kMinInstructionBytes)) {
        return DataLoss("instruction stream larger than payload");
      }
      bb.instructions.resize(inst_count);
      for (uint64_t ii = 0; ii < inst_count; ++ii) {
        Instruction& inst = bb.instructions[ii];
        uint8_t op;
        uint64_t arg_count;
        if (!r.U8(&op) || !r.U16(&inst.rd) || !r.U16(&inst.ra) ||
            !r.U16(&inst.rb) || !r.U16(&inst.rc) || !r.I64(&inst.imm) ||
            !r.U32(&inst.target0) || !r.U32(&inst.target1) ||
            !r.U32(&inst.callee) || !r.U64(&arg_count)) {
          return DataLoss("truncated instruction");
        }
        if (!r.FitsRemaining(arg_count, 2)) {
          return DataLoss("argument list larger than payload");
        }
        inst.op = static_cast<Opcode>(op);
        inst.args.resize(arg_count);
        for (uint64_t ai = 0; ai < arg_count; ++ai) {
          if (!r.U16(&inst.args[ai])) {
            return DataLoss("truncated argument list");
          }
        }
        if (!r.U32(&inst.str_id)) {
          return DataLoss("truncated instruction");
        }
      }
      fn.blocks.push_back(std::move(bb));
    }
    module.AddFunction(std::move(fn));
  }
  module.set_entry(entry);
  if (!r.AtEnd()) {
    return DataLoss("trailing bytes after module");
  }
  return module;
}

}  // namespace res
