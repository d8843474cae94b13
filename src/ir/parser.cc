#include "src/ir/parser.h"

#include <map>
#include <string>
#include <vector>

#include "src/ir/layout.h"
#include "src/support/string_util.h"

namespace res {

namespace {

// Tokenizer for a single instruction line: splits on commas/whitespace but
// keeps "quoted strings" and @func(...) argument lists intact.
class LineLexer {
 public:
  explicit LineLexer(std::string_view line) : line_(line) {}

  // Returns the next token, or empty when exhausted. Quoted strings are
  // returned including their quotes.
  std::string_view Next() {
    SkipSeparators();
    if (pos_ >= line_.size()) {
      return {};
    }
    size_t start = pos_;
    if (line_[pos_] == '"') {
      ++pos_;
      while (pos_ < line_.size()) {
        if (line_[pos_] == '\\' && pos_ + 1 < line_.size()) {
          pos_ += 2;
          continue;
        }
        if (line_[pos_] == '"') {
          ++pos_;
          break;
        }
        ++pos_;
      }
      return line_.substr(start, pos_ - start);
    }
    int paren_depth = 0;
    while (pos_ < line_.size()) {
      char c = line_[pos_];
      if (c == '(') {
        ++paren_depth;
      } else if (c == ')') {
        if (paren_depth == 0) {
          break;
        }
        --paren_depth;
      } else if (paren_depth == 0 && (c == ',' || c == ' ' || c == '\t')) {
        break;
      }
      ++pos_;
    }
    return line_.substr(start, pos_ - start);
  }

 private:
  void SkipSeparators() {
    while (pos_ < line_.size() &&
           (line_[pos_] == ' ' || line_[pos_] == '\t' || line_[pos_] == ',')) {
      ++pos_;
    }
  }
  std::string_view line_;
  size_t pos_ = 0;
};

struct PendingBranch {
  FuncId func;
  BlockId block;
  uint32_t index;
  int which;  // 0 => target0, 1 => target1
  std::string label;
  int line;
};

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Module> Run() {
    std::vector<std::string_view> lines = StrSplit(text_, '\n', /*skip_empty=*/false);
    // Pass 1: declare all functions so forward references resolve.
    for (size_t i = 0; i < lines.size(); ++i) {
      std::string_view line = StripComment(lines[i]);
      if (StrStartsWith(line, "func ")) {
        RES_RETURN_IF_ERROR(DeclareFunc(line, static_cast<int>(i) + 1));
      }
    }
    // Pass 2: full parse.
    for (size_t i = 0; i < lines.size(); ++i) {
      RES_RETURN_IF_ERROR(ParseLine(StripComment(lines[i]), static_cast<int>(i) + 1));
    }
    if (in_func_) {
      return DataLoss("unterminated function body at end of input");
    }
    // Resolve branch labels now that all blocks of all functions exist.
    for (const PendingBranch& pb : pending_branches_) {
      Function* fn = module_.mutable_function(pb.func);
      auto it = block_names_[pb.func].find(pb.label);
      if (it == block_names_[pb.func].end()) {
        return DataLoss(StrFormat("line %d: unknown block label '%s'", pb.line,
                                  pb.label.c_str()));
      }
      Instruction& inst = fn->blocks[pb.block].instructions[pb.index];
      if (pb.which == 0) {
        inst.target0 = it->second;
      } else {
        inst.target1 = it->second;
      }
    }
    if (!entry_name_.empty()) {
      auto id = module_.FindFunction(entry_name_);
      if (!id.has_value()) {
        return DataLoss(StrFormat("entry function '%s' not defined", entry_name_.c_str()));
      }
      module_.set_entry(*id);
    }
    return std::move(module_);
  }

 private:
  static std::string_view StripComment(std::string_view line) {
    // ';' begins a comment unless inside a quoted string.
    bool in_string = false;
    for (size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '"' && (i == 0 || line[i - 1] != '\\')) {
        in_string = !in_string;
      } else if (line[i] == ';' && !in_string) {
        return StrTrim(line.substr(0, i));
      }
    }
    return StrTrim(line);
  }

  Status DeclareFunc(std::string_view line, int lineno) {
    // func NAME params N regs M {
    LineLexer lex(line);
    lex.Next();  // "func"
    std::string name(lex.Next());
    if (name.empty()) {
      return DataLoss(StrFormat("line %d: func missing name", lineno));
    }
    std::string_view kw = lex.Next();
    if (kw != "params") {
      return DataLoss(StrFormat("line %d: expected 'params'", lineno));
    }
    auto params = ParseInt64(lex.Next());
    if (!params || *params < 0 || *params > kNoReg) {
      return DataLoss(StrFormat("line %d: bad params count", lineno));
    }
    if (module_.FindFunction(name).has_value()) {
      return DataLoss(StrFormat("line %d: duplicate function '%s'", lineno, name.c_str()));
    }
    Function fn;
    fn.name = name;
    fn.num_params = static_cast<uint16_t>(*params);
    module_.AddFunction(std::move(fn));
    block_names_.emplace_back();
    return OkStatus();
  }

  Status ParseLine(std::string_view line, int lineno) {
    if (line.empty()) {
      return OkStatus();
    }
    if (StrStartsWith(line, "global ")) {
      return ParseGlobal(line, lineno);
    }
    if (StrStartsWith(line, "entry ")) {
      entry_name_ = std::string(StrTrim(line.substr(6)));
      return OkStatus();
    }
    if (StrStartsWith(line, "func ")) {
      return BeginFunc(line, lineno);
    }
    if (line == "}") {
      if (!in_func_) {
        return DataLoss(StrFormat("line %d: stray '}'", lineno));
      }
      in_func_ = false;
      return OkStatus();
    }
    if (StrStartsWith(line, "block ")) {
      return BeginBlock(line, lineno);
    }
    if (!in_func_ || current_block_ == kNoBlock) {
      return DataLoss(StrFormat("line %d: instruction outside a block", lineno));
    }
    return ParseInstruction(line, lineno);
  }

  Status ParseGlobal(std::string_view line, int lineno) {
    LineLexer lex(line);
    lex.Next();  // "global"
    std::string name(lex.Next());
    auto size = ParseInt64(lex.Next());
    if (name.empty() || !size || *size < 0) {
      return DataLoss(StrFormat("line %d: malformed global", lineno));
    }
    GlobalVar g;
    g.name = name;
    g.address = module_.NextGlobalAddress();
    g.size_words = static_cast<uint64_t>(*size);
    // Checked before `init` is sized from it.
    if (g.address > kGlobalLimit ||
        g.size_words > (kGlobalLimit - g.address) / kWordSize) {
      return DataLoss(StrFormat("line %d: global '%s' extends past the globals "
                                "segment", lineno, name.c_str()));
    }
    std::string_view tok = lex.Next();
    if (tok == "=") {
      while (true) {
        std::string_view v = lex.Next();
        if (v.empty()) {
          break;
        }
        auto val = ParseInt64(v);
        if (!val) {
          return DataLoss(StrFormat("line %d: bad global initializer", lineno));
        }
        if (g.init.size() == g.size_words) {
          return DataLoss(StrFormat("line %d: more initializers than words",
                                    lineno));
        }
        g.init.push_back(*val);
      }
    } else if (!tok.empty()) {
      return DataLoss(StrFormat("line %d: junk after global declaration", lineno));
    }
    g.init.resize(g.size_words, 0);
    module_.AddGlobal(std::move(g));
    return OkStatus();
  }

  Status BeginFunc(std::string_view line, int lineno) {
    if (in_func_) {
      return DataLoss(StrFormat("line %d: nested 'func'", lineno));
    }
    LineLexer lex(line);
    lex.Next();  // "func"
    std::string name(lex.Next());
    lex.Next();  // "params"
    lex.Next();  // N
    std::string_view kw = lex.Next();
    uint16_t regs = 0;
    if (kw == "regs") {
      auto r = ParseInt64(lex.Next());
      if (!r || *r < 0 || *r > kNoReg) {
        return DataLoss(StrFormat("line %d: bad regs count", lineno));
      }
      regs = static_cast<uint16_t>(*r);
    }
    auto id = module_.FindFunction(name);
    if (!id.has_value()) {
      return Internal("function not pre-declared");
    }
    current_func_ = *id;
    Function* fn = module_.mutable_function(current_func_);
    fn->num_regs = std::max<uint16_t>(regs, fn->num_params);
    in_func_ = true;
    current_block_ = kNoBlock;
    return OkStatus();
  }

  Status BeginBlock(std::string_view line, int lineno) {
    if (!in_func_) {
      return DataLoss(StrFormat("line %d: block outside function", lineno));
    }
    std::string_view rest = StrTrim(line.substr(6));
    if (rest.empty() || rest.back() != ':') {
      return DataLoss(StrFormat("line %d: block label must end with ':'", lineno));
    }
    std::string label(StrTrim(rest.substr(0, rest.size() - 1)));
    Function* fn = module_.mutable_function(current_func_);
    BlockId id = static_cast<BlockId>(fn->blocks.size());
    if (!block_names_[current_func_].emplace(label, id).second) {
      return DataLoss(StrFormat("line %d: duplicate block label '%s'", lineno,
                                label.c_str()));
    }
    BasicBlock bb;
    bb.name = label;
    fn->blocks.push_back(std::move(bb));
    current_block_ = id;
    return OkStatus();
  }

  // --- Operand parsers. ---

  Result<RegId> ParseReg(std::string_view tok, int lineno, bool allow_none = false) {
    if (tok == "_" && allow_none) {
      return static_cast<RegId>(kNoReg);
    }
    if (tok.size() < 2 || tok[0] != 'r') {
      return DataLoss(StrFormat("line %d: expected register, got '%.*s'", lineno,
                                static_cast<int>(tok.size()), tok.data()));
    }
    auto n = ParseInt64(tok.substr(1));
    if (!n || *n < 0 || *n >= kNoReg) {
      return DataLoss(StrFormat("line %d: bad register '%.*s'", lineno,
                                static_cast<int>(tok.size()), tok.data()));
    }
    Function* fn = module_.mutable_function(current_func_);
    if (*n >= fn->num_regs) {
      fn->num_regs = static_cast<uint16_t>(*n + 1);
    }
    return static_cast<RegId>(*n);
  }

  Result<int64_t> ParseImm(std::string_view tok, int lineno) {
    auto v = ParseInt64(tok);
    if (!v) {
      return DataLoss(StrFormat("line %d: expected integer, got '%.*s'", lineno,
                                static_cast<int>(tok.size()), tok.data()));
    }
    return *v;
  }

  Result<std::string> ParseQuoted(std::string_view tok, int lineno) {
    if (tok.size() < 2 || tok.front() != '"' || tok.back() != '"') {
      return DataLoss(StrFormat("line %d: expected quoted string", lineno));
    }
    std::string out;
    for (size_t i = 1; i + 1 < tok.size(); ++i) {
      if (tok[i] == '\\' && i + 2 < tok.size()) {
        ++i;
      }
      out += tok[i];
    }
    return out;
  }

  void DeferBranch(Instruction* inst, int which, std::string_view label, int lineno) {
    Function* fn = module_.mutable_function(current_func_);
    PendingBranch pb;
    pb.func = current_func_;
    pb.block = current_block_;
    pb.index = static_cast<uint32_t>(fn->blocks[current_block_].instructions.size());
    pb.which = which;
    pb.label = std::string(label);
    pb.line = lineno;
    pending_branches_.push_back(std::move(pb));
  }

  Status ParseInstruction(std::string_view line, int lineno) {
    LineLexer lex(line);
    std::string_view op_tok = lex.Next();
    Opcode op;
    if (!ParseOpcode(op_tok, &op)) {
      return DataLoss(StrFormat("line %d: unknown opcode '%.*s'", lineno,
                                static_cast<int>(op_tok.size()), op_tok.data()));
    }
    Instruction inst;
    inst.op = op;
    switch (op) {
      case Opcode::kConst: {
        RES_ASSIGN_OR_RETURN(inst.rd, ParseReg(lex.Next(), lineno));
        RES_ASSIGN_OR_RETURN(inst.imm, ParseImm(lex.Next(), lineno));
        break;
      }
      case Opcode::kMov: {
        RES_ASSIGN_OR_RETURN(inst.rd, ParseReg(lex.Next(), lineno));
        RES_ASSIGN_OR_RETURN(inst.ra, ParseReg(lex.Next(), lineno));
        break;
      }
      case Opcode::kSelect: {
        RES_ASSIGN_OR_RETURN(inst.rd, ParseReg(lex.Next(), lineno));
        RES_ASSIGN_OR_RETURN(inst.rc, ParseReg(lex.Next(), lineno));
        RES_ASSIGN_OR_RETURN(inst.ra, ParseReg(lex.Next(), lineno));
        RES_ASSIGN_OR_RETURN(inst.rb, ParseReg(lex.Next(), lineno));
        break;
      }
      case Opcode::kLoad: {
        RES_ASSIGN_OR_RETURN(inst.rd, ParseReg(lex.Next(), lineno));
        RES_ASSIGN_OR_RETURN(inst.ra, ParseReg(lex.Next(), lineno));
        RES_ASSIGN_OR_RETURN(inst.imm, ParseImm(lex.Next(), lineno));
        break;
      }
      case Opcode::kStore: {
        RES_ASSIGN_OR_RETURN(inst.ra, ParseReg(lex.Next(), lineno));
        RES_ASSIGN_OR_RETURN(inst.imm, ParseImm(lex.Next(), lineno));
        RES_ASSIGN_OR_RETURN(inst.rb, ParseReg(lex.Next(), lineno));
        break;
      }
      case Opcode::kAlloc: {
        RES_ASSIGN_OR_RETURN(inst.rd, ParseReg(lex.Next(), lineno));
        RES_ASSIGN_OR_RETURN(inst.ra, ParseReg(lex.Next(), lineno));
        break;
      }
      case Opcode::kFree:
      case Opcode::kLock:
      case Opcode::kUnlock:
      case Opcode::kJoin: {
        RES_ASSIGN_OR_RETURN(inst.ra, ParseReg(lex.Next(), lineno));
        break;
      }
      case Opcode::kInput: {
        RES_ASSIGN_OR_RETURN(inst.rd, ParseReg(lex.Next(), lineno));
        RES_ASSIGN_OR_RETURN(inst.imm, ParseImm(lex.Next(), lineno));
        break;
      }
      case Opcode::kOutput: {
        RES_ASSIGN_OR_RETURN(inst.ra, ParseReg(lex.Next(), lineno));
        RES_ASSIGN_OR_RETURN(inst.imm, ParseImm(lex.Next(), lineno));
        std::string_view maybe_msg = lex.Next();
        if (!maybe_msg.empty()) {
          RES_ASSIGN_OR_RETURN(std::string msg, ParseQuoted(maybe_msg, lineno));
          inst.str_id = module_.InternString(msg);
        }
        break;
      }
      case Opcode::kAtomicRmwAdd: {
        RES_ASSIGN_OR_RETURN(inst.rd, ParseReg(lex.Next(), lineno));
        RES_ASSIGN_OR_RETURN(inst.ra, ParseReg(lex.Next(), lineno));
        RES_ASSIGN_OR_RETURN(inst.rb, ParseReg(lex.Next(), lineno));
        break;
      }
      case Opcode::kSpawn: {
        RES_ASSIGN_OR_RETURN(inst.rd, ParseReg(lex.Next(), lineno));
        std::string_view fn_tok = lex.Next();
        if (fn_tok.empty() || fn_tok[0] != '@') {
          return DataLoss(StrFormat("line %d: spawn expects @function", lineno));
        }
        auto callee = module_.FindFunction(std::string(fn_tok.substr(1)));
        if (!callee) {
          return DataLoss(StrFormat("line %d: unknown function in spawn", lineno));
        }
        inst.callee = *callee;
        RES_ASSIGN_OR_RETURN(inst.ra, ParseReg(lex.Next(), lineno));
        break;
      }
      case Opcode::kAssert: {
        RES_ASSIGN_OR_RETURN(inst.rc, ParseReg(lex.Next(), lineno));
        RES_ASSIGN_OR_RETURN(std::string msg, ParseQuoted(lex.Next(), lineno));
        inst.str_id = module_.InternString(msg);
        break;
      }
      case Opcode::kYield:
      case Opcode::kNop:
      case Opcode::kHalt:
        break;
      case Opcode::kBr: {
        DeferBranch(&inst, 0, lex.Next(), lineno);
        break;
      }
      case Opcode::kCondBr: {
        RES_ASSIGN_OR_RETURN(inst.rc, ParseReg(lex.Next(), lineno));
        DeferBranch(&inst, 0, lex.Next(), lineno);
        DeferBranch(&inst, 1, lex.Next(), lineno);
        break;
      }
      case Opcode::kCall: {
        RES_ASSIGN_OR_RETURN(inst.rd, ParseReg(lex.Next(), lineno, /*allow_none=*/true));
        std::string_view call_tok = lex.Next();
        if (call_tok.empty() || call_tok[0] != '@') {
          return DataLoss(StrFormat("line %d: call expects @function(args)", lineno));
        }
        size_t open = call_tok.find('(');
        size_t close = call_tok.rfind(')');
        if (open == std::string_view::npos || close == std::string_view::npos ||
            close < open) {
          return DataLoss(StrFormat("line %d: malformed call operand", lineno));
        }
        std::string callee_name(call_tok.substr(1, open - 1));
        auto callee = module_.FindFunction(callee_name);
        if (!callee) {
          return DataLoss(StrFormat("line %d: unknown function '%s'", lineno,
                                    callee_name.c_str()));
        }
        inst.callee = *callee;
        std::string_view args = call_tok.substr(open + 1, close - open - 1);
        for (std::string_view a : StrSplit(args, ',')) {
          RES_ASSIGN_OR_RETURN(RegId reg, ParseReg(StrTrim(a), lineno));
          inst.args.push_back(reg);
        }
        DeferBranch(&inst, 0, lex.Next(), lineno);
        break;
      }
      case Opcode::kRet: {
        std::string_view maybe = lex.Next();
        if (!maybe.empty()) {
          RES_ASSIGN_OR_RETURN(inst.ra, ParseReg(maybe, lineno));
        }
        break;
      }
      default: {
        if (!IsBinaryAlu(op)) {
          return DataLoss(StrFormat("line %d: unhandled opcode", lineno));
        }
        RES_ASSIGN_OR_RETURN(inst.rd, ParseReg(lex.Next(), lineno));
        RES_ASSIGN_OR_RETURN(inst.ra, ParseReg(lex.Next(), lineno));
        RES_ASSIGN_OR_RETURN(inst.rb, ParseReg(lex.Next(), lineno));
        break;
      }
    }
    Function* fn = module_.mutable_function(current_func_);
    fn->blocks[current_block_].instructions.push_back(std::move(inst));
    return OkStatus();
  }

  std::string_view text_;
  Module module_;
  std::vector<std::map<std::string, BlockId>> block_names_;
  std::vector<PendingBranch> pending_branches_;
  std::string entry_name_;
  bool in_func_ = false;
  FuncId current_func_ = kNoFunc;
  BlockId current_block_ = kNoBlock;
};

}  // namespace

Result<Module> ParseModule(std::string_view text) { return Parser(text).Run(); }

}  // namespace res
