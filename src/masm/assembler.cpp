#include "src/masm/assembler.h"

#include <cstring>
#include <sstream>
#include <unordered_map>

#include "src/isa/encoding.h"
#include "src/masm/lexer.h"
#include "src/support/bits.h"
#include "src/support/error.h"

namespace majc::masm {
namespace {

using isa::Form;
using isa::Instr;
using isa::Op;
using isa::OpInfo;
using isa::RegSpec;

/// How a symbolic immediate folds into the encoded field once addresses are
/// known.
enum class Fixup : u8 {
  kNone,    // literal immediate, already in Instr::imm
  kBranch,  // word displacement: target_word - packet_word (bnz/bz/call)
  kHi,      // (address >> 16) & 0xFFFF
  kLo,      // address & 0xFFFF
  kAbs,     // full address; must fit the form's immediate field
};

struct PendingInstr {
  Instr instr;
  Fixup fixup = Fixup::kNone;
  std::string sym;
  i64 addend = 0;
};

struct PendingPacket {
  u32 line = 0;
  u32 word = 0; // code-section word index of the packet start
  std::vector<PendingInstr> slots;
};

struct DataFixup {
  std::size_t offset; // byte offset in data section of a 32-bit cell
  std::string sym;
  i64 addend;
  u32 line;
};

// Eagerly initialized and const thereafter (no lazy magic static): the
// assembler stays data-race-free when concurrent farm workers compile.
const std::unordered_map<std::string_view, RegSpec> kRegAliases = {
    {"zero", 0}, {"lr", 1}, {"sp", 2}};

bool parse_reg(const std::string& name, RegSpec& out) {
  if (auto it = kRegAliases.find(name); it != kRegAliases.end()) {
    out = it->second;
    return true;
  }
  if (name.size() < 2) return false;
  const char kind = name[0];
  if (kind != 'g' && kind != 'l') return false;
  u32 num = 0;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    num = num * 10 + static_cast<u32>(name[i] - '0');
    if (num > 127) return false;
  }
  if (kind == 'g') {
    if (num >= isa::kNumGlobalRegs) return false;
    out = static_cast<RegSpec>(num);
  } else {
    if (num >= isa::kLocalRegsPerFu) return false;
    out = static_cast<RegSpec>(isa::kFirstLocalSpec + num);
  }
  return true;
}

/// Split "ldw.nc" into base mnemonic and sub-field value. Returns false on
/// an unknown suffix for the op class.
bool apply_suffix(const OpInfo& info, const std::string& suffix, u8& sub) {
  if (suffix.empty()) {
    sub = 0;
    return true;
  }
  if (!info.has(isa::kHasSub)) return false;
  if (info.is_mem()) {
    if (suffix == "nc") sub = 1;
    else if (suffix == "na") sub = 2;
    else return false;
  } else {
    if (suffix == "s") sub = 1;
    else if (suffix == "u") sub = 2;
    else if (suffix == "b") sub = 3;
    else return false;
  }
  return true;
}

class AsmContext {
public:
  explicit AsmContext(std::vector<Diagnostic>& diags) : diags_(diags) {}

  void error(const std::string& msg) {
    // Append first, then assign: moving a freshly built Diagnostic lets
    // GCC 12 + LTO flag the moved string's unreachable short-string copy
    // (-Wstringop-overread) at every call site with a literal message.
    Diagnostic& d = diags_.emplace_back();
    d.line = line_;
    d.message = msg;
    failed_ = true;
  }

  bool assemble(std::string_view source, Image& out);

private:
  // ---- parsing ----
  bool parse_line(const std::vector<Token>& toks);
  bool parse_directive(const std::vector<Token>& toks, std::size_t& i);
  bool parse_packet(const std::vector<Token>& toks, std::size_t i);
  bool parse_slot(const std::vector<Token>& toks, std::size_t& i,
                  PendingInstr& out);
  bool parse_operand_imm(const std::vector<Token>& toks, std::size_t& i,
                         PendingInstr& out);
  bool expect(const std::vector<Token>& toks, std::size_t& i, TokKind kind,
              const char* what);
  void define_label(const std::string& name);

  // ---- data emission ----
  void align_data(std::size_t alignment);
  template <typename T>
  void emit_data(T value) {
    align_data(sizeof(T));
    const std::size_t at = data_.size();
    data_.resize(at + sizeof(T));
    std::memcpy(data_.data() + at, &value, sizeof(T));
  }

  // ---- resolution ----
  bool resolve(Image& out);
  bool lookup(const std::string& sym, u32 line, Addr& out);

  std::vector<Diagnostic>& diags_;
  bool failed_ = false;
  u32 line_ = 0;
  bool in_code_ = true;

  std::vector<PendingPacket> packets_;
  u32 code_words_ = 0;
  std::vector<u8> data_;
  std::vector<DataFixup> data_fixups_;
  std::unordered_map<std::string, Addr> code_syms_;  // word index
  std::unordered_map<std::string, Addr> data_syms_;  // byte offset
  std::string entry_sym_;
};

bool AsmContext::expect(const std::vector<Token>& toks, std::size_t& i,
                        TokKind kind, const char* what) {
  if (i >= toks.size() || toks[i].kind != kind) {
    error(std::string("expected ") + what);
    return false;
  }
  ++i;
  return true;
}

void AsmContext::define_label(const std::string& name) {
  auto& table = in_code_ ? code_syms_ : data_syms_;
  auto& other = in_code_ ? data_syms_ : code_syms_;
  if (table.count(name) || other.count(name)) {
    error("duplicate label '" + name + "'");
    return;
  }
  table[name] = in_code_ ? code_words_ : data_.size();
}

void AsmContext::align_data(std::size_t alignment) {
  while (data_.size() % alignment != 0) data_.push_back(0);
}

bool AsmContext::parse_directive(const std::vector<Token>& toks,
                                 std::size_t& i) {
  const std::string dir = toks[i].text;
  ++i;
  if (dir == "code") {
    in_code_ = true;
    return true;
  }
  if (dir == "data") {
    in_code_ = false;
    return true;
  }
  if (dir == "entry") {
    if (i >= toks.size() || toks[i].kind != TokKind::kIdent) {
      error(".entry expects a label");
      return false;
    }
    entry_sym_ = toks[i].text;
    ++i;
    return true;
  }
  if (in_code_) {
    error("directive ." + dir + " is only valid in the data section");
    return false;
  }
  if (dir == "align") {
    if (i >= toks.size() || toks[i].kind != TokKind::kNumber ||
        toks[i].ival <= 0) {
      error(".align expects a positive integer");
      return false;
    }
    align_data(static_cast<std::size_t>(toks[i].ival));
    ++i;
    return true;
  }
  if (dir == "ascii" || dir == "asciz") {
    if (i >= toks.size() || toks[i].kind != TokKind::kString) {
      error("." + dir + " expects a string literal");
      return false;
    }
    for (char ch : toks[i].text) emit_data<u8>(static_cast<u8>(ch));
    if (dir == "asciz") emit_data<u8>(0);
    ++i;
    return true;
  }
  if (dir == "space") {
    if (i >= toks.size() || toks[i].kind != TokKind::kNumber ||
        toks[i].ival < 0) {
      error(".space expects a byte count");
      return false;
    }
    data_.resize(data_.size() + static_cast<std::size_t>(toks[i].ival), 0);
    ++i;
    return true;
  }
  const bool is_byte = dir == "byte";
  const bool is_half = dir == "half";
  const bool is_word = dir == "word";
  const bool is_long = dir == "long";
  const bool is_float = dir == "float";
  const bool is_double = dir == "double";
  if (!(is_byte || is_half || is_word || is_long || is_float || is_double)) {
    error("unknown directive ." + dir);
    return false;
  }
  bool first = true;
  while (i < toks.size() && toks[i].kind != TokKind::kEnd) {
    if (!first && !expect(toks, i, TokKind::kComma, "','")) return false;
    first = false;
    if (i >= toks.size()) break;
    const Token& t = toks[i];
    if (t.kind == TokKind::kNumber) {
      if (is_byte) emit_data<u8>(static_cast<u8>(t.ival));
      else if (is_half) emit_data<u16>(static_cast<u16>(t.ival));
      else if (is_word) emit_data<u32>(static_cast<u32>(t.ival));
      else if (is_long) emit_data<u64>(static_cast<u64>(t.ival));
      else if (is_float) emit_data<float>(static_cast<float>(t.ival));
      else emit_data<double>(static_cast<double>(t.ival));
      ++i;
    } else if (t.kind == TokKind::kFloat && (is_float || is_double)) {
      if (is_float) emit_data<float>(static_cast<float>(t.fval));
      else emit_data<double>(t.fval);
      ++i;
    } else if (t.kind == TokKind::kIdent && is_word) {
      align_data(4);
      data_fixups_.push_back({data_.size(), t.text, 0, line_});
      emit_data<u32>(0);
      ++i;
    } else {
      error("bad value in ." + dir);
      return false;
    }
  }
  return true;
}

bool AsmContext::parse_operand_imm(const std::vector<Token>& toks,
                                   std::size_t& i, PendingInstr& out) {
  if (i < toks.size() && toks[i].kind == TokKind::kNumber) {
    const i64 v = toks[i].ival;
    if (!fits_signed(v, 32) && !fits_unsigned(static_cast<u64>(v), 32)) {
      error("immediate does not fit in 32 bits");
      return false;
    }
    out.instr.imm = static_cast<i32>(v);
    ++i;
    return true;
  }
  if (i < toks.size() && toks[i].kind == TokKind::kPercent) {
    ++i;
    if (i >= toks.size() || toks[i].kind != TokKind::kIdent ||
        (toks[i].text != "hi" && toks[i].text != "lo")) {
      error("expected %hi(...) or %lo(...)");
      return false;
    }
    out.fixup = toks[i].text == "hi" ? Fixup::kHi : Fixup::kLo;
    ++i;
    if (!expect(toks, i, TokKind::kLParen, "'('")) return false;
    if (i >= toks.size() || toks[i].kind != TokKind::kIdent) {
      error("expected symbol inside %hi/%lo");
      return false;
    }
    out.sym = toks[i].text;
    ++i;
    if (i < toks.size() && toks[i].kind == TokKind::kNumber) {
      out.addend = toks[i].ival;  // "+N" lexes as a signed number token
      ++i;
    }
    if (!expect(toks, i, TokKind::kRParen, "')'")) return false;
    return true;
  }
  if (i < toks.size() && toks[i].kind == TokKind::kIdent) {
    // Bare symbol: branch/call displacement or absolute address.
    const OpInfo& info = out.instr.info();
    out.fixup = (info.has(isa::kBranch) || info.has(isa::kCall))
                    ? Fixup::kBranch
                    : Fixup::kAbs;
    out.sym = toks[i].text;
    ++i;
    if (i < toks.size() && toks[i].kind == TokKind::kNumber) {
      out.addend = toks[i].ival;
      ++i;
    }
    return true;
  }
  error("expected immediate operand");
  return false;
}

bool AsmContext::parse_slot(const std::vector<Token>& toks, std::size_t& i,
                            PendingInstr& out) {
  if (i >= toks.size() || toks[i].kind != TokKind::kIdent) {
    error("expected an instruction mnemonic");
    return false;
  }
  std::string name = toks[i].text;
  ++i;

  // Pseudo-instruction expansion.
  auto parse_two_regs = [&](RegSpec& a, RegSpec& b) {
    if (i >= toks.size() || toks[i].kind != TokKind::kIdent ||
        !parse_reg(toks[i].text, a)) {
      error("expected register");
      return false;
    }
    ++i;
    if (!expect(toks, i, TokKind::kComma, "','")) return false;
    if (i >= toks.size() || toks[i].kind != TokKind::kIdent ||
        !parse_reg(toks[i].text, b)) {
      error("expected register");
      return false;
    }
    ++i;
    return true;
  };
  if (name == "mov") {
    out.instr.op = Op::kOr;
    RegSpec rd, rs;
    if (!parse_two_regs(rd, rs)) return false;
    out.instr.rd = rd;
    out.instr.rs1 = rs;
    out.instr.rs2 = isa::kZeroReg;
    return true;
  }
  if (name == "not") {
    out.instr.op = Op::kXori;
    RegSpec rd, rs;
    if (!parse_two_regs(rd, rs)) return false;
    out.instr.rd = rd;
    out.instr.rs1 = rs;
    out.instr.imm = -1;
    return true;
  }
  if (name == "li") {
    out.instr.op = Op::kSetlo;
    if (i >= toks.size() || toks[i].kind != TokKind::kIdent ||
        !parse_reg(toks[i].text, out.instr.rd)) {
      error("expected register");
      return false;
    }
    ++i;
    if (!expect(toks, i, TokKind::kComma, "','")) return false;
    return parse_operand_imm(toks, i, out);
  }
  if (name == "b") {
    out.instr.op = Op::kBz;
    out.instr.rd = isa::kZeroReg;
    return parse_operand_imm(toks, i, out);
  }
  if (name == "ret") {
    out.instr.op = Op::kJmpl;
    out.instr.rd = isa::kZeroReg;
    out.instr.rs1 = isa::kLinkReg;
    return true;
  }

  // Split optional sub-field suffix.
  std::string suffix;
  if (const auto dot = name.find('.'); dot != std::string::npos) {
    suffix = name.substr(dot + 1);
    name = name.substr(0, dot);
  }
  Op op;
  if (!isa::op_from_name(name, op)) {
    error("unknown mnemonic '" + name + "'");
    return false;
  }
  out.instr.op = op;
  const OpInfo& info = out.instr.info();
  if (!apply_suffix(info, suffix, out.instr.sub)) {
    error("invalid suffix '." + suffix + "' for " + name);
    return false;
  }

  auto parse_reg_tok = [&](RegSpec& r) {
    if (i >= toks.size() || toks[i].kind != TokKind::kIdent ||
        !parse_reg(toks[i].text, r)) {
      error("expected register");
      return false;
    }
    ++i;
    return true;
  };

  switch (info.form) {
    case Form::kR:
      if (!parse_reg_tok(out.instr.rd)) return false;
      if (!expect(toks, i, TokKind::kComma, "','")) return false;
      if (!parse_reg_tok(out.instr.rs1)) return false;
      // jmpl and single-source ops accept two operands.
      if (i < toks.size() && toks[i].kind == TokKind::kComma) {
        ++i;
        if (!parse_reg_tok(out.instr.rs2)) return false;
      }
      return true;
    case Form::kI:
      if (!parse_reg_tok(out.instr.rd)) return false;
      if (!expect(toks, i, TokKind::kComma, "','")) return false;
      if (!parse_reg_tok(out.instr.rs1)) return false;
      if (!expect(toks, i, TokKind::kComma, "','")) return false;
      return parse_operand_imm(toks, i, out);
    case Form::kL:
      if (!parse_reg_tok(out.instr.rd)) return false;
      if (!expect(toks, i, TokKind::kComma, "','")) return false;
      return parse_operand_imm(toks, i, out);
    case Form::kJ:
      return parse_operand_imm(toks, i, out);
    case Form::kN:
      if (info.writes_rd() || info.has(isa::kReadsRd)) {
        // getcpu / gettick take a destination register; settvec / rett take
        // a single source register in the same slot.
        if (!parse_reg_tok(out.instr.rd)) return false;
      }
      return true;
  }
  return false;
}

bool AsmContext::parse_packet(const std::vector<Token>& toks, std::size_t i) {
  PendingPacket pkt;
  pkt.line = line_;
  pkt.word = code_words_;
  while (true) {
    PendingInstr slot;
    if (!parse_slot(toks, i, slot)) return false;
    pkt.slots.push_back(std::move(slot));
    if (i < toks.size() && toks[i].kind == TokKind::kPipe) {
      ++i;
      continue;
    }
    break;
  }
  if (i < toks.size() && toks[i].kind != TokKind::kEnd) {
    error("trailing tokens after packet");
    return false;
  }
  if (pkt.slots.size() > isa::kMaxSlots) {
    error("packet has more than 4 slots");
    return false;
  }
  // Structural validation that does not need symbol values.
  for (std::size_t s = 0; s < pkt.slots.size(); ++s) {
    try {
      isa::validate_slot(pkt.slots[s].instr, static_cast<u32>(s));
    } catch (const majc::Error& e) {
      error(e.what());
      return false;
    }
  }
  code_words_ += static_cast<u32>(pkt.slots.size());
  packets_.push_back(std::move(pkt));
  return true;
}

bool AsmContext::parse_line(const std::vector<Token>& toks) {
  std::size_t i = 0;
  // Leading labels: ident ':' (possibly several).
  while (i + 1 < toks.size() && toks[i].kind == TokKind::kIdent &&
         toks[i + 1].kind == TokKind::kColon) {
    define_label(toks[i].text);
    i += 2;
  }
  if (i >= toks.size() || toks[i].kind == TokKind::kEnd) return true;
  if (toks[i].kind == TokKind::kDirective) {
    if (!parse_directive(toks, i)) return false;
    if (i < toks.size() && toks[i].kind != TokKind::kEnd) {
      error("trailing tokens after directive");
      return false;
    }
    return true;
  }
  if (!in_code_) {
    error("instructions are only valid in the code section");
    return false;
  }
  return parse_packet(toks, i);
}

bool AsmContext::lookup(const std::string& sym, u32 line, Addr& out) {
  if (auto it = code_syms_.find(sym); it != code_syms_.end()) {
    out = Image::kDefaultCodeBase + it->second * 4;
    return true;
  }
  if (auto it = data_syms_.find(sym); it != data_syms_.end()) {
    out = Image::kDefaultDataBase + it->second;
    return true;
  }
  diags_.push_back({line, "undefined symbol '" + sym + "'"});
  failed_ = true;
  return false;
}

bool AsmContext::resolve(Image& out) {
  out.code.reserve(code_words_);
  for (const auto& pkt : packets_) {
    isa::Packet p;
    p.width = static_cast<u32>(pkt.slots.size());
    bool ok = true;
    for (std::size_t s = 0; s < pkt.slots.size(); ++s) {
      const PendingInstr& pi = pkt.slots[s];
      Instr in = pi.instr;
      if (pi.fixup != Fixup::kNone) {
        if (pi.fixup == Fixup::kBranch) {
          auto it = code_syms_.find(pi.sym);
          if (it == code_syms_.end()) {
            diags_.push_back({pkt.line, "undefined label '" + pi.sym + "'"});
            failed_ = true;
            ok = false;
            continue;
          }
          in.imm = static_cast<i32>(static_cast<i64>(it->second) -
                                    static_cast<i64>(pkt.word) + pi.addend);
        } else {
          Addr addr = 0;
          if (!lookup(pi.sym, pkt.line, addr)) {
            ok = false;
            continue;
          }
          addr += static_cast<Addr>(pi.addend);
          switch (pi.fixup) {
            case Fixup::kHi:
              in.imm = static_cast<i32>((addr >> 16) & 0xFFFF);
              break;
            case Fixup::kLo:
              in.imm = static_cast<i32>(addr & 0xFFFF);
              break;
            case Fixup::kAbs:
              in.imm = static_cast<i32>(addr);
              break;
            default:
              break;
          }
        }
      }
      p.slot[s] = in;
    }
    if (!ok) continue;
    try {
      const std::vector<u32> words = isa::encode_packet(p);
      out.code.insert(out.code.end(), words.begin(), words.end());
    } catch (const majc::Error& e) {
      diags_.push_back({pkt.line, e.what()});
      failed_ = true;
    }
  }

  out.data = data_;
  for (const auto& fx : data_fixups_) {
    Addr addr = 0;
    if (!lookup(fx.sym, fx.line, addr)) continue;
    const u32 v = static_cast<u32>(addr + static_cast<Addr>(fx.addend));
    std::memcpy(out.data.data() + fx.offset, &v, sizeof(v));
  }

  for (const auto& [name, word] : code_syms_) {
    out.symbols[name] = Image::kDefaultCodeBase + word * 4;
  }
  for (const auto& [name, off] : data_syms_) {
    out.symbols[name] = Image::kDefaultDataBase + off;
  }
  if (!entry_sym_.empty()) {
    auto it = out.symbols.find(entry_sym_);
    if (it == out.symbols.end()) {
      diags_.push_back({0, "undefined .entry symbol '" + entry_sym_ + "'"});
      failed_ = true;
    } else {
      out.entry = it->second;
    }
  }
  return !failed_;
}

bool AsmContext::assemble(std::string_view source, Image& out) {
  std::size_t pos = 0;
  std::vector<Token> toks;
  while (pos <= source.size()) {
    const std::size_t nl = source.find('\n', pos);
    const std::string_view linetext =
        source.substr(pos, nl == std::string_view::npos ? std::string_view::npos
                                                        : nl - pos);
    ++line_;
    std::string lex_error;
    if (!lex_line(linetext, toks, lex_error)) {
      error(lex_error);
    } else {
      parse_line(toks);
    }
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  if (failed_) return false;
  return resolve(out);
}

} // namespace

Addr Image::symbol(const std::string& name) const {
  auto it = symbols.find(name);
  require(it != symbols.end(), "unknown symbol '" + name + "'");
  return it->second;
}

std::optional<Image> assemble(std::string_view source,
                              std::vector<Diagnostic>& diags) {
  AsmContext ctx(diags);
  Image img;
  if (!ctx.assemble(source, img)) return std::nullopt;
  return img;
}

Image assemble_or_throw(std::string_view source) {
  std::vector<Diagnostic> diags;
  auto img = assemble(source, diags);
  if (!img) {
    std::ostringstream os;
    os << "assembly failed:";
    for (const auto& d : diags) os << "\n  line " << d.line << ": " << d.message;
    fail(os.str());
  }
  return *std::move(img);
}

} // namespace majc::masm
