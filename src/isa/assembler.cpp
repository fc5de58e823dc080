#include "isa/assembler.hpp"

#include <cctype>
#include <map>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/strfmt.hpp"

namespace xbgas::isa {

namespace {

// ---------------------------------------------------------------------------
// Operand model
// ---------------------------------------------------------------------------

enum class OperandKind { kXReg, kEReg, kImm, kSymbol, kMem };

struct Operand {
  OperandKind kind;
  unsigned reg = 0;       // kXReg / kEReg, and the base register for kMem
  std::int64_t imm = 0;   // kImm, and the offset for kMem
  std::string symbol;     // kSymbol
};

const std::map<std::string, unsigned>& abi_names() {
  static const std::map<std::string, unsigned> kAbi = [] {
    std::map<std::string, unsigned> m{
        {"zero", 0}, {"ra", 1}, {"sp", 2},  {"gp", 3},
        {"tp", 4},   {"fp", 8}, {"s0", 8},  {"s1", 9},
    };
    for (unsigned i = 0; i <= 2; ++i) m[strfmt("t%u", i)] = 5 + i;
    for (unsigned i = 3; i <= 6; ++i) m[strfmt("t%u", i)] = 28 + i - 3;
    for (unsigned i = 0; i <= 7; ++i) m[strfmt("a%u", i)] = 10 + i;
    for (unsigned i = 2; i <= 11; ++i) m[strfmt("s%u", i)] = 18 + i - 2;
    return m;
  }();
  return kAbi;
}

bool is_symbol_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '.'; }
bool is_symbol_char(char c) { return is_symbol_start(c) || std::isdigit(static_cast<unsigned char>(c)); }

std::optional<unsigned> parse_numeric_reg(std::string_view text, char prefix) {
  if (text.size() < 2 || text.size() > 3 || text[0] != prefix) return std::nullopt;
  unsigned value = 0;
  for (char c : text.substr(1)) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    value = value * 10 + static_cast<unsigned>(c - '0');
  }
  return value < 32 ? std::optional<unsigned>(value) : std::nullopt;
}

std::optional<std::int64_t> parse_number(std::string_view text) {
  if (text.empty()) return std::nullopt;
  bool negative = false;
  std::size_t i = 0;
  if (text[0] == '-' || text[0] == '+') {
    negative = text[0] == '-';
    i = 1;
  }
  if (i >= text.size()) return std::nullopt;
  int base = 10;
  if (text.size() - i > 2 && text[i] == '0' &&
      (text[i + 1] == 'x' || text[i + 1] == 'X')) {
    base = 16;
    i += 2;
  }
  std::uint64_t value = 0;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (base == 16 && c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (base == 16 && c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return std::nullopt;
    value = value * static_cast<std::uint64_t>(base) +
            static_cast<std::uint64_t>(digit);
  }
  const auto signedv = static_cast<std::int64_t>(value);
  return negative ? -signedv : signedv;
}

/// Parse one operand token: register, immediate, symbol, or imm(base).
Operand parse_operand(std::string_view text, int line) {
  const auto fail = [&](const char* why) -> Operand {
    throw Error(strfmt("asm line %d: %s: '%.*s'", line, why,
                       static_cast<int>(text.size()), text.data()));
  };

  if (text.empty()) return fail("empty operand");

  // imm(base) memory reference.
  if (const auto open = text.find('('); open != std::string_view::npos) {
    if (text.back() != ')') return fail("malformed memory operand");
    const auto offset_text = text.substr(0, open);
    const auto base_text = text.substr(open + 1, text.size() - open - 2);
    const auto offset = offset_text.empty() ? std::optional<std::int64_t>(0)
                                            : parse_number(offset_text);
    if (!offset) return fail("bad memory offset");
    Operand base = parse_operand(base_text, line);
    if (base.kind != OperandKind::kXReg) return fail("memory base must be an x register");
    return Operand{.kind = OperandKind::kMem, .reg = base.reg, .imm = *offset, .symbol = {}};
  }

  if (const auto xr = parse_numeric_reg(text, 'x')) {
    return Operand{.kind = OperandKind::kXReg, .reg = *xr, .imm = 0, .symbol = {}};
  }
  if (const auto er = parse_numeric_reg(text, 'e')) {
    return Operand{.kind = OperandKind::kEReg, .reg = *er, .imm = 0, .symbol = {}};
  }
  if (const auto it = abi_names().find(std::string(text)); it != abi_names().end()) {
    return Operand{.kind = OperandKind::kXReg, .reg = it->second, .imm = 0, .symbol = {}};
  }
  if (const auto num = parse_number(text)) {
    return Operand{.kind = OperandKind::kImm, .reg = 0, .imm = *num, .symbol = {}};
  }
  if (is_symbol_start(text[0])) {
    for (char c : text) {
      if (!is_symbol_char(c)) return fail("bad symbol");
    }
    return Operand{.kind = OperandKind::kSymbol, .reg = 0, .imm = 0, .symbol = std::string(text)};
  }
  return fail("unrecognized operand");
}

// ---------------------------------------------------------------------------
// Mnemonic table: operand format per op
// ---------------------------------------------------------------------------

enum class Fmt {
  kRType,      // op rd, rs1, rs2
  kIType,      // op rd, rs1, imm      (ALU immediates and shifts)
  kLoad,       // op rd, imm(rs1)      (standard + xBGAS e-loads)
  kStore,      // op rs2, imm(rs1)     (standard + xBGAS e-stores)
  kRawLoad,    // op rd, rs1, eN
  kRawStore,   // op rs2, rs1, eN
  kBranch,     // op rs1, rs2, label|imm
  kJal,        // op rd, label|imm
  kJalr,       // op rd, imm(rs1)
  kUType,      // op rd, imm
  kEaddie,     // eaddie eN, rs1, imm
  kEaddix,     // eaddix rd, eN, imm
  kNullary,    // ecall / ebreak
};

std::optional<Fmt> fmt_of(Op op) {
  switch (op) {
    case Op::kAdd: case Op::kSub: case Op::kSll: case Op::kSlt:
    case Op::kSltu: case Op::kXor: case Op::kSrl: case Op::kSra:
    case Op::kOr: case Op::kAnd: case Op::kAddw: case Op::kSubw:
    case Op::kSllw: case Op::kSrlw: case Op::kSraw: case Op::kMul:
    case Op::kMulh: case Op::kMulhsu: case Op::kMulhu: case Op::kDiv:
    case Op::kDivu: case Op::kRem: case Op::kRemu: case Op::kMulw:
    case Op::kDivw: case Op::kDivuw: case Op::kRemw: case Op::kRemuw:
      return Fmt::kRType;
    case Op::kAddi: case Op::kSlti: case Op::kSltiu: case Op::kXori:
    case Op::kOri: case Op::kAndi: case Op::kSlli: case Op::kSrli:
    case Op::kSrai: case Op::kAddiw: case Op::kSlliw: case Op::kSrliw:
    case Op::kSraiw:
      return Fmt::kIType;
    case Op::kLb: case Op::kLh: case Op::kLw: case Op::kLd:
    case Op::kLbu: case Op::kLhu: case Op::kLwu:
    case Op::kElb: case Op::kElh: case Op::kElw: case Op::kEld:
    case Op::kElbu: case Op::kElhu: case Op::kElwu:
      return Fmt::kLoad;
    case Op::kSb: case Op::kSh: case Op::kSw: case Op::kSd:
    case Op::kEsb: case Op::kEsh: case Op::kEsw: case Op::kEsd:
      return Fmt::kStore;
    case Op::kErlb: case Op::kErlh: case Op::kErlw: case Op::kErld:
    case Op::kErlbu: case Op::kErlhu: case Op::kErlwu:
      return Fmt::kRawLoad;
    case Op::kErsb: case Op::kErsh: case Op::kErsw: case Op::kErsd:
      return Fmt::kRawStore;
    case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBge:
    case Op::kBltu: case Op::kBgeu:
      return Fmt::kBranch;
    case Op::kJal:
      return Fmt::kJal;
    case Op::kJalr:
      return Fmt::kJalr;
    case Op::kLui: case Op::kAuipc:
      return Fmt::kUType;
    case Op::kEaddie:
      return Fmt::kEaddie;
    case Op::kEaddix:
      return Fmt::kEaddix;
    case Op::kEcall: case Op::kEbreak:
      return Fmt::kNullary;
    case Op::kCount:
      return std::nullopt;
  }
  return std::nullopt;
}

const std::map<std::string, Op>& mnemonic_table() {
  static const std::map<std::string, Op> kTable = [] {
    std::map<std::string, Op> m;
    for (int i = 0; i < static_cast<int>(Op::kCount); ++i) {
      const Op op = static_cast<Op>(i);
      if (fmt_of(op)) m[mnemonic(op)] = op;
    }
    return m;
  }();
  return kTable;
}

// ---------------------------------------------------------------------------
// Line-level parsing
// ---------------------------------------------------------------------------

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

std::vector<std::string_view> split_operands(std::string_view rest) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= rest.size()) {
    auto comma = rest.find(',', start);
    if (comma == std::string_view::npos) comma = rest.size();
    const auto piece = trim(rest.substr(start, comma - start));
    if (!piece.empty()) out.push_back(piece);
    start = comma + 1;
    if (comma == rest.size()) break;
  }
  return out;
}

void expect(bool cond, int line, const char* what) {
  if (!cond) throw Error(strfmt("asm line %d: %s", line, what));
}

unsigned want_x(const Operand& op, int line) {
  expect(op.kind == OperandKind::kXReg, line, "expected an x register");
  return op.reg;
}

unsigned want_e(const Operand& op, int line) {
  expect(op.kind == OperandKind::kEReg, line, "expected an e register");
  return op.reg;
}

std::int64_t want_imm(const Operand& op, int line) {
  expect(op.kind == OperandKind::kImm, line, "expected an immediate");
  return op.imm;
}

}  // namespace

Program assemble(std::string_view source) {
  ProgramBuilder b;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    auto newline = source.find('\n', pos);
    if (newline == std::string_view::npos) newline = source.size();
    std::string_view line = source.substr(pos, newline - pos);
    pos = newline + 1;
    ++line_no;

    // Strip comments ('#' or ';') and whitespace.
    if (const auto hash = line.find_first_of("#;"); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) {
      if (newline == source.size()) break;
      continue;
    }

    // Labels (possibly followed by an instruction on the same line).
    while (true) {
      const auto colon = line.find(':');
      if (colon == std::string_view::npos) break;
      const auto name = trim(line.substr(0, colon));
      expect(!name.empty() && is_symbol_start(name[0]), line_no, "bad label");
      b.label(std::string(name));
      line = trim(line.substr(colon + 1));
      if (line.empty()) break;
    }
    if (line.empty()) {
      if (newline == source.size()) break;
      continue;
    }

    // Mnemonic and operands.
    auto space = line.find_first_of(" \t");
    const std::string mnem(line.substr(0, space));
    const auto ops = split_operands(
        space == std::string_view::npos ? std::string_view{} : line.substr(space));
    auto operand = [&](std::size_t i) { return parse_operand(ops[i], line_no); };

    // Pseudo-instructions first.
    if (mnem == "li") {
      expect(ops.size() == 2, line_no, "li takes rd, imm");
      b.li(want_x(operand(0), line_no), want_imm(operand(1), line_no));
    } else if (mnem == "mv") {
      expect(ops.size() == 2, line_no, "mv takes rd, rs1");
      b.mv(want_x(operand(0), line_no), want_x(operand(1), line_no));
    } else if (mnem == "nop") {
      expect(ops.empty(), line_no, "nop takes no operands");
      b.nop();
    } else if (mnem == "j") {
      expect(ops.size() == 1, line_no, "j takes a target");
      const Operand t = operand(0);
      if (t.kind == OperandKind::kSymbol) {
        b.jal_insn(0, t.symbol);
      } else {
        b.insn({Op::kJal, 0, 0, 0, want_imm(t, line_no)});
      }
    } else if (mnem == "ret") {
      expect(ops.empty(), line_no, "ret takes no operands");
      b.jalr(0, 1, 0);
    } else {
      const auto it = mnemonic_table().find(mnem);
      expect(it != mnemonic_table().end(), line_no, "unknown mnemonic");
      const Op op = it->second;
      switch (*fmt_of(op)) {
        case Fmt::kRType: {
          expect(ops.size() == 3, line_no, "R-type takes rd, rs1, rs2");
          b.insn({op, static_cast<std::uint8_t>(want_x(operand(0), line_no)),
                  static_cast<std::uint8_t>(want_x(operand(1), line_no)),
                  static_cast<std::uint8_t>(want_x(operand(2), line_no)), 0});
          break;
        }
        case Fmt::kIType: {
          expect(ops.size() == 3, line_no, "I-type takes rd, rs1, imm");
          b.insn({op, static_cast<std::uint8_t>(want_x(operand(0), line_no)),
                  static_cast<std::uint8_t>(want_x(operand(1), line_no)), 0,
                  want_imm(operand(2), line_no)});
          break;
        }
        case Fmt::kLoad: {
          expect(ops.size() == 2, line_no, "load takes rd, imm(rs1)");
          const Operand mem = operand(1);
          expect(mem.kind == OperandKind::kMem, line_no, "expected imm(base)");
          b.insn({op, static_cast<std::uint8_t>(want_x(operand(0), line_no)),
                  static_cast<std::uint8_t>(mem.reg), 0, mem.imm});
          break;
        }
        case Fmt::kStore: {
          expect(ops.size() == 2, line_no, "store takes rs2, imm(rs1)");
          const Operand mem = operand(1);
          expect(mem.kind == OperandKind::kMem, line_no, "expected imm(base)");
          b.insn({op, 0, static_cast<std::uint8_t>(mem.reg),
                  static_cast<std::uint8_t>(want_x(operand(0), line_no)),
                  mem.imm});
          break;
        }
        case Fmt::kRawLoad: {
          expect(ops.size() == 3, line_no, "raw load takes rd, rs1, eN");
          b.insn({op, static_cast<std::uint8_t>(want_x(operand(0), line_no)),
                  static_cast<std::uint8_t>(want_x(operand(1), line_no)),
                  static_cast<std::uint8_t>(want_e(operand(2), line_no)), 0});
          break;
        }
        case Fmt::kRawStore: {
          expect(ops.size() == 3, line_no, "raw store takes rs2, rs1, eN");
          // e-register index rides in the rd field (see encoder.cpp).
          b.insn({op, static_cast<std::uint8_t>(want_e(operand(2), line_no)),
                  static_cast<std::uint8_t>(want_x(operand(1), line_no)),
                  static_cast<std::uint8_t>(want_x(operand(0), line_no)), 0});
          break;
        }
        case Fmt::kBranch: {
          expect(ops.size() == 3, line_no, "branch takes rs1, rs2, target");
          const unsigned rs1 = want_x(operand(0), line_no);
          const unsigned rs2 = want_x(operand(1), line_no);
          const Operand target = operand(2);
          if (target.kind == OperandKind::kSymbol) {
            b.branch_insn(op, rs1, rs2, target.symbol);
          } else {
            b.insn({op, 0, static_cast<std::uint8_t>(rs1),
                    static_cast<std::uint8_t>(rs2),
                    want_imm(target, line_no)});
          }
          break;
        }
        case Fmt::kJal: {
          expect(ops.size() == 2, line_no, "jal takes rd, target");
          const unsigned rd = want_x(operand(0), line_no);
          const Operand target = operand(1);
          if (target.kind == OperandKind::kSymbol) {
            b.jal_insn(rd, target.symbol);
          } else {
            b.insn({Op::kJal, static_cast<std::uint8_t>(rd), 0, 0,
                    want_imm(target, line_no)});
          }
          break;
        }
        case Fmt::kJalr: {
          expect(ops.size() == 2, line_no, "jalr takes rd, imm(rs1)");
          const Operand mem = operand(1);
          expect(mem.kind == OperandKind::kMem, line_no, "expected imm(base)");
          b.insn({Op::kJalr,
                  static_cast<std::uint8_t>(want_x(operand(0), line_no)),
                  static_cast<std::uint8_t>(mem.reg), 0, mem.imm});
          break;
        }
        case Fmt::kUType: {
          expect(ops.size() == 2, line_no, "U-type takes rd, imm");
          b.insn({op, static_cast<std::uint8_t>(want_x(operand(0), line_no)),
                  0, 0, want_imm(operand(1), line_no)});
          break;
        }
        case Fmt::kEaddie: {
          expect(ops.size() == 3, line_no, "eaddie takes eN, rs1, imm");
          b.eaddie(want_e(operand(0), line_no), want_x(operand(1), line_no),
                   want_imm(operand(2), line_no));
          break;
        }
        case Fmt::kEaddix: {
          expect(ops.size() == 3, line_no, "eaddix takes rd, eN, imm");
          b.eaddix(want_x(operand(0), line_no), want_e(operand(1), line_no),
                   want_imm(operand(2), line_no));
          break;
        }
        case Fmt::kNullary: {
          expect(ops.empty(), line_no, "takes no operands");
          b.insn({op, 0, 0, 0, 0});
          break;
        }
      }
    }
    if (newline == source.size()) break;
  }
  return b.build();
}

std::string disassemble(const Program& program) {
  std::string out;
  for (std::size_t i = 0; i < program.size(); ++i) {
    out += strfmt("%4zu: %08x  %s\n", i * 4, program.words[i],
                  to_string(program.insts[i]).c_str());
  }
  return out;
}

}  // namespace xbgas::isa
