// Packet execution: the instruction-accurate semantics of every opcode.
//
// A packet executes with parallel read semantics: all slots read their
// operands from the pre-packet register state, then all register writes
// commit together (the VLIW contract; only one slot, FU0, touches memory,
// so memory effects need no ordering within a packet).
//
// The same executor backs both the functional simulator and the
// cycle-accurate model, which layers timing on top of the returned
// PacketOutcome, so timed runs compute bit-identical results.
//
// The op semantics the threaded-code backend (threaded.cpp) shares with
// this executor live here, once: MAJC_INT_OPS lists every integer ALU and
// multiply op with its result expression, MAJC_LOAD_OPS / MAJC_STORE_OPS
// every plain load and store with its access shape (load_words and
// store_words are the only code that knows widths, extension, pair order
// and group order), and int_div / int_divu, cas_word / swap_word,
// dotp_eval and fmadd_eval define the rest of the ops that backend runs
// directly. Both engines stamp them into their own dispatch code, so a
// shared definition never costs a call.
#pragma once

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <type_traits>

#include "src/isa/encoding.h"
#include "src/sim/memory.h"
#include "src/sim/state.h"
#include "src/support/inline_vec.h"
#include "src/support/saturate.h"
#include "src/support/trap.h"

namespace majc::sim {

// Every integer ALU, compare, conditional-move and multiply op, one row
// each: X(name, src, result). `name` pastes to isa::Op::k<name> (and to the
// threaded backend's record kind of the same name). `src` says where
// operand b comes from: R = rs2, I = the immediate. `result` is an
// expression over the u32 operands a (rs1), b and old (rd before the
// packet). Each engine expands the rows into its own switch or
// computed-goto labels.
#define MAJC_INT_OPS(X)                                                       \
  X(Add, R, a + b)                                                            \
  X(Sub, R, a - b)                                                            \
  X(And, R, a & b)                                                            \
  X(Or, R, a | b)                                                             \
  X(Xor, R, a ^ b)                                                            \
  X(Andn, R, a & ~b)                                                          \
  X(Sll, R, a << (b & 31))                                                    \
  X(Srl, R, a >> (b & 31))                                                    \
  X(Sra, R, static_cast<u32>(static_cast<i32>(a) >> (b & 31)))                \
  X(Cmpeq, R, a == b)                                                         \
  X(Cmpne, R, a != b)                                                         \
  X(Cmplt, R, static_cast<i32>(a) < static_cast<i32>(b))                      \
  X(Cmple, R, static_cast<i32>(a) <= static_cast<i32>(b))                     \
  X(Cmpltu, R, a < b)                                                         \
  X(Cmpleu, R, a <= b)                                                        \
  X(Cmovnz, R, b != 0 ? a : old)                                              \
  X(Cmovz, R, b == 0 ? a : old)                                               \
  X(Pick, R, old != 0 ? a : b)                                                \
  X(Satadd, R,                                                                \
    static_cast<u32>(sat_add32(static_cast<i32>(a), static_cast<i32>(b))))   \
  X(Satsub, R,                                                                \
    static_cast<u32>(sat_sub32(static_cast<i32>(a), static_cast<i32>(b))))   \
  X(Addi, I, a + b)                                                           \
  X(Andi, I, a & b)                                                           \
  X(Ori, I, a | b)                                                            \
  X(Xori, I, a ^ b)                                                           \
  X(Slli, I, a << (b & 31))                                                   \
  X(Srli, I, a >> (b & 31))                                                   \
  X(Srai, I, static_cast<u32>(static_cast<i32>(a) >> (b & 31)))               \
  X(Setlo, I, b)                                                              \
  X(Sethi, I, (b & 0xFFFF) << 16)                                             \
  X(Orlo, I, old | (b & 0xFFFF))                                              \
  X(Mul, R, a * b)                                                            \
  X(Mulhi, R,                                                                 \
    static_cast<u32>((i64{static_cast<i32>(a)} * i64{static_cast<i32>(b)}) >> \
                     32))                                                     \
  X(Mulhiu, R, static_cast<u32>((u64{a} * u64{b}) >> 32))                    \
  X(Madd, R, old + a * b)                                                     \
  X(Msub, R, old - a * b)

/// Signed divide. Division by zero yields 0 and INT_MIN / -1 wraps to
/// INT_MIN: the model keeps divide total (documented choice) unless the run
/// armed the divide-by-zero trap.
[[gnu::always_inline]] inline u32 int_div(u32 a, u32 b, bool trap_zero) {
  const i32 x = static_cast<i32>(a);
  const i32 y = static_cast<i32>(b);
  if (y == 0) {
    if (trap_zero) {
      raise_trap(TrapCause::kDivideByZero, "div with zero divisor");
    }
    return 0;
  }
  if (x == std::numeric_limits<i32>::min() && y == -1) return a;
  return static_cast<u32>(x / y);
}

/// Unsigned divide; total like int_div unless the trap is armed.
[[gnu::always_inline]] inline u32 int_divu(u32 a, u32 b, bool trap_zero) {
  if (b == 0 && trap_zero) {
    raise_trap(TrapCause::kDivideByZero, "divu with zero divisor");
  }
  return b == 0 ? 0 : a / b;
}

/// Access shapes beyond one sub-word or word: Pair is ldl/stl, one 8-byte
/// access whose high word is rd and low word rd+1; Group8 is ldg/stg, eight
/// word accesses in ascending address order to rd..rd+7.
struct Pair {};
struct Group8 {};

/// `Word` is the type of each bus access (its size is also the alignment),
/// kWords the registers moved, kBytes the span touched. A sub-word signed
/// T sign-extends, an unsigned one zero-extends.
template <class T>
struct MemShape {
  using Word = std::make_unsigned_t<T>;
  static constexpr u32 kWords = 1, kBytes = sizeof(T);
};
template <>
struct MemShape<Pair> {
  using Word = u64;
  static constexpr u32 kWords = 2, kBytes = 8;
};
template <>
struct MemShape<Group8> {
  using Word = u32;
  static constexpr u32 kWords = 8, kBytes = 32;
};

// Every plain load and store, one row each: X(name, T). `name` pastes to
// isa::Op::k<name> (ea = rs1 + rs2), isa::Op::k<name>i (ea = rs1 + imm) and
// the threaded backend's record kind k<name>; T is the MemShape.
#define MAJC_LOAD_OPS(X)                                                      \
  X(Ldb, i8) X(Ldbu, u8) X(Ldh, i16) X(Ldhu, u16) X(Ldw, u32) X(Ldl, Pair)    \
  X(Ldg, Group8)
#define MAJC_STORE_OPS(X)                                                     \
  X(Stb, u8) X(Sth, u16) X(Stw, u32) X(Stl, Pair) X(Stg, Group8)

/// Load of shape T at ea through accessor `acc` into w, w[i] being the
/// value for rd + i; every access precedes the caller's commit, so a
/// trapping group load commits nothing. An accessor provides
/// load(Addr, W&) and store(Addr, W) for W = u8, u16, u32 and u64.
template <class T, class Acc>
[[gnu::always_inline]] inline void load_words(Acc& acc, Addr ea,
                                              u32 (&w)[MemShape<T>::kWords]) {
  if constexpr (std::is_same_v<T, Group8>) {
    for (u32 i = 0; i < 8; ++i) acc.load(ea + 4 * i, w[i]);
  } else if constexpr (std::is_same_v<T, Pair>) {
    u64 v;
    acc.load(ea, v);
    w[0] = static_cast<u32>(v >> 32);
    w[1] = static_cast<u32>(v);
  } else {
    typename MemShape<T>::Word v;
    acc.load(ea, v);
    w[0] = static_cast<u32>(static_cast<i32>(static_cast<T>(v)));
  }
}

/// Store of shape T at ea through `acc`; w[i] is the value of rd + i, and a
/// sub-word store keeps its low bits.
template <class T, class Acc>
[[gnu::always_inline]] inline void store_words(
    Acc& acc, Addr ea, const u32 (&w)[MemShape<T>::kWords]) {
  if constexpr (std::is_same_v<T, Group8>) {
    for (u32 i = 0; i < 8; ++i) acc.store(ea + 4 * i, w[i]);
  } else if constexpr (std::is_same_v<T, Pair>) {
    acc.store(ea, (u64{w[0]} << 32) | w[1]);
  } else {
    acc.store(ea, static_cast<typename MemShape<T>::Word>(w[0]));
  }
}

/// CAS: if the word at a equals `expect`, store `value`; rd gets the old
/// word.
template <class Acc>
[[gnu::always_inline]] inline u32 cas_word(Acc& acc, Addr a, u32 expect,
                                           u32 value) {
  u32 old;
  acc.load(a, old);
  if (old == expect) acc.store(a, value);
  return old;
}

/// SWAP: store `value` at a; rd gets the old word.
template <class Acc>
[[gnu::always_inline]] inline u32 swap_word(Acc& acc, Addr a, u32 value) {
  u32 old;
  acc.load(a, old);
  acc.store(a, value);
  return old;
}

/// Accessor over a MemoryBus: one alignment-checked typed helper call per
/// access, so faults raise the bus's architected trap and detail text.
struct BusView {
  MemoryBus& mem;
  [[gnu::always_inline]] void load(Addr a, u8& v) { v = mem.read_u8(a); }
  [[gnu::always_inline]] void load(Addr a, u16& v) { v = mem.read_u16(a); }
  [[gnu::always_inline]] void load(Addr a, u32& v) { v = mem.read_u32(a); }
  [[gnu::always_inline]] void load(Addr a, u64& v) { v = mem.read_u64(a); }
  [[gnu::always_inline]] void store(Addr a, u8 v) { mem.write_u8(a, v); }
  [[gnu::always_inline]] void store(Addr a, u16 v) { mem.write_u16(a, v); }
  [[gnu::always_inline]] void store(Addr a, u32 v) { mem.write_u32(a, v); }
  [[gnu::always_inline]] void store(Addr a, u64 v) { mem.write_u64(a, v); }
};

/// DOTP: full 32-bit precision dot product of the 16-bit lane pairs of a
/// and b, accumulated into old (paper §4). Each lane product fits in i32;
/// the sum wraps in u32 (two -32768 * -32768 products overflow i32).
[[gnu::always_inline]] inline u32 dotp_eval(u32 old, u32 a, u32 b) {
  const i32 hi = static_cast<i16>(a >> 16) * static_cast<i16>(b >> 16);
  const i32 lo = static_cast<i16>(a) * static_cast<i16>(b);
  return old + static_cast<u32>(hi) + static_cast<u32>(lo);
}

/// FMADD: single-precision fused multiply-add a * b + acc, on raw bits.
[[gnu::always_inline]] inline u32 fmadd_eval(u32 acc, u32 a, u32 b) {
  return std::bit_cast<u32>(std::fmaf(std::bit_cast<float>(a),
                                      std::bit_cast<float>(b),
                                      std::bit_cast<float>(acc)));
}

struct WriteBack {
  isa::PhysReg reg = 0;
  u32 value = 0;
};

/// The single memory operation a packet may perform (FU0 slot), described
/// for the benefit of the LSU / cache timing model.
struct MemAccess {
  enum class Kind : u8 { kNone, kLoad, kStore, kAtomic, kPrefetch, kMembar };
  Kind kind = Kind::kNone;
  Addr addr = 0;
  u32 bytes = 0;
  u8 attr = 0;  // cache attribute: 0 cached, 1 non-cached, 2 non-allocating
};

/// Console trap codes (the model's printf substitute for tests/examples).
/// Distinct from majc::TrapCause — these are the architected TRAP
/// instruction's service codes, not fault conditions.
enum class ConsoleTrap : u32 {
  kPrintInt = 0,
  kPrintChar = 1,
  kPrintHex = 2,
  kPrintFloat = 3,
};

/// Environment a packet executes in.
struct ExecEnv {
  explicit ExecEnv(MemoryBus& m) : mem(m) {}

  MemoryBus& mem;
  u32 cpu_id = 0;
  u32 thread_id = 0;  // vertical-microthreading context id (GETTID)
  /// Raise a kDivideByZero trap on integer div/divu by zero instead of the
  /// default total semantics (result 0).
  bool trap_div_zero = false;
  /// TRAP instruction output sink: formatted console text is appended here.
  /// May be null (TRAP is then a no-op). Direct member, not a std::function
  /// — this is read on the per-instruction hot path.
  std::string* console = nullptr;
  /// GETTICK source: the driver's live counter — packet count in the
  /// functional sim, cycle count in the cycle-accurate model. May be null
  /// (GETTICK then reads 0).
  const u64* tick = nullptr;

  // Set by the driver before each packet.
  Addr packet_pc = 0;
  Addr fall_through = 0;
};

/// Per-slot side effects gathered before commit.
struct SlotEffects {
  InlineVec<WriteBack, 8> writes;  // up to 8 for group loads
  MemAccess mem;
  bool is_cond_branch = false;
  bool branch_taken = false;
  bool is_call = false;
  bool is_jump = false;
  bool halt = false;
  // Trap-unit side effects (FU0 only), committed with the packet so a
  // trapping slot elsewhere in the packet leaves the trap state untouched.
  bool set_tvec = false;  // SETTVEC: latch `tvec` below into CpuState::tvec
  bool is_rett = false;   // RETT: clears CpuState::in_trap (jump via target)
  Addr tvec = 0;
  Addr target = 0;
};

/// What the driver reports about one executed packet.
struct PacketOutcome {
  u32 width = 0;
  Addr next_pc = 0;
  bool is_cond_branch = false;
  bool branch_taken = false;
  bool is_call = false;
  bool is_jump = false;
  bool halted = false;
  MemAccess mem;
};

// Per-class slot executors (internal; dispatched by execute_packet).
// exec_int covers both integer classes (OpClass::kAlu and kMulDiv).
void exec_int(const isa::Instr& in, u32 fu, const CpuState& st,
              const ExecEnv& env, SlotEffects& fx);
void exec_simd(const isa::Instr& in, u32 fu, const CpuState& st, SlotEffects& fx);
void exec_fp32(const isa::Instr& in, u32 fu, const CpuState& st, SlotEffects& fx);
void exec_fp64(const isa::Instr& in, u32 fu, const CpuState& st, SlotEffects& fx);
void exec_mem_op(const isa::Instr& in, u32 fu, const CpuState& st, ExecEnv& env,
                 SlotEffects& fx);
void exec_control(const isa::Instr& in, u32 fu, const CpuState& st,
                  ExecEnv& env, SlotEffects& fx);

/// Format one console TRAP according to ConsoleTrap; shared by both
/// simulators so functional and timed runs produce identical console text.
void format_console_trap(std::string& out, u32 code, u32 value);

/// Reusable slot-effect storage for execute_packet. Only FU0's effects
/// drive the packet outcome (branch/memory/trap/halt); slots 1..3 are
/// restricted by their FU masks to pure register-writing classes, so they
/// share one accumulator and only its `writes` list is ever consumed.
/// Reusing one scratch across packets avoids re-zero-initializing ~400
/// bytes of SlotEffects on every packet (the old per-call std::array).
struct PacketScratch {
  SlotEffects fx0;  // FU0: fully reset per packet
  SlotEffects fxn;  // slots 1..3 shared: only `writes` reset/consumed
};

struct PacketMeta;

/// Execute the packet at st.pc (which must equal the packet's address):
/// dispatches each slot on its predecoded op class, commits register
/// writes, performs memory effects and advances st.pc to the meta's
/// fall-through or the taken target. The caller owns `scratch` and reuses it
/// across packets, so per-packet setup is a few field resets instead of full
/// SlotEffects construction.
PacketOutcome execute_packet(CpuState& st, const isa::Packet& p,
                             const PacketMeta& m, ExecEnv& env,
                             PacketScratch& scratch);

} // namespace majc::sim
