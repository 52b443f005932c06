// Threaded-code backend: translation pass + computed-goto dispatch loop.
//
// See threaded.h for the lowering rules and DESIGN.md §13 for the
// equivalence argument. The executor is written against the same semantic
// primitives as the interpreter (CpuState::read/write, the MAJC_INT_OPS and
// MAJC_LOAD_OPS / MAJC_STORE_OPS tables and the other shared op definitions
// of exec.h, whose load_words / store_words run over a raw arena view on
// the fast path and over the MemoryBus typed helpers on the trap path, the
// per-class exec_* functions for SIMD/FP and execute_packet for generic
// packets), so every guest-visible outcome — including trap cause/detail
// strings — is bit-identical by construction.
#include "src/sim/threaded.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "src/sim/exec.h"
#include "src/sim/functional_sim.h"
#include "src/sim/predecode.h"
#include "src/support/trap.h"

namespace majc::sim {
namespace {

using isa::Instr;
using isa::Op;
using isa::PhysReg;

// Record kinds. One integer kind per MAJC_INT_OPS row and one memory kind
// per MAJC_LOAD_OPS / MAJC_STORE_OPS row (exec.h), each named after its row,
// come first; MAJC_REC_KINDS lists the rest. The enum and the computed-goto
// label table expand the lists in the same order, so a mismatch is a
// compile error, not a misdispatch. A load/store record addresses
// ea = read(b) + read(c) + imm and moves registers a, a+1, ...
#define MAJC_REC_KINDS(X)                                                     \
  /* integer divide: a=rd, b=rs1, c=rs2; GETTICK: a=rd */                     \
  X(kDiv) X(kDivu) X(kGettick)                                                \
  /* stcw / cas / swap: a=rd, b=rs1 (the address), c=rs2 */                   \
  X(kStcw) X(kCas) X(kSwap)                                                   \
  /* control (slot 0, executed last) */                                       \
  X(kBnz) X(kBz) X(kCallRec) X(kJmplRec) X(kHaltRec)                          \
  X(kTrapCon) X(kSettvecRec)                                                  \
  /* SIMD / FP through the per-class executors: arg = slot_ops index */      \
  X(kSlotOp)                                                                  \
  /* direct SIMD / FP specializations for the Table 1/2 hot ops */            \
  X(kDotp) X(kFmaddF32)                                                       \
  /* deferred-commit parallel packet: optional mem slot 0 + slot-op slots */  \
  X(kMemSlots)                                                                \
  /* fallbacks / sentinels */                                                 \
  X(kNopRec) X(kGenericPacket) X(kEndOfCode)

enum Kind : u8 {
#define MAJC_INT_KIND(name, src, result) k##name,
  MAJC_INT_OPS(MAJC_INT_KIND)
#undef MAJC_INT_KIND
#define MAJC_MEM_KIND(name, T) k##name,
  MAJC_LOAD_OPS(MAJC_MEM_KIND) MAJC_STORE_OPS(MAJC_MEM_KIND)
#undef MAJC_MEM_KIND
#define MAJC_KIND_ENUM(k) k,
  MAJC_REC_KINDS(MAJC_KIND_ENUM)
#undef MAJC_KIND_ENUM
      kNumKinds
};
static_assert(kNumKinds <= 256);

using Rec = ThreadedCode::Rec;
using SlotOp = ThreadedCode::SlotOp;

// ---------------------------------------------------------------------------
// Translation
// ---------------------------------------------------------------------------

/// Record kind of a MAJC_INT_OPS op; -1 for every other op.
int int_kind(Op op) {
  switch (op) {
#define MAJC_INT_KIND_OF(name, src, result) \
  case Op::k##name:                         \
    return k##name;
    MAJC_INT_OPS(MAJC_INT_KIND_OF)
#undef MAJC_INT_KIND_OF
    default:
      return -1;
  }
}

/// Does slot 0 of this packet redirect control flow? Such packets execute
/// slots 1..w-1 first and the transfer last (the transfer decides the next
/// record, after the other slots committed).
bool is_transfer(const Instr& in) {
  const isa::OpInfo& info = in.info();
  return info.has(isa::kBranch) || info.has(isa::kCall) ||
         info.has(isa::kJump) || info.has(isa::kHalt);
}

/// Sequential execution in `order` is equivalent to the packet's parallel
/// read / joint commit iff no earlier-executed slot's destinations intersect
/// a later-executed slot's sources or destinations.
bool sequential_ok(const PacketMeta& m, const u32* order, u32 n) {
  for (u32 ei = 0; ei + 1 < n; ++ei) {
    const auto& de = m.slot[order[ei]].dests;
    if (de.size() == 0) continue;
    for (u32 li = ei + 1; li < n; ++li) {
      const u32 l = order[li];
      for (PhysReg r : de) {
        for (const PacketMeta::SrcRead& s : m.srcs) {
          if (s.fu == l && s.reg == r) return false;
        }
        for (PhysReg dl : m.slot[l].dests) {
          if (dl == r) return false;
        }
      }
    }
  }
  return true;
}

/// Record kind of a MAJC_LOAD_OPS / MAJC_STORE_OPS op, R or I form (the
/// unified ea = b + c + imm lowering; kMemSlots packs one of these beside
/// its slot ops); -1 for anything else.
int mem_kind_of(Op op) {
  switch (op) {
#define MAJC_MEM_KIND_OF(name, T) \
  case Op::k##name:               \
  case Op::k##name##i:            \
    return k##name;
    MAJC_LOAD_OPS(MAJC_MEM_KIND_OF)
    MAJC_STORE_OPS(MAJC_MEM_KIND_OF)
#undef MAJC_MEM_KIND_OF
    default:
      return -1;
  }
}

/// Lower one slot to a record. Returns false when the op has no specialized
/// lowering (the whole packet then falls back to kGenericPacket).
bool lower_slot(const Instr& in, u32 fu, const PacketMeta& m,
                std::vector<Rec>& out, std::vector<SlotOp>& slot_ops) {
  const isa::OpInfo& info = in.info();
  Rec r;
  r.pc = static_cast<u32>(m.pc);
  const PhysReg rd = isa::to_phys(in.rd, fu);
  const PhysReg rs1 = isa::to_phys(in.rs1, fu);
  const PhysReg rs2 = isa::to_phys(in.rs2, fu);

  auto rrr = [&](u8 kind) {
    r.kind = kind;
    r.a = rd;
    r.b = rs1;
    r.c = rs2;
    out.push_back(r);
  };
  // Unified load/store addressing: ea = read(b) + read(c) + imm. The R form
  // uses (rs1, rs2, 0); the I form uses (rs1, g0, imm) — g0 reads zero.
  auto mem = [&](u8 kind) {
    r.kind = kind;
    r.a = rd;
    r.b = rs1;
    if (info.form == isa::Form::kI) {
      r.c = 0;
      r.imm = in.imm;
    } else {
      r.c = rs2;
      r.imm = 0;
    }
    out.push_back(r);
  };
  auto slot_op = [&](u8 kind) {
    r.kind = kind;
    r.arg = static_cast<u32>(slot_ops.size());
    slot_ops.push_back({in, static_cast<u8>(fu)});
    out.push_back(r);
  };

  if (const int k = int_kind(in.op); k >= 0) {
    // Each MAJC_INT_OPS row takes operand b from c or imm (its src column).
    r.imm = in.imm;
    rrr(static_cast<u8>(k));
    return true;
  }
  if (const int k = mem_kind_of(in.op); k >= 0) {
    mem(static_cast<u8>(k));
    return true;
  }
  switch (in.op) {
    case Op::kDiv: rrr(kDiv); return true;
    case Op::kDivu: rrr(kDivu); return true;
    case Op::kStcw: rrr(kStcw); return true;
    case Op::kCas: rrr(kCas); return true;
    case Op::kSwap: rrr(kSwap); return true;
    case Op::kPref: case Op::kPrefi: case Op::kMembar:
      // Non-faulting, no architectural effect in functional mode: emit
      // nothing (the packet's ins_add still counts the instruction).
      return true;
    case Op::kBnz:
    case Op::kBz:
      r.kind = in.op == Op::kBnz ? kBnz : kBz;
      r.a = rd;  // condition register
      r.imm = in.imm;
      r.arg = m.taken_index;  // packet index; patched to a record index
      out.push_back(r);
      return true;
    case Op::kCall:
      r.kind = kCallRec;
      r.imm = in.imm;
      r.arg = m.taken_index;
      out.push_back(r);
      return true;
    case Op::kJmpl:
      r.kind = kJmplRec;
      r.a = rd;
      r.b = rs1;
      out.push_back(r);
      return true;
    case Op::kHalt:
      r.kind = kHaltRec;
      out.push_back(r);
      return true;
    case Op::kNop:
      return true;  // no record; counted through ins_add
    case Op::kTrap:
      r.kind = kTrapCon;
      r.a = rs1;
      r.imm = in.imm;
      out.push_back(r);
      return true;
    case Op::kGetcpu:
    case Op::kGettid:
      r.kind = kSetlo;  // FunctionalSim runs cpu 0 / thread 0: setlo 0
      r.a = rd;
      out.push_back(r);
      return true;
    case Op::kGettick:
      r.kind = kGettick;
      r.a = rd;
      out.push_back(r);
      return true;
    case Op::kSettvec:
      r.kind = kSettvecRec;
      r.a = rd;
      out.push_back(r);
      return true;
    case Op::kMftr:
    case Op::kRett:
      // Trap-handler plumbing: cold by construction; the generic lowering
      // reuses execute_packet and is exactly the interpreter.
      return false;
    case Op::kDotp: rrr(kDotp); return true;    // Table 2 DCT/FIR workhorse
    case Op::kFmadd: rrr(kFmaddF32); return true;  // FP FIR/LMS workhorse
    default:
      if (info.cls == isa::OpClass::kSimd || info.cls == isa::OpClass::kFp32 ||
          info.cls == isa::OpClass::kFp64) {
        slot_op(kSlotOp);
        return true;
      }
      return false;
  }
}

} // namespace

std::string format_shape_stats(const ShapeStats& s, std::size_t top_n) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "packets %llu  records %llu  generic %llu\n",
                static_cast<unsigned long long>(s.packets),
                static_cast<unsigned long long>(s.records),
                static_cast<unsigned long long>(s.generic_packets));
  out += buf;
  std::vector<std::pair<std::string, u64>> rows(s.shapes.begin(),
                                                s.shapes.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  out += "top packet shapes:\n";
  if (rows.empty()) out += "  (none)\n";
  for (std::size_t i = 0; i < rows.size() && i < top_n; ++i) {
    std::snprintf(buf, sizeof buf, "  %-32s %llu\n", rows[i].first.c_str(),
                  static_cast<unsigned long long>(rows[i].second));
    out += buf;
  }
  return out;
}

ThreadedCode translate(const Program& prog) {
  ThreadedCode tc;
  const u32 n = static_cast<u32>(prog.num_packets());
  tc.stats.packets = n;

  // Lower each packet to its records (execution order), branch targets
  // still expressed as packet indices.
  tc.entry.resize(n);
  std::vector<Rec> out;
  for (u32 i = 0; i < n; ++i) {
    const isa::Packet& p = prog.packet(i);
    const PacketMeta& m = prog.meta(i);

    std::string shape;
    for (u32 s = 0; s < p.width; ++s) {
      if (s) shape += '+';
      shape += p.slot[s].info().mnemonic;
    }
    ++tc.stats.shapes[shape];

    // Execution order: trap-capable slot-0 ops (memory, divide) first so a
    // trapping packet commits nothing; control transfers last so the other
    // slots committed before the flow redirects.
    u32 order[isa::kMaxSlots];
    u32 w = 0;
    const bool transfer = p.width > 0 && is_transfer(p.slot[0]);
    if (transfer) {
      for (u32 s = 1; s < p.width; ++s) order[w++] = s;
      order[w++] = 0;
    } else {
      for (u32 s = 0; s < p.width; ++s) order[w++] = s;
    }

    out.clear();
    bool ok = sequential_ok(m, order, w);
    if (ok) {
      for (u32 s = 0; s < w && ok; ++s) {
        ok = lower_slot(p.slot[order[s]], order[s], m, out, tc.slot_ops);
      }
    }
    if (ok && out.empty()) {
      // nop / prefetch / membar packets: a record must still retire them.
      Rec r;
      r.kind = kNopRec;
      r.pc = static_cast<u32>(m.pc);
      out.push_back(r);
    }
    if (!ok) {
      out.clear();
      // Deferred-commit parallel packet: slot 0 is a unified-addressing
      // memory op (or contributes nothing), every other slot runs through a
      // per-class executor. The slot ops evaluate into scratch effects that
      // commit only after the (trap-capable) memory op succeeded, so this
      // shape needs no hazard proof at all — it IS the parallel-read,
      // slot-order-commit semantics, minus the generic packet walk.
      const Op op0 = p.slot[0].op;
      const int mk = op0 == Op::kNop || op0 == Op::kPref ||
                             op0 == Op::kPrefi || op0 == Op::kMembar
                         ? 0xFF  // no memory op
                         : mem_kind_of(op0);
      bool mem_slots_ok = !transfer && p.width >= 2 && mk >= 0;
      u32 n_slot_ops = 0;
      if (mem_slots_ok) {
        for (u32 s = 1; s < p.width && mem_slots_ok; ++s) {
          const isa::OpClass cls = p.slot[s].info().cls;
          if (p.slot[s].op == Op::kNop) continue;
          mem_slots_ok = cls == isa::OpClass::kSimd ||
                         cls == isa::OpClass::kFp32 ||
                         cls == isa::OpClass::kFp64;
          if (mem_slots_ok) ++n_slot_ops;
        }
        mem_slots_ok = mem_slots_ok && n_slot_ops > 0;
      }
      if (mem_slots_ok) {
        // The memory op's own record supplies the a/b/c/imm addressing.
        Rec f;
        if (mk != 0xFF && lower_slot(p.slot[0], 0, m, out, tc.slot_ops)) {
          f = out.back();
          out.clear();
        }
        f.kind = kMemSlots;
        f.pc = static_cast<u32>(m.pc);
        f.d = static_cast<u8>(mk);
        f.arg = static_cast<u32>(tc.slot_ops.size());
        f.e = static_cast<u8>(n_slot_ops);
        for (u32 s = 1; s < p.width; ++s) {
          if (p.slot[s].op == Op::kNop) continue;
          tc.slot_ops.push_back({p.slot[s], static_cast<u8>(s)});
        }
        out.push_back(f);
      } else {
        Rec r;
        r.kind = kGenericPacket;
        r.pc = static_cast<u32>(m.pc);
        r.imm = static_cast<i32>(i);
        r.arg = m.taken_index;  // packet index; patched below
        out.push_back(r);
        ++tc.stats.generic_packets;
      }
    }

    // The last-executed record retires the packet.
    out.back().pk_add = 1;
    out.back().ins_add = static_cast<u8>(m.width);
    tc.entry[i] = static_cast<u32>(tc.recs.size());
    tc.recs.insert(tc.recs.end(), out.begin(), out.end());
  }

  // Patch packet indices to record indices.
  Rec end;
  end.kind = kEndOfCode;
  end.pc = static_cast<u32>(n == 0 ? prog.image().code_base
                                   : prog.meta(n - 1).fall_through);
  tc.recs.push_back(end);

  for (Rec& r : tc.recs) {
    switch (r.kind) {
      case kBnz:
      case kBz:
      case kCallRec:
      case kGenericPacket:
        r.arg = r.arg < n ? tc.entry[r.arg] : kNoRec;
        break;
      default:
        break;
    }
  }
  tc.stats.records = tc.recs.size();
  return tc;
}

// ---------------------------------------------------------------------------
// Program integration
// ---------------------------------------------------------------------------

Program::~Program() = default;

const ThreadedCode& Program::threaded() const {
  std::call_once(threaded_once_, [&] {
    threaded_ = std::make_unique<ThreadedCode>(translate(*this));
  });
  return *threaded_;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

namespace {

/// Accessor over the FlatMemory arena for the records' fast path: raw
/// little-endian copies, valid only where fits<T>() holds (aligned and in
/// range). Everything else takes the BusView path, which traps.
struct ArenaView {
  u8* base;
  i64 size;
  template <class T>
  [[gnu::always_inline]] bool fits(u32 ea) const {
    constexpr u32 kAlign = sizeof(typename MemShape<T>::Word);
    return (ea & (kAlign - 1)) == 0 &&
           static_cast<i64>(ea) + MemShape<T>::kBytes <= size;
  }
  template <class W>
  [[gnu::always_inline]] void load(Addr a, W& v) const {
    std::memcpy(&v, base + a, sizeof v);
  }
  template <class W>
  [[gnu::always_inline]] void store(Addr a, W v) const {
    std::memcpy(base + a, &v, sizeof v);
  }
};

struct ExecCtx {
  const Program& prog;
  const ThreadedCode& tc;
  CpuState& st;
  ExecEnv& env;
  RunResult& res;
  u64& packets_run;
  u64& instrs_run;
  u64 max_packets;
  ArenaView arena;  // records' fast path
  BusView bus;      // their trap path, and stcw / cas / swap
  PacketScratch& scratch;  // kGenericPacket's execute_packet storage
};

/// Evaluate one side-table slot op through its per-class executor into `fx`
/// — exact semantics reuse for SIMD/FP (these ops cannot trap: the executors
/// cover every opcode of their class).
inline void eval_slot_op(ExecCtx& cx, const SlotOp& so, SlotEffects& fx) {
  switch (so.in.info().cls) {
    case isa::OpClass::kSimd: exec_simd(so.in, so.fu, cx.st, fx); break;
    case isa::OpClass::kFp32: exec_fp32(so.in, so.fu, cx.st, fx); break;
    default: exec_fp64(so.in, so.fu, cx.st, fx); break;
  }
}

inline void run_slot_op(ExecCtx& cx, u32 idx) {
  SlotEffects fx;
  eval_slot_op(cx, cx.tc.slot_ops[idx], fx);
  for (const WriteBack& wb : fx.writes) cx.st.write(wb.reg, wb.value);
}

/// A MAJC_LOAD_OPS / MAJC_STORE_OPS record: the arena fast path when the
/// access is aligned and in range, else the MemoryBus path with st.pc
/// naming the packet for the trap it raises. Loads commit after every
/// access.
template <class T, bool kStore>
[[gnu::always_inline]] inline void mem_rec(ExecCtx& cx, const Rec* rp) {
  CpuState& st = cx.st;
  const u32 ea = st.read(rp->b) + st.read(rp->c) + static_cast<u32>(rp->imm);
  constexpr u32 n = MemShape<T>::kWords;
  const auto reg = [rp](u32 i) { return static_cast<PhysReg>(rp->a + i); };
  u32 w[n];
  if constexpr (kStore) {
    for (u32 i = 0; i < n; ++i) w[i] = st.read(reg(i));
  }
  if (cx.arena.fits<T>(ea)) [[likely]] {
    if constexpr (kStore) store_words<T>(cx.arena, ea, w);
    else load_words<T>(cx.arena, ea, w);
  } else {
    st.pc = rp->pc;
    if constexpr (kStore) store_words<T>(cx.bus, ea, w);
    else load_words<T>(cx.bus, ea, w);
  }
  if constexpr (!kStore) {
    for (u32 i = 0; i < n; ++i) st.write(reg(i), w[i]);
  }
}

/// The deferred memory op of a kMemSlots record (rp->d is its kind): runs
/// (and may throw) before any slot-op effect commits, then commits its own
/// loads — slot 0 commits first, like the interpreter.
void exec_mem_slot(ExecCtx& cx, const Rec* rp) {
  switch (rp->d) {
#define MAJC_LOAD_SLOT(name, T) \
  case k##name:                 \
    return mem_rec<T, false>(cx, rp);
#define MAJC_STORE_SLOT(name, T) \
  case k##name:                  \
    return mem_rec<T, true>(cx, rp);
    MAJC_LOAD_OPS(MAJC_LOAD_SLOT)
    MAJC_STORE_OPS(MAJC_STORE_SLOT)
#undef MAJC_LOAD_SLOT
#undef MAJC_STORE_SLOT
  }
}

#define DISPATCH() goto* kLbl[rp->kind]

// Retire the packet this record completes (interior records carry
// pk_add == 0) and fall through to the next record. On a cap exit st.pc is
// the next unexecuted packet's address — records are contiguous, so rp[1]
// exists (the stream ends with kEndOfCode) and rp[1].pc is the fall-through.
#define RETIRE_NEXT()                                        \
  do {                                                       \
    if (rp->pk_add != 0) {                                   \
      cx.res.packets += rp->pk_add;                          \
      cx.packets_run += rp->pk_add;                          \
      cx.res.instrs += rp->ins_add;                          \
      cx.instrs_run += rp->ins_add;                          \
      if (cx.res.packets >= cx.max_packets) {                \
        st.pc = rp[1].pc;                                    \
        return;                                              \
      }                                                      \
    }                                                        \
    ++rp;                                                    \
    DISPATCH();                                              \
  } while (0)

// Retire a control-transfer record and redirect. Mirrors the interpreter's
// order exactly: retire, then cap check (a cap exit never resolves the
// target — a taken branch to a non-boundary address on the cap-th packet
// exits kPacketCap without trapping), then resolve.
#define RETIRE_TRANSFER(taken_expr)                                          \
  do {                                                                       \
    const bool tk = (taken_expr);                                            \
    cx.res.packets += 1;                                                     \
    cx.packets_run += 1;                                                     \
    cx.res.instrs += rp->ins_add;                                            \
    cx.instrs_run += rp->ins_add;                                            \
    if (tk) {                                                                \
      if (rp->arg != kNoRec) {                                               \
        const Rec* nx = recs + rp->arg;                                      \
        if (cx.res.packets >= cx.max_packets) {                              \
          st.pc = nx->pc;                                                    \
          return;                                                            \
        }                                                                    \
        rp = nx;                                                             \
        DISPATCH();                                                          \
      }                                                                      \
      st.pc = Addr{rp->pc} +                                                 \
              static_cast<Addr>(static_cast<i64>(rp->imm) * 4);              \
      if (cx.res.packets >= cx.max_packets) return;                          \
      cx.prog.index_of(st.pc); /* not a packet boundary: throws */           \
    }                                                                        \
    if (cx.res.packets >= cx.max_packets) {                                  \
      st.pc = rp[1].pc;                                                      \
      return;                                                                \
    }                                                                        \
    ++rp;                                                                    \
    DISPATCH();                                                              \
  } while (0)

/// Run records until the guest halts or the packet cap is reached; throws
/// TrapException for architected traps (the caller delivers or terminates).
/// Invariant at every throw site: st.pc names the faulting packet (or the
/// invalid transfer target), exactly like the interpreter.
void exec_records(ExecCtx& cx, u32 start_rec) {
  const Rec* const recs = cx.tc.recs.data();
  const Rec* rp = recs + start_rec;
  CpuState& st = cx.st;

  static const void* const kLbl[] = {
#define MAJC_INT_LBL(name, src, result) &&L_k##name,
      MAJC_INT_OPS(MAJC_INT_LBL)
#undef MAJC_INT_LBL
#define MAJC_MEM_LBL(name, T) &&L_k##name,
      MAJC_LOAD_OPS(MAJC_MEM_LBL) MAJC_STORE_OPS(MAJC_MEM_LBL)
#undef MAJC_MEM_LBL
#define MAJC_KIND_LBL(k) &&L_##k,
      MAJC_REC_KINDS(MAJC_KIND_LBL)
#undef MAJC_KIND_LBL
  };
  DISPATCH();

  // One label per MAJC_INT_OPS row. The record holds rd in a, rs1 in b and
  // rs2 in c; the row's src column takes operand b from c (R) or imm (I).
#define MAJC_B_R st.read(rp->c)
#define MAJC_B_I static_cast<u32>(rp->imm)
#define MAJC_INT_REC(name, src, result)              \
  L_k##name : {                                      \
    [[maybe_unused]] const u32 a = st.read(rp->b);   \
    const u32 b = MAJC_B_##src;                      \
    [[maybe_unused]] const u32 old = st.read(rp->a); \
    st.write(rp->a, (result));                       \
    RETIRE_NEXT();                                   \
  }
  MAJC_INT_OPS(MAJC_INT_REC)
#undef MAJC_INT_REC
#undef MAJC_B_R
#undef MAJC_B_I
  L_kGettick: {
    st.write(rp->a, static_cast<u32>(cx.packets_run));
    RETIRE_NEXT();
  }
  L_kDiv: {
    st.pc = rp->pc;  // int_div may trap
    st.write(rp->a,
             int_div(st.read(rp->b), st.read(rp->c), cx.env.trap_div_zero));
    RETIRE_NEXT();
  }
  L_kDivu: {
    st.pc = rp->pc;
    st.write(rp->a,
             int_divu(st.read(rp->b), st.read(rp->c), cx.env.trap_div_zero));
    RETIRE_NEXT();
  }
  // One label per MAJC_LOAD_OPS / MAJC_STORE_OPS row.
#define MAJC_LOAD_REC(name, T) \
  L_k##name : {                \
    mem_rec<T, false>(cx, rp); \
    RETIRE_NEXT();             \
  }
#define MAJC_STORE_REC(name, T) \
  L_k##name : {                 \
    mem_rec<T, true>(cx, rp);   \
    RETIRE_NEXT();              \
  }
  MAJC_LOAD_OPS(MAJC_LOAD_REC)
  MAJC_STORE_OPS(MAJC_STORE_REC)
#undef MAJC_LOAD_REC
#undef MAJC_STORE_REC
  L_kStcw: {
    st.pc = rp->pc;
    if (st.read(rp->c) != 0) {
      cx.bus.store(Addr{st.read(rp->b)}, st.read(rp->a));
    }
    RETIRE_NEXT();
  }
  L_kCas: {
    st.pc = rp->pc;
    st.write(rp->a, cas_word(cx.bus, Addr{st.read(rp->b)}, st.read(rp->c),
                             st.read(rp->a)));
    RETIRE_NEXT();
  }
  L_kSwap: {
    st.pc = rp->pc;
    st.write(rp->a, swap_word(cx.bus, Addr{st.read(rp->b)}, st.read(rp->a)));
    RETIRE_NEXT();
  }
  L_kBnz: {
    RETIRE_TRANSFER(st.read(rp->a) != 0);
  }
  L_kBz: {
    RETIRE_TRANSFER(st.read(rp->a) == 0);
  }
  L_kCallRec: {
    st.write(isa::to_phys(isa::kLinkReg, 0), rp[1].pc);
    RETIRE_TRANSFER(true);
  }
  L_kJmplRec: {
    const Addr target = static_cast<Addr>(st.read(rp->b));
    st.write(rp->a, rp[1].pc);  // link = fall-through (next record's pc)
    cx.res.packets += 1;
    cx.packets_run += 1;
    cx.res.instrs += rp->ins_add;
    cx.instrs_run += rp->ins_add;
    st.pc = target;
    if (cx.res.packets >= cx.max_packets) return;
    rp = recs + cx.tc.entry[cx.prog.index_of(st.pc)];  // throws on miss
    DISPATCH();
  }
  L_kHaltRec: {
    st.halted = true;
    st.pc = rp[1].pc;  // fall-through, as the interpreter leaves it
    cx.res.packets += 1;
    cx.packets_run += 1;
    cx.res.instrs += rp->ins_add;
    cx.instrs_run += rp->ins_add;
    return;
  }
  L_kTrapCon: {
    if (cx.env.console != nullptr) {
      format_console_trap(*cx.env.console, static_cast<u32>(rp->imm),
                          st.read(rp->a));
    }
    RETIRE_NEXT();
  }
  L_kSettvecRec: {
    st.tvec = static_cast<Addr>(st.read(rp->a));
    RETIRE_NEXT();
  }
  L_kSlotOp: {
    run_slot_op(cx, rp->arg);
    RETIRE_NEXT();
  }
  L_kDotp: {
    st.write(rp->a, dotp_eval(st.read(rp->a), st.read(rp->b), st.read(rp->c)));
    RETIRE_NEXT();
  }
  L_kFmaddF32: {
    st.write(rp->a,
             fmadd_eval(st.read(rp->a), st.read(rp->b), st.read(rp->c)));
    RETIRE_NEXT();
  }
  L_kMemSlots: {
    // Parallel-read packet with deferred commit: slot ops evaluate into
    // scratch effects against pre-packet state; the trap-capable memory op
    // runs (and commits) first; only then do the slot effects land.
    SlotEffects fx;
    const SlotOp* so = cx.tc.slot_ops.data() + rp->arg;
    for (u32 i = 0; i < rp->e; ++i) eval_slot_op(cx, so[i], fx);
    if (rp->d != 0xFF) exec_mem_slot(cx, rp);
    for (const WriteBack& wb : fx.writes) st.write(wb.reg, wb.value);
    RETIRE_NEXT();
  }
  L_kNopRec: {
    RETIRE_NEXT();
  }
  L_kGenericPacket: {
    const u32 pi = static_cast<u32>(rp->imm);
    const isa::Packet& p = cx.prog.packet(pi);
    const PacketMeta& m = cx.prog.meta(pi);
    st.pc = rp->pc;
    const PacketOutcome out = execute_packet(st, p, m, cx.env, cx.scratch);
    cx.res.packets += 1;
    cx.packets_run += 1;
    cx.res.instrs += out.width;
    cx.instrs_run += out.width;
    if (st.halted) return;
    if (out.next_pc == m.fall_through) {
      if (cx.res.packets >= cx.max_packets) return;  // st.pc == rp[1].pc
      ++rp;
      DISPATCH();
    }
    if (rp->arg != kNoRec && out.next_pc == m.taken_target) {
      if (cx.res.packets >= cx.max_packets) return;
      rp = recs + rp->arg;
      DISPATCH();
    }
    if (cx.res.packets >= cx.max_packets) return;
    rp = recs + cx.tc.entry[cx.prog.index_of(st.pc)];  // throws on miss
    DISPATCH();
  }
  L_kEndOfCode: {
    // Fell off the end of the image: same diagnosis as the interpreter's
    // next-packet fetch.
    st.pc = rp->pc;
    cx.prog.index_of(st.pc);  // always throws (translated once, immutable)
    return;                   // unreachable
  }
}

#undef DISPATCH
#undef RETIRE_NEXT
#undef RETIRE_TRANSFER

} // namespace

RunResult FunctionalSim::run_threaded(u64 max_packets) {
  RunResult res;
  const ThreadedCode& tc = program_->threaded();
  ExecEnv env{mem_};
  env.trap_div_zero = trap_div_zero_;
  env.console = &console_;
  env.tick = &packets_run_;
  const std::span<u8> raw = mem_.raw();
  PacketScratch scratch;
  ExecCtx cx{*program_, tc, state_, env, res, packets_run_, instrs_run_,
             max_packets, {raw.data(), static_cast<i64>(raw.size())},
             BusView{mem_}, scratch};
  while (!state_.halted && res.packets < max_packets) {
    try {
      exec_records(cx, tc.entry[program_->index_of(state_.pc)]);
    } catch (const TrapException& e) {
      if (!take_trap(e, res)) return res;
    }
  }
  res.halted = state_.halted;
  res.reason = res.halted ? TerminationReason::kHalted
                          : TerminationReason::kPacketCap;
  return res;
}

} // namespace majc::sim
