// SIMD (16-bit pair), fixed point and bit/byte manipulation semantics.
#include "src/sim/exec.h"
#include "src/support/trap.h"
#include "src/support/bits.h"
#include "src/support/fixed_point.h"
#include "src/support/saturate.h"

namespace majc::sim {
namespace {

using isa::Instr;
using isa::Op;

constexpr u16 hi16(u32 v) { return static_cast<u16>(v >> 16); }
constexpr u16 lo16(u32 v) { return static_cast<u16>(v); }
constexpr u32 pack(u16 hi, u16 lo) { return (u32{hi} << 16) | lo; }
constexpr i32 s16(u16 v) { return static_cast<i16>(v); }

u32 lanewise_addsub(u32 a, u32 b, bool sub, SatMode mode) {
  const i64 h = i64{s16(hi16(a))} + (sub ? -i64{s16(hi16(b))} : i64{s16(hi16(b))});
  const i64 l = i64{s16(lo16(a))} + (sub ? -i64{s16(lo16(b))} : i64{s16(lo16(b))});
  return pack(saturate_lane(h, mode), saturate_lane(l, mode));
}

u32 lanewise_mul_int(u32 a, u32 b, SatMode mode) {
  const i64 h = i64{s16(hi16(a))} * s16(hi16(b));
  const i64 l = i64{s16(lo16(a))} * s16(lo16(b));
  return pack(saturate_lane(h, mode), saturate_lane(l, mode));
}

u32 lanewise_madd_int(u32 acc, u32 a, u32 b, SatMode mode) {
  const i64 h = i64{s16(hi16(acc))} + i64{s16(hi16(a))} * s16(hi16(b));
  const i64 l = i64{s16(lo16(acc))} + i64{s16(lo16(a))} * s16(lo16(b));
  return pack(saturate_lane(h, mode), saturate_lane(l, mode));
}

u32 lanewise_mul_fx(u32 a, u32 b, int frac, SatMode mode) {
  return pack(fx_mul(hi16(a), hi16(b), frac, mode),
              fx_mul(lo16(a), lo16(b), frac, mode));
}

u32 lanewise_madd_fx(u32 acc, u32 a, u32 b, int frac, SatMode mode) {
  return pack(fx_madd(hi16(acc), hi16(a), hi16(b), frac, mode),
              fx_madd(lo16(acc), lo16(a), lo16(b), frac, mode));
}

} // namespace

void exec_simd(const Instr& in, u32 fu, const CpuState& st, SlotEffects& fx) {
  const isa::PhysReg rd = isa::to_phys(in.rd, fu);
  const u32 a = st.reads(in.rs1, fu);
  const u32 b = st.reads(in.rs2, fu);
  const u32 old = st.read(rd);
  const SatMode mode = static_cast<SatMode>(in.sub);
  u32 r = 0;
  switch (in.op) {
    case Op::kPadd: r = lanewise_addsub(a, b, /*sub=*/false, mode); break;
    case Op::kPsub: r = lanewise_addsub(a, b, /*sub=*/true, mode); break;
    case Op::kPmulh: r = lanewise_mul_int(a, b, mode); break;
    case Op::kPmuls15: r = lanewise_mul_fx(a, b, kFracS15, mode); break;
    case Op::kPmuls213: r = lanewise_mul_fx(a, b, kFracS213, mode); break;
    case Op::kPmaddh: r = lanewise_madd_int(old, a, b, mode); break;
    case Op::kPmadds15: r = lanewise_madd_fx(old, a, b, kFracS15, mode); break;
    case Op::kPmadds213: r = lanewise_madd_fx(old, a, b, kFracS213, mode); break;
    case Op::kDotp: r = dotp_eval(old, a, b); break;
    case Op::kPmuls31:
      r = static_cast<u32>(fx_mul_s31(lo16(a), lo16(b)));
      break;
    case Op::kPdiv213:
      r = pack(fx_div_s213(hi16(a), hi16(b)), fx_div_s213(lo16(a), lo16(b)));
      break;
    case Op::kPrsqrt213:
      r = pack(fx_rsqrt_s213(hi16(a)), fx_rsqrt_s213(lo16(a)));
      break;
    case Op::kBext: {
      // rs1 names an even/odd pair holding a 64-bit bit-stream window;
      // rs2 holds the dynamic control word: bits [5:0] = position from the
      // MSB, bits [11:6] = field length (lengths > remaining bits clamp).
      const u64 window = st.read_pair(in.rs1, fu);
      const u32 pos = b & 63;
      u32 len = (b >> 6) & 63;
      if (pos + len > 64) len = 64 - pos;
      r = bitfield_extract(static_cast<u32>(window >> 32),
                           static_cast<u32>(window), pos, len);
      break;
    }
    case Op::kLzd: r = leading_zeros(a); break;
    case Op::kBshuf:
      // Old rd supplies the selector nibbles (one per result byte).
      r = byte_shuffle(a, b, old);
      break;
    case Op::kPdist: r = old + pixel_distance(a, b); break;
    default:
      raise_trap(TrapCause::kIllegalInstruction,
                 "exec_simd: unexpected opcode");
  }
  fx.writes.push_back({rd, r});
}

} // namespace majc::sim
