// IEEE single and double precision floating point semantics.
#include <bit>
#include <cmath>
#include <limits>

#include "src/sim/exec.h"
#include "src/support/trap.h"

namespace majc::sim {
namespace {

using isa::Instr;
using isa::Op;

float as_f32(u32 v) { return std::bit_cast<float>(v); }
u32 as_u32(float v) { return std::bit_cast<u32>(v); }
double as_f64(u64 v) { return std::bit_cast<double>(v); }
u64 as_u64(double v) { return std::bit_cast<u64>(v); }

/// float -> int with saturation at the i32 range; NaN converts to 0
/// (a total-function choice documented in DESIGN.md).
i32 f32_to_i32(float f) {
  if (std::isnan(f)) return 0;
  if (f >= 2147483648.0f) return std::numeric_limits<i32>::max();
  if (f < -2147483648.0f) return std::numeric_limits<i32>::min();
  return static_cast<i32>(f);
}

void write_pair(SlotEffects& fx, isa::PhysReg even, u64 v) {
  fx.writes.push_back({even, static_cast<u32>(v >> 32)});
  fx.writes.push_back({static_cast<isa::PhysReg>(even + 1), static_cast<u32>(v)});
}

} // namespace

void exec_fp32(const Instr& in, u32 fu, const CpuState& st, SlotEffects& fx) {
  const isa::PhysReg rd = isa::to_phys(in.rd, fu);
  const float a = as_f32(st.reads(in.rs1, fu));
  const float b = as_f32(st.reads(in.rs2, fu));
  const float acc = as_f32(st.read(rd));
  u32 r = 0;
  switch (in.op) {
    case Op::kFadd: r = as_u32(a + b); break;
    case Op::kFsub: r = as_u32(a - b); break;
    case Op::kFmul: r = as_u32(a * b); break;
    case Op::kFmadd:
      r = fmadd_eval(st.read(rd), st.reads(in.rs1, fu), st.reads(in.rs2, fu));
      break;
    case Op::kFmsub: r = as_u32(std::fmaf(-a, b, acc)); break;
    case Op::kFmin: r = as_u32(std::fmin(a, b)); break;
    case Op::kFmax: r = as_u32(std::fmax(a, b)); break;
    case Op::kFneg: r = st.reads(in.rs1, fu) ^ 0x8000'0000u; break;
    case Op::kFabs: r = st.reads(in.rs1, fu) & 0x7FFF'FFFFu; break;
    case Op::kFcmpeq: r = (a == b) ? 1 : 0; break;
    case Op::kFcmplt: r = (a < b) ? 1 : 0; break;
    case Op::kFcmple: r = (a <= b) ? 1 : 0; break;
    case Op::kItof:
      r = as_u32(static_cast<float>(static_cast<i32>(st.reads(in.rs1, fu))));
      break;
    case Op::kFtoi: r = static_cast<u32>(f32_to_i32(a)); break;
    case Op::kFdiv: r = as_u32(a / b); break;
    case Op::kFrsqrt: r = as_u32(1.0f / std::sqrt(a)); break;
    default:
      raise_trap(TrapCause::kIllegalInstruction,
                 "exec_fp32: unexpected opcode");
  }
  fx.writes.push_back({rd, r});
}

void exec_fp64(const Instr& in, u32 fu, const CpuState& st, SlotEffects& fx) {
  const isa::PhysReg rd = isa::to_phys(in.rd, fu);
  switch (in.op) {
    case Op::kFtod: {
      const float a = as_f32(st.reads(in.rs1, fu));
      write_pair(fx, rd, as_u64(static_cast<double>(a)));
      return;
    }
    case Op::kDtof: {
      const double a = as_f64(st.read_pair(in.rs1, fu));
      fx.writes.push_back({rd, as_u32(static_cast<float>(a))});
      return;
    }
    default:
      break;
  }
  const double a = as_f64(st.read_pair(in.rs1, fu));
  const double b = as_f64(st.read_pair(in.rs2, fu));
  switch (in.op) {
    case Op::kDadd: write_pair(fx, rd, as_u64(a + b)); break;
    case Op::kDsub: write_pair(fx, rd, as_u64(a - b)); break;
    case Op::kDmul: write_pair(fx, rd, as_u64(a * b)); break;
    case Op::kDmin: write_pair(fx, rd, as_u64(std::fmin(a, b))); break;
    case Op::kDmax: write_pair(fx, rd, as_u64(std::fmax(a, b))); break;
    case Op::kDneg:
      write_pair(fx, rd, st.read_pair(in.rs1, fu) ^ 0x8000'0000'0000'0000ull);
      break;
    case Op::kDcmpeq: fx.writes.push_back({rd, (a == b) ? 1u : 0u}); break;
    case Op::kDcmplt: fx.writes.push_back({rd, (a < b) ? 1u : 0u}); break;
    case Op::kDcmple: fx.writes.push_back({rd, (a <= b) ? 1u : 0u}); break;
    default:
      raise_trap(TrapCause::kIllegalInstruction,
                 "exec_fp64: unexpected opcode");
  }
}

} // namespace majc::sim
