// Integer ALU, compare, conditional-move and multiply/divide semantics: the
// interpreter's expansion of the MAJC_INT_OPS table (exec.h).
#include "src/sim/exec.h"

namespace majc::sim {

using isa::Instr;
using isa::Op;

void exec_int(const Instr& in, u32 fu, const CpuState& st, const ExecEnv& env,
              SlotEffects& fx) {
  const isa::PhysReg rd = isa::to_phys(in.rd, fu);
  const u32 a = st.reads(in.rs1, fu);
  const u32 rs2 = st.reads(in.rs2, fu);
  const u32 imm = static_cast<u32>(in.imm);
  [[maybe_unused]] const u32 old = st.read(rd);
  u32 r = 0;
  switch (in.op) {
#define MAJC_B_R rs2
#define MAJC_B_I imm
#define MAJC_INT_CASE(name, src, result) \
  case Op::k##name: {                    \
    const u32 b = MAJC_B_##src;          \
    r = (result);                        \
    break;                               \
  }
    MAJC_INT_OPS(MAJC_INT_CASE)
#undef MAJC_INT_CASE
#undef MAJC_B_R
#undef MAJC_B_I
    case Op::kDiv: r = int_div(a, rs2, env.trap_div_zero); break;
    case Op::kDivu: r = int_divu(a, rs2, env.trap_div_zero); break;
    default:
      raise_trap(TrapCause::kIllegalInstruction, "exec_int: unexpected opcode");
  }
  fx.writes.push_back({rd, r});
}

} // namespace majc::sim
