#include "src/kernels/peak.h"

#include "src/kernels/codegen.h"
#include "src/kernels/dsp_data.h"

namespace majc::kernels {
namespace {

PeakSpec make_burst(bool fp, u32 iterations) {
  AsmBuilder b;
  b.line(".data");
  b.line("ticks: .space 8");
  b.line(".code");
  if (fp) {
    // Operand setup: g8/g9 small floats, g31 rsqrt input.
    b.line("sethi g8, 0x3f80");  // 1.0f
    b.line("orlo g8, 0");
    b.line("sethi g9, 0x3f00");  // 0.5f
    b.line("orlo g9, 0");
    b.line("sethi g31, 0x4000");  // 2.0f
    b.line("orlo g31, 0");
  } else {
    b.line("sethi g8, 0x0102");
    b.line("orlo g8, 0x0304");
    b.line("sethi g9, 0x0011");
    b.line("orlo g9, 0x0022");
    b.line("setlo g31, 0x1234");
  }
  b.line("sethi g7, " + imm(iterations >> 16));
  b.line("orlo g7, " + imm(iterations & 0xFFFF));
  b.line(tick_start());
  b.label("burst");
  // 24 packets: FU1-3 saturated with independent multiply-adds rotating
  // over four accumulators each; FU0 issues its 6-cycle iterative op every
  // 6 packets plus the loop bookkeeping.
  const char* compute = fp ? "fmadd " : "pmaddh ";
  const char* iter_op = fp ? "frsqrt g30, g31" : "pdiv213 g30, g31, g31";
  for (u32 p = 0; p < 24; ++p) {
    const char* fu0 =
        p == 1 ? "addi g7, g7, -1" : p % 6 == 0 ? iter_op : "nop";
    std::string s[3];
    for (u32 f = 0; f < 3; ++f) {
      s[f] = std::string(compute) + l(p % 4) + ", g8, g9";
    }
    b.packet({fu0, s[0], s[1], s[2]});
  }
  b.line("bnz g7, burst");
  b.line(tick_stop());
  b.line("halt");

  PeakSpec spec;
  spec.kernel.name = fp ? "fp_peak" : "simd_peak";
  spec.kernel.source = b.str();
  spec.kernel.max_packets = 200'000'000;
  spec.iterations = iterations;
  if (fp) {
    spec.flops_per_iteration = 24.0 * 3.0 * 2.0 + 4.0;  // FMAs + rsqrts
  } else {
    spec.ops16_per_iteration = 24.0 * 3.0 * 4.0 + 4.0 * 2.0;
  }
  return spec;
}

} // namespace

PeakSpec make_fp_peak_spec(u32 iterations) { return make_burst(true, iterations); }
PeakSpec make_simd_peak_spec(u32 iterations) {
  return make_burst(false, iterations);
}

} // namespace majc::kernels
