#include "src/kernels/kernel.h"

#include "src/sim/functional_sim.h"
#include "src/support/checkpoint.h"

namespace majc::kernels {
namespace {

void fill_common(KernelRun& run, const masm::Image& img, sim::MemoryBus& mem,
                 const KernelSpec& spec) {
  if (auto it = img.symbols.find("ticks"); it != img.symbols.end()) {
    const u32 t0 = mem.read_u32(it->second);
    const u32 t1 = mem.read_u32(it->second + 4);
    run.kernel_cycles = t1 - t0;
  } else {
    run.kernel_cycles = run.total_cycles;
  }
  if (spec.validate) {
    run.valid = spec.validate(mem, img, run.message);
  } else {
    run.valid = true;
  }
}

} // namespace

void setup_kernel(cpu::CycleSim& sim, const KernelSpec& spec) {
  if (spec.setup) spec.setup(sim.memory(), sim.program().image());
}

void setup_kernel(sim::FunctionalSim& sim, const KernelSpec& spec) {
  if (spec.setup) spec.setup(sim.memory(), sim.program().image());
}

KernelRun finalize_kernel(cpu::CycleSim& sim, const KernelSpec& spec,
                          const cpu::CycleSim::Result& res) {
  KernelRun run;
  run.total_cycles = res.cycles;
  run.packets = res.packets;
  run.instrs = res.instrs;
  run.halted = res.halted;
  run.reason = res.reason;
  run.ipc = res.ipc();
  run.cpu_stats = sim.cpu().stats();
  run.arch_digest = ckpt::arch_digest(sim);
  const mem::MemorySystem& ms = sim.memsys();
  run.recovery.ecc_corrected = sim.ecc().corrected();
  run.recovery.ecc_retried = sim.ecc().retried();
  run.recovery.ecc_poisoned = sim.ecc().poisoned_lines();
  run.recovery.machine_checks = sim.ecc().machine_checks();
  run.recovery.fill_parity_retries =
      ms.ifetch_parity_retries() +
      ms.lsu(0).counter(mem::LsuCounter::kFillParityRetries);
  run.recovery.fill_machine_checks =
      ms.ifetch_machine_checks() +
      ms.lsu(0).counter(mem::LsuCounter::kFillMachineChecks);
  run.recovery.xbar_delayed_grants = ms.xbar().delayed_grants();
  run.recovery.xbar_dropped_grants = ms.xbar().dropped_grants();
  run.recovery.traps_delivered = sim.cpu().stats().traps_delivered;
  fill_common(run, sim.program().image(), sim.memory(), spec);
  if (!res.halted) {
    run.valid = false;
    run.message = res.reason == TerminationReason::kTrap
                      ? std::string(trap_cause_name(res.trap.code)) +
                            " trap: " + res.trap.detail
                      : "kernel did not halt within packet budget";
  }
  return run;
}

KernelRun finalize_kernel(sim::FunctionalSim& sim, const KernelSpec& spec,
                          const sim::RunResult& res) {
  KernelRun run;
  // Cumulative machine counters, not the last slice's per-call counts, so a
  // sliced run reports the same totals as a single run() call (they agree
  // by construction on a machine that was fresh/reset at setup time).
  run.total_cycles = sim.packets_run();  // packet count stands in for time
  run.packets = sim.packets_run();
  run.instrs = sim.instrs_run();
  run.halted = res.halted;
  run.reason = res.reason;
  run.arch_digest = ckpt::arch_digest(sim);
  fill_common(run, sim.program().image(), sim.memory(), spec);
  if (!res.halted) {
    run.valid = false;
    run.message = "kernel did not halt within packet budget";
  }
  return run;
}

KernelRun run_kernel_on(cpu::CycleSim& sim, const KernelSpec& spec) {
  setup_kernel(sim, spec);
  return finalize_kernel(sim, spec, sim.run(spec.max_packets));
}

KernelRun run_kernel_on(sim::FunctionalSim& sim, const KernelSpec& spec) {
  setup_kernel(sim, spec);
  return finalize_kernel(sim, spec, sim.run(spec.max_packets));
}

KernelRun run_kernel(const KernelSpec& spec, const TimingConfig& cfg) {
  masm::Image img = masm::assemble_or_throw(spec.source);
  cpu::CycleSim sim(std::move(img), cfg);
  return run_kernel_on(sim, spec);
}

KernelRun run_kernel_functional(const KernelSpec& spec) {
  masm::Image img = masm::assemble_or_throw(spec.source);
  sim::FunctionalSim sim(std::move(img));
  return run_kernel_on(sim, spec);
}

CompiledKernel compile_kernel(KernelSpec spec) {
  CompiledKernel k;
  k.program = sim::make_program(masm::assemble_or_throw(spec.source));
  // Warm the threaded-code cache at compile time: the farm's workers then
  // share one ready translation per image instead of colliding on the lazy
  // call_once inside their first functional job.
  k.program->threaded();
  k.spec = std::move(spec);
  return k;
}

std::string load_addr(u32 greg, const std::string& sym) {
  const std::string r = "g" + std::to_string(greg);
  return "sethi " + r + ", %hi(" + sym + ")\norlo " + r + ", %lo(" + sym +
         ")\n";
}

std::string tick_start() {
  return load_addr(90, "ticks") + "gettick g91\nstwi g91, g90, 0\n";
}

std::string tick_stop() {
  return "gettick g91\nstwi g91, g90, 4\n";
}

} // namespace majc::kernels
