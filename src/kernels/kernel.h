// Kernel harness: assemble, run on the cycle-accurate simulator, time the
// instrumented region, and validate results against a golden C++ model.
//
// Every Table 1 / Table 2 kernel follows the same convention the paper's
// own methodology implies (single MAJC CPU, cycle-accurate simulator):
//  * the program declares `ticks: .space 8` and brackets the measured
//    region with GETTICK stores to ticks+0 / ticks+4;
//  * inputs are either embedded via .data or written by `setup` into
//    .space regions located by symbol;
//  * `validate` re-reads memory and compares with the golden model.
#pragma once

#include <functional>
#include <string>

#include "src/cpu/cycle_cpu.h"
#include "src/masm/assembler.h"

namespace majc::kernels {

struct KernelSpec {
  std::string name;
  std::string source;
  /// Write input data into memory before the run (optional).
  std::function<void(sim::MemoryBus&, const masm::Image&)> setup;
  /// Check outputs; fill `message` on mismatch (optional).
  std::function<bool(sim::MemoryBus&, const masm::Image&, std::string&)>
      validate;
  u64 max_packets = 200'000'000;
};

struct KernelRun {
  Cycle kernel_cycles = 0;  // ticks[1]-ticks[0] if instrumented, else total
  Cycle total_cycles = 0;
  u64 packets = 0;
  u64 instrs = 0;
  bool valid = false;
  bool halted = false;
  TerminationReason reason = TerminationReason::kPacketCap;
  std::string message;
  cpu::CpuStats cpu_stats;
  double ipc = 0.0;
  /// FNV-1a over memory + registers + pc at the end of the run: two runs
  /// that agree here computed the same architectural outcome.
  u64 arch_digest = 0;
  /// RAS events absorbed during the run without ending it (plus the machine
  /// checks that did). Filled by the cycle-accurate path; majc_farm's fault
  /// campaigns assert recovered runs still validate against the golden model.
  struct Recovery {
    u64 ecc_corrected = 0;
    u64 ecc_retried = 0;          // uncorrectable reads retried (kRetry)
    u64 ecc_poisoned = 0;         // lines scrubbed (kPoison / kDeliver)
    u64 machine_checks = 0;       // uncorrectable errors seen by ECC
    u64 fill_parity_retries = 0;  // corrupted cache fills refetched
    u64 fill_machine_checks = 0;  // bounded-refetch exhaustions
    u64 xbar_delayed_grants = 0;
    u64 xbar_dropped_grants = 0;
    u64 traps_delivered = 0;      // traps recovered via the guest handler
  } recovery;
};

/// Assemble and run `spec` on a single cycle-accurate CPU.
KernelRun run_kernel(const KernelSpec& spec, const TimingConfig& cfg = {});

/// Run on the instruction-accurate simulator only (fast path for pure
/// correctness tests).
KernelRun run_kernel_functional(const KernelSpec& spec);

/// A kernel assembled and predecoded once. `program` is immutable and
/// shared: any number of machines — across threads — may run it
/// concurrently (the farm engine's shared-predecode path).
struct CompiledKernel {
  KernelSpec spec;
  sim::ProgramRef program;
};

/// Assemble + predecode `spec` once for repeated / concurrent running.
CompiledKernel compile_kernel(KernelSpec spec);

/// Drive an already-initialized machine (freshly constructed or just reset
/// to the kernel's program) through one run. The building block behind
/// run_kernel / run_kernel_functional; exposed for harnesses that manage
/// machine lifetime themselves (the farm's per-worker arenas).
KernelRun run_kernel_on(cpu::CycleSim& machine, const KernelSpec& spec);
KernelRun run_kernel_on(sim::FunctionalSim& machine, const KernelSpec& spec);

/// Split phases of run_kernel_on for harnesses that slice a run into
/// several machine.run(cap) calls (the farm's preemptible executor):
/// setup_kernel writes the spec's input data (call exactly once per run,
/// never after a checkpoint restore — the restored memory already holds
/// it), finalize_kernel derives the KernelRun from the machine's final
/// state plus the *last* slice's raw result. A single-slice
/// setup / run(max) / finalize sequence is bit-identical to
/// run_kernel_on (tests/test_resilience.cpp pins the sliced case).
void setup_kernel(cpu::CycleSim& machine, const KernelSpec& spec);
void setup_kernel(sim::FunctionalSim& machine, const KernelSpec& spec);
KernelRun finalize_kernel(cpu::CycleSim& machine, const KernelSpec& spec,
                          const cpu::CycleSim::Result& res);
KernelRun finalize_kernel(sim::FunctionalSim& machine, const KernelSpec& spec,
                          const sim::RunResult& res);

// ---- shared helpers for kernel sources ----

/// Standard prologue/epilogue fragments: materialize `sym` into gN.
std::string load_addr(u32 greg, const std::string& sym);
/// GETTICK capture into ticks+{0,4} using g90/g91 as scratch.
std::string tick_start();
std::string tick_stop();

} // namespace majc::kernels
