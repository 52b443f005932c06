// Majc5200: the full system-on-chip (Fig. 1).
//
// Two 4-issue VLIW CPUs sharing the dual-ported D$ and common external
// interfaces, a DRDRAM memory controller, PCI, North/South UPA, the Data
// Transfer Engine, and the crossbar that connects them. Both CPUs run the
// same loaded image; programs dispatch per-CPU work with GETCPU (or the
// host sets each CPU's pc to a different entry symbol).
//
// The two CPUs advance in cycle order at packet granularity: each step
// executes the packet of whichever CPU's next issue cycle is earlier, so
// accesses to the shared D$, DRDRAM and crossbar interleave in global time.
// Shared-memory interactions (atomics through the shared D$) therefore
// linearize in cycle order — the communication model the paper highlights.
#pragma once

#include <array>
#include <memory>

#include "src/cpu/cycle_cpu.h"
#include "src/soc/dte.h"
#include "src/soc/ports.h"

namespace majc::soc {

class Majc5200 {
public:
  static constexpr u32 kNumCpus = mem::kNumCpus;

  explicit Majc5200(masm::Image image, const TimingConfig& cfg = {},
                    std::size_t mem_bytes = sim::FlatMemory::kDefaultBytes);

  struct Result {
    Cycle cycles = 0;  // global time when the last CPU halted
    std::array<u64, kNumCpus> packets{};
    std::array<u64, kNumCpus> instrs{};
    bool all_halted = false;
    TerminationReason reason = TerminationReason::kPacketCap;
    Trap trap;         // valid (code != kNone) only when reason == kTrap
    std::string dump;  // diagnostic report for trap / watchdog terminations
  };

  /// Run both CPUs to completion (each capped at `max_packets_per_cpu`).
  Result run(u64 max_packets_per_cpu = 100'000'000);

  /// Point one CPU at a different entry symbol before running.
  void set_entry(u32 cpu, const std::string& symbol);

  cpu::CycleCpu& cpu(u32 i) { return *cpus_[i]; }
  const cpu::CycleCpu& cpu(u32 i) const { return *cpus_[i]; }
  mem::MemorySystem& memsys() { return ms_; }
  const mem::MemorySystem& memsys() const { return ms_; }
  sim::FlatMemory& memory() { return mem_; }
  const sim::FlatMemory& memory() const { return mem_; }
  mem::EccMemory& ecc() { return eccmem_; }
  const mem::EccMemory& ecc() const { return eccmem_; }
  const sim::Program& program() const { return prog_; }
  Dte& dte() { return dte_; }
  NupaPort& nupa() { return nupa_; }
  IoPort& supa() { return supa_; }
  IoPort& pci() { return pci_; }

  void fields(ckpt::Archive& a);

private:
  /// Multi-line state dump of both CPUs (pc, cycle, progress, packet counts)
  /// for trap / watchdog reports.
  std::string state_dump() const;

  sim::Program prog_;
  sim::FlatMemory mem_;
  mem::MemorySystem ms_;
  mem::EccMemory eccmem_;  // CPU-side ECC view of DRDRAM (DMA agents bypass it)
  std::array<std::unique_ptr<cpu::CycleCpu>, kNumCpus> cpus_;
  Dte dte_;
  NupaPort nupa_;
  IoPort supa_;
  IoPort pci_;
};

} // namespace majc::soc
