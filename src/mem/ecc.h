// SEC-DED ECC model on the DRAM data path.
//
// A MemoryBus decorator that sits between the CPUs and the backing
// FlatMemory. Fault state per 32-byte line comes from the run's FaultPlan:
//
//   - correctable (single-bit) faults are detected and corrected on every
//     read that touches the line — the consumer sees clean data and the
//     `corrected` counter increments (the hardware's scrub-and-retry);
//   - uncorrectable (double-bit) faults are handled per the configured
//     MachineCheckPolicy: raise a fatal machine check (the pre-recovery
//     default), retry the access (transient flips vanish on the re-read),
//     poison-and-scrub the line (rewrite it clean, invalidate cached
//     copies, continue transparently), or deliver a machine-check trap to
//     the guest handler, scrubbing the line so the handler may retry;
//   - with ECC disabled (FaultConfig::ecc_enabled = false) the same faults
//     silently flip a deterministic bit of the returned data instead —
//     the baseline that motivates paying for ECC.
//
// Writes pass straight through: the model treats a faulty line as bad cells,
// so a rewrite does not heal it (the plan's per-line verdict is stable).
// Only an explicit scrub under kPoison / kDeliver retires a line into the
// healed set.
#pragma once

#include <functional>
#include <unordered_set>

#include "src/sim/memory.h"
#include "src/support/fault.h"

namespace majc::ckpt {
class Archive;
} // namespace majc::ckpt

namespace majc::mem {

class EccMemory final : public sim::MemoryBus {
public:
  EccMemory(sim::MemoryBus& inner, const FaultPlan& plan)
      : inner_(inner), plan_(plan) {}

  void read(Addr addr, std::span<u8> out) override;
  void write(Addr addr, std::span<const u8> in) override {
    inner_.write(addr, in);
  }

  /// Called with the line address whenever a line is scrubbed (kPoison /
  /// kDeliver), so the owner can invalidate cached copies — the refill is
  /// the recovery's timing cost. May be empty.
  void set_poison_hook(std::function<void(Addr)> fn) {
    poison_hook_ = std::move(fn);
  }

  u64 corrected() const { return corrected_; }
  u64 machine_checks() const { return machine_checks_; }
  u64 retried() const { return retried_; }
  u64 poisoned_lines() const { return poisoned_; }
  u64 silent_corruptions() const { return silent_corruptions_; }

  void fields(ckpt::Archive& a);

private:
  sim::MemoryBus& inner_;
  const FaultPlan& plan_;
  std::function<void(Addr)> poison_hook_;
  // Lines scrubbed by kPoison / kDeliver: their plan verdict no longer
  // applies (the bad cells were rewritten from the architected value).
  std::unordered_set<Addr> healed_;
  u64 corrected_ = 0;
  u64 machine_checks_ = 0;
  u64 retried_ = 0;
  u64 poisoned_ = 0;
  u64 silent_corruptions_ = 0;
};

} // namespace majc::mem
