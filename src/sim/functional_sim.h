// Instruction-accurate MAJC simulator.
//
// The paper's own performance numbers come from "instruction accurate and
// cycle accurate simulators" (§5); this is the former. It pre-decodes a
// program image, executes packets with full architectural semantics, and
// records trap (console) output. The cycle-accurate model (src/cpu) reuses
// Program and the executor so both agree bit-for-bit on results.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/masm/image.h"
#include "src/sim/exec.h"
#include "src/sim/predecode.h"
#include "src/support/trap.h"

namespace majc::ckpt {
class Archive;
} // namespace majc::ckpt

namespace majc::sim {

struct ThreadedCode;

/// Pre-decoded code image. Packets are addressable only at their start; a
/// control transfer into the middle of a packet is a model fault.
///
/// Alongside the decoded packets, the Program predecodes a PacketMeta per
/// packet (operand/writeback lists, latencies, fall-through / static-target
/// indices; see predecode.h) so the simulators' inner loops run index-based
/// and derivation-free: the pc -> index hash map is only consulted for
/// dynamic control transfers.
class Program {
public:
  explicit Program(masm::Image image);
  ~Program();  // out-of-line: ThreadedCode is incomplete here

  bool has_packet(Addr pc) const { return index_.count(pc) != 0; }
  const isa::Packet& packet_at(Addr pc) const;
  /// Dense index of the packet at `pc`; raises a kIllegalPacket trap when
  /// `pc` is not a packet boundary (same contract as packet_at).
  u32 index_of(Addr pc) const;
  /// Non-trapping lookup for observers: kNoPacketIndex when `pc` is not a
  /// packet boundary.
  u32 find_index(Addr pc) const {
    auto it = index_.find(pc);
    return it == index_.end() ? kNoPacketIndex : it->second;
  }
  const isa::Packet& packet(u32 index) const { return packets_[index]; }
  const PacketMeta& meta(u32 index) const { return meta_[index]; }
  std::size_t num_packets() const { return packets_.size(); }
  const masm::Image& image() const { return image_; }

  /// Threaded-code form of this program (see threaded.h). Translated lazily
  /// on first use and cached for the Program's lifetime, so the farm's
  /// shared-predecode path pays for translation once per image no matter how
  /// many workers alias the ProgramRef (std::call_once makes the lazy init
  /// thread-safe; the result is immutable afterwards, like the rest of the
  /// Program).
  const ThreadedCode& threaded() const;

private:
  masm::Image image_;
  std::vector<isa::Packet> packets_;
  std::vector<PacketMeta> meta_;
  std::unordered_map<Addr, u32> index_;
  mutable std::once_flag threaded_once_;
  mutable std::unique_ptr<ThreadedCode> threaded_;
};

/// Shared ownership of an immutable predecoded program. A Program is
/// read-only after construction (every accessor is const), so one instance
/// can back any number of concurrently running machines — the farm engine
/// predecodes each image once and every worker aliases it.
using ProgramRef = std::shared_ptr<const Program>;

/// Assemble-and-predecode once; the result is safe to share across threads.
inline ProgramRef make_program(masm::Image image) {
  return std::make_shared<const Program>(std::move(image));
}

/// Copy the image's code and data sections into memory.
void load_image(const masm::Image& img, MemoryBus& mem);

struct RunResult {
  u64 packets = 0;
  u64 instrs = 0;
  bool halted = false;
  TerminationReason reason = TerminationReason::kPacketCap;
  Trap trap;  // valid (code != kNone) only when reason == kTrap
};

/// Functional-mode execution engine. Both produce bit-identical
/// guest-visible state (registers, memory, traps, stats, checkpoints);
/// kThreaded runs the predecoded packets through the translated dispatch
/// records of Program::threaded() and is the default.
enum class ExecBackend : u8 {
  kInterp,
  kThreaded,
};

constexpr const char* exec_backend_name(ExecBackend b) {
  return b == ExecBackend::kInterp ? "interp" : "threaded";
}

/// One-shot diagnostic for a delivered trap: cause, context, the faulting
/// packet disassembled (when pc is a packet boundary) and a register
/// snapshot. Shared by majc_run and the chip-level dump.
std::string trap_report(const Trap& trap, const Program& prog,
                        const CpuState& st);

class FunctionalSim {
public:
  explicit FunctionalSim(masm::Image image,
                         std::size_t mem_bytes = FlatMemory::kDefaultBytes);
  /// Share a predecoded program instead of assembling a private copy. The
  /// program must outlive the sim (shared_ptr guarantees it).
  explicit FunctionalSim(ProgramRef program,
                         std::size_t mem_bytes = FlatMemory::kDefaultBytes);

  /// Reinitialize in place for a fresh run — optionally of a different
  /// program — reusing the memory arena instead of reallocating it. The
  /// resulting state is indistinguishable from a newly constructed sim.
  void reset(ProgramRef program = nullptr);

  /// Execute until HALT, an architected trap, or `max_packets` packets.
  RunResult run(u64 max_packets = 100'000'000);

  CpuState& state() { return state_; }
  const CpuState& state() const { return state_; }
  FlatMemory& memory() { return mem_; }
  const FlatMemory& memory() const { return mem_; }
  const Program& program() const { return *program_; }
  /// Output accumulated from TRAP (print) instructions.
  const std::string& console() const { return console_; }

  /// Cumulative totals across every run() call (a restored run reports
  /// from-original-start numbers through these, not per-call deltas).
  u64 packets_run() const { return packets_run_; }
  u64 instrs_run() const { return instrs_run_; }

  /// Traps delivered to a guest handler (SETTVEC) instead of ending the run.
  u64 traps_delivered() const { return traps_delivered_; }
  const Trap& last_delivered_trap() const { return last_trap_; }

  /// Arm the integer divide-by-zero trap (default: div/0 yields 0).
  void set_trap_div_zero(bool on) { trap_div_zero_ = on; }

  /// Select the execution engine (guest-visible state is identical either
  /// way). reset() restores the default (threaded), like every other knob.
  void set_backend(ExecBackend b) { backend_ = b; }
  ExecBackend backend() const { return backend_; }

  /// Format one trap according to ConsoleTrap; shared with the SoC model so
  /// functional and timed runs produce identical console text.
  static void format_trap(std::string& out, u32 code, u32 value);

  void fields(ckpt::Archive& a);

private:
  RunResult run_interp(u64 max_packets);
  RunResult run_threaded(u64 max_packets);  // defined in threaded.cpp
  /// Both run loops' trap path: stamp the trap raised by the packet at
  /// state_.pc, then deliver it to the guest handler (returns true: keep
  /// running) or record it in `res` as the run's end (returns false).
  bool take_trap(const TrapException& e, RunResult& res);

  ProgramRef program_;
  FlatMemory mem_;
  CpuState state_;
  std::string console_;
  u64 packets_run_ = 0;
  u64 instrs_run_ = 0;
  u64 traps_delivered_ = 0;
  Trap last_trap_;
  bool trap_div_zero_ = false;
  ExecBackend backend_ = ExecBackend::kThreaded;
};

} // namespace majc::sim
