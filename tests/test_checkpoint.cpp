// Checkpoint / restore tests: Writer/Reader primitives, header validation,
// and the contract that matters — a run saved mid-flight and restored into
// a fresh simulator finishes cycle-for-cycle identical to an unbroken run,
// in all three modes, including under fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>

#include "src/cpu/cycle_cpu.h"
#include "src/masm/assembler.h"
#include "src/sim/functional_sim.h"
#include "src/soc/chip.h"
#include "src/support/checkpoint.h"

namespace majc {
namespace {

using masm::assemble_or_throw;

// ------------------------------------------------------- Writer / Reader

TEST(CkptIo, PrimitivesRoundTrip) {
  ckpt::Writer w;
  w.put_u8(0xab);
  w.put_u32(0xdeadbeefu);
  w.put_u64(0x0123456789abcdefull);
  w.put_bool(true);
  w.put_bool(false);
  w.put_string("majc");
  w.put_tag("TEST");
  const std::vector<u8> raw{1, 2, 3};
  w.put_bytes(raw);

  ckpt::Reader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefull);
  EXPECT_TRUE(r.get_bool());
  EXPECT_FALSE(r.get_bool());
  EXPECT_EQ(r.get_string(), "majc");
  r.expect_tag("TEST");
  std::vector<u8> back(3);
  r.get_bytes(back);
  EXPECT_EQ(back, raw);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(CkptIo, ShortReadThrows) {
  ckpt::Writer w;
  w.put_u8(7);
  w.put_u8(0);
  ckpt::Reader r(w.bytes());
  EXPECT_THROW(r.get_u32(), Error);
}

TEST(CkptIo, TagMismatchThrows) {
  ckpt::Writer w;
  w.put_tag("AAAA");
  ckpt::Reader r(w.bytes());
  EXPECT_THROW(r.expect_tag("BBBB"), Error);
}

// ----------------------------------------------------------------- header

// Long enough that a mid-run split exercises caches, MSHRs and the branch
// predictor, short enough to keep the test fast.
constexpr const char* kLoopProg = R"(
    .data
  buf: .space 2048
    .code
    sethi g3, %hi(buf)
    orlo g3, %lo(buf)
    setlo g5, 512
    setlo g6, 1
  fill:
    stwi g6, g3, 0
    addi g6, g6, 7
    addi g3, g3, 4
    addi g5, g5, -1
    bnz g5, fill
    sethi g3, %hi(buf)
    orlo g3, %lo(buf)
    setlo g5, 512
    setlo g10, 0
  sum:
    ldwi g7, g3, 0
    add g10, g10, g7
    addi g3, g3, 4
    addi g5, g5, -1
    bnz g5, sum
    halt
)";

TEST(Ckpt, HeaderRejectsWrongMode) {
  sim::FunctionalSim fsim(assemble_or_throw(kLoopProg));
  const auto bytes = ckpt::save_checkpoint(fsim);
  EXPECT_EQ(ckpt::peek_mode(bytes), ckpt::Mode::kFunctional);

  cpu::CycleSim csim(assemble_or_throw(kLoopProg));
  EXPECT_THROW(ckpt::restore_checkpoint(csim, bytes), Error);
}

TEST(Ckpt, HeaderRejectsCorruptMagicAndVersion) {
  sim::FunctionalSim fsim(assemble_or_throw(kLoopProg));
  auto bytes = ckpt::save_checkpoint(fsim);
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(ckpt::peek_mode(bad_magic), Error);
  sim::FunctionalSim other(assemble_or_throw(kLoopProg));
  EXPECT_THROW(ckpt::restore_checkpoint(other, bad_magic), Error);

  auto bad_version = bytes;
  bad_version[8] ^= 0xff;  // version u32 follows the 8-byte magic
  EXPECT_THROW(ckpt::restore_checkpoint(other, bad_version), Error);
}

TEST(Ckpt, HeaderRejectsDifferentImage) {
  sim::FunctionalSim a(assemble_or_throw(kLoopProg));
  const auto bytes = ckpt::save_checkpoint(a);
  sim::FunctionalSim b(assemble_or_throw("halt\n"));
  EXPECT_THROW(ckpt::restore_checkpoint(b, bytes), Error);
}

TEST(Ckpt, HeaderRejectsDifferentTimingConfig) {
  cpu::CycleSim a(assemble_or_throw(kLoopProg));
  const auto bytes = ckpt::save_checkpoint(a);

  TimingConfig other;
  other.faults.fill_parity_rate = 0.25;  // any field counts
  cpu::CycleSim b(assemble_or_throw(kLoopProg), other);
  EXPECT_THROW(ckpt::restore_checkpoint(b, bytes), Error);
}

TEST(Ckpt, SavingTwiceIsByteIdentical) {
  cpu::CycleSim sim(assemble_or_throw(kLoopProg));
  sim.run(200);
  EXPECT_EQ(ckpt::save_checkpoint(sim), ckpt::save_checkpoint(sim));
}

// --------------------------------------------- split-run = unbroken run

TEST(Ckpt, FunctionalSplitRunMatchesUnbrokenRun) {
  sim::FunctionalSim golden(assemble_or_throw(kLoopProg));
  const auto gres = golden.run();
  ASSERT_EQ(gres.reason, TerminationReason::kHalted);

  sim::FunctionalSim first(assemble_or_throw(kLoopProg));
  first.run(300);  // per-call budget: stops mid-loop
  ASSERT_FALSE(first.state().halted);
  const auto bytes = ckpt::save_checkpoint(first);

  sim::FunctionalSim second(assemble_or_throw(kLoopProg));
  ckpt::restore_checkpoint(second, bytes);
  const auto res = second.run();
  EXPECT_EQ(res.reason, TerminationReason::kHalted);
  EXPECT_EQ(second.packets_run(), golden.packets_run());
  EXPECT_EQ(second.instrs_run(), golden.instrs_run());
  EXPECT_EQ(ckpt::arch_digest(second), ckpt::arch_digest(golden));
}

TEST(Ckpt, CycleSplitRunMatchesUnbrokenRun) {
  cpu::CycleSim golden(assemble_or_throw(kLoopProg));
  const auto gres = golden.run();
  ASSERT_EQ(gres.reason, TerminationReason::kHalted);

  cpu::CycleSim first(assemble_or_throw(kLoopProg));
  const auto part = first.run(400);  // absolute packet cap: mid-run
  ASSERT_EQ(part.reason, TerminationReason::kPacketCap);
  const auto bytes = ckpt::save_checkpoint(first);

  cpu::CycleSim second(assemble_or_throw(kLoopProg));
  ckpt::restore_checkpoint(second, bytes);
  const auto res = second.run();
  EXPECT_EQ(res.reason, TerminationReason::kHalted);
  EXPECT_EQ(res.cycles, gres.cycles);  // cycle-for-cycle identical
  EXPECT_EQ(res.packets, gres.packets);
  EXPECT_EQ(res.instrs, gres.instrs);
  EXPECT_EQ(ckpt::arch_digest(second), ckpt::arch_digest(golden));
}

TEST(Ckpt, CycleSplitRunUnderFaultInjectionStaysIdentical) {
  // Fault injection is part of the state (event indices live in the LSU /
  // crossbar / ECC counters), so a restored faulty run must replay the
  // exact same fault stream.
  TimingConfig cfg;
  cfg.faults.dram_correctable_rate = 0.2;
  cfg.faults.dram_uncorrectable_rate = 0.05;
  cfg.faults.mc_policy = MachineCheckPolicy::kPoison;
  cfg.faults.fill_parity_rate = 0.05;
  cfg.faults.xbar_delay_rate = 0.1;
  cfg.faults.xbar_drop_rate = 0.02;

  cpu::CycleSim golden(assemble_or_throw(kLoopProg), cfg);
  const auto gres = golden.run();
  ASSERT_EQ(gres.reason, TerminationReason::kHalted);

  cpu::CycleSim first(assemble_or_throw(kLoopProg), cfg);
  first.run(400);
  const auto bytes = ckpt::save_checkpoint(first);

  cpu::CycleSim second(assemble_or_throw(kLoopProg), cfg);
  ckpt::restore_checkpoint(second, bytes);
  const auto res = second.run();
  EXPECT_EQ(res.reason, TerminationReason::kHalted);
  EXPECT_EQ(res.cycles, gres.cycles);
  EXPECT_EQ(second.ecc().corrected(), golden.ecc().corrected());
  EXPECT_EQ(second.ecc().poisoned_lines(), golden.ecc().poisoned_lines());
  EXPECT_EQ(second.memsys().xbar().delayed_grants(),
            golden.memsys().xbar().delayed_grants());
  EXPECT_EQ(ckpt::arch_digest(second), ckpt::arch_digest(golden));
}

TEST(Ckpt, ChipSplitRunMatchesUnbrokenRun) {
  // Dual-CPU program: CPU0 fills, CPU1 sums its own buffer; the checkpoint
  // must capture both cores plus the shared memory system mid-flight.
  constexpr const char* kDual = R"(
      .data
    buf0: .space 1024
    buf1: .space 1024
      .code
      getcpu g20
      bnz g20, cpu1
      sethi g3, %hi(buf0)
      orlo g3, %lo(buf0)
      bz g0, work
    cpu1:
      sethi g3, %hi(buf1)
      orlo g3, %lo(buf1)
    work:
      setlo g5, 256
      setlo g6, 1
    fill:
      stwi g6, g3, 0
      addi g6, g6, 5
      addi g3, g3, 4
      addi g5, g5, -1
      bnz g5, fill
      halt
  )";
  soc::Majc5200 golden(assemble_or_throw(kDual));
  const auto gres = golden.run();
  ASSERT_TRUE(gres.all_halted);

  soc::Majc5200 first(assemble_or_throw(kDual));
  first.run(300);
  const auto bytes = ckpt::save_checkpoint(first);

  soc::Majc5200 second(assemble_or_throw(kDual));
  ckpt::restore_checkpoint(second, bytes);
  const auto res = second.run();
  EXPECT_TRUE(res.all_halted);
  EXPECT_EQ(res.cycles, gres.cycles);
  EXPECT_EQ(res.packets[0], gres.packets[0]);
  EXPECT_EQ(res.packets[1], gres.packets[1]);
  EXPECT_EQ(ckpt::arch_digest(second), ckpt::arch_digest(golden));
}

TEST(Ckpt, RestoredTrapStateSurvives) {
  // Save while a guest handler is pending (in_trap set), restore, finish:
  // the trap unit state (tvec/tcause/in_trap) must travel with the
  // checkpoint.
  constexpr const char* kTrapProg = R"(
      sethi g20, %hi(handler)
      orlo g20, %lo(handler)
      settvec g20
      setlo g3, 4097
      ldwi g4, g3, 0
      setlo g9, 77
      halt
    handler:
      mftr g5, 0
      mftr g7, 2
      rett g7
  )";
  cpu::CycleSim golden(assemble_or_throw(kTrapProg));
  const auto gres = golden.run();
  ASSERT_EQ(gres.reason, TerminationReason::kHalted);

  cpu::CycleSim first(assemble_or_throw(kTrapProg));
  first.run(5);  // inside or just past trap delivery
  const auto bytes = ckpt::save_checkpoint(first);

  cpu::CycleSim second(assemble_or_throw(kTrapProg));
  ckpt::restore_checkpoint(second, bytes);
  const auto res = second.run();
  EXPECT_EQ(res.reason, TerminationReason::kHalted);
  EXPECT_EQ(res.cycles, gres.cycles);
  EXPECT_EQ(second.cpu().state().read(5), golden.cpu().state().read(5));
  EXPECT_EQ(second.cpu().state().read(9), 77u);
  EXPECT_EQ(ckpt::arch_digest(second), ckpt::arch_digest(golden));
}


// ------------------------------------------------------------ format pin
//
// The byte format is versioned (kVersion): a checkpoint written by one
// build must restore in another of the same version. These constants pin
// the exact bytes of three representative checkpoints, so any change to
// serialization order, widths or filtering shows up here instead of as a
// silent format drift.

u64 fnv1a64(std::span<const u8> bytes) {
  u64 h = 1469598103934665603ull;
  for (u8 b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

u64 le_u64_at(std::span<const u8> bytes, std::size_t off) {
  if (off + 8 > bytes.size()) throw std::out_of_range("read past the end");
  u64 v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | bytes[off + i];
  return v;
}

/// Offset just past the first occurrence of a four-character section tag.
std::size_t after_tag(std::span<const u8> bytes, const char (&tag)[5]) {
  const auto it = std::search(bytes.begin(), bytes.end(), tag, tag + 4);
  if (it == bytes.end())
    throw std::runtime_error(std::string("no '") + tag + "' section");
  return static_cast<std::size_t>(it - bytes.begin()) + 4;
}

/// Live entry counts of the first LSU section: loads, stores, MSHRs.
/// Layout: fills u64, n_loads u64, loads (u64 each), n_stores u64, stores
/// (u64 addr, u32 bytes, u64 done), n_mshrs u64.
std::array<u64, 3> lsu_counts(std::span<const u8> bytes) {
  std::size_t off = after_tag(bytes, "LSU ") + 8;
  const u64 loads = le_u64_at(bytes, off);
  off += 8 + 8 * loads;
  const u64 stores = le_u64_at(bytes, off);
  off += 8 + 20 * stores;
  return {loads, stores, le_u64_at(bytes, off)};
}

/// Every fault class on: ECC corrections and
/// poisoned (healed) lines, fill-parity retries, crossbar delays and drops.
TimingConfig soak_faults() {
  TimingConfig cfg;
  cfg.faults.dram_correctable_rate = 0.2;
  cfg.faults.dram_uncorrectable_rate = 0.05;
  cfg.faults.mc_policy = MachineCheckPolicy::kPoison;
  cfg.faults.fill_parity_rate = 0.05;
  cfg.faults.xbar_delay_rate = 0.1;
  cfg.faults.xbar_drop_rate = 0.02;
  return cfg;
}

// Independent loads to fresh lines, with a store per line: misses keep
// the load and store buffers and the MSHRs busy, and each new line is a
// DRAM read the ECC fault plan may poison.
constexpr const char* kMissProg = R"(
    .data
  buf: .space 8192
    .code
    sethi g3, %hi(buf)
    orlo g3, %lo(buf)
    setlo g5, 64
  walk:
    ldwi g7, g3, 0
    ldwi g8, g3, 32
    ldwi g9, g3, 64
    ldwi g10, g3, 96
    stwi g5, g3, 4
    addi g3, g3, 128
    addi g5, g5, -1
    bnz g5, walk
    halt
)";

TEST(CkptFormat, CycleRunWithFaultsIsPinned) {
  cpu::CycleSim sim(assemble_or_throw(kMissProg), soak_faults());
  sim.run(100);  // mid-walk: misses in flight
  const auto bytes = ckpt::save_checkpoint(sim);
  // The pin is only as strong as the state it covers: the variable-length
  // sections must be non-empty at the save point.
  const auto [loads, stores, mshrs] = lsu_counts(bytes);
  EXPECT_GT(loads, 0u);
  EXPECT_GT(stores, 0u);
  EXPECT_GT(mshrs, 0u);
  EXPECT_GT(le_u64_at(bytes, after_tag(bytes, "ECC ")), 0u);  // healed set
  EXPECT_EQ(bytes.size(), 38419u);
  EXPECT_EQ(fnv1a64(bytes), 0xedd92db2b7f1de23ull);

  // Restoring and saving again reproduces the same bytes.
  cpu::CycleSim back(assemble_or_throw(kMissProg), soak_faults());
  ckpt::restore_checkpoint(back, bytes);
  EXPECT_EQ(ckpt::save_checkpoint(back), bytes);
}

TEST(CkptFormat, FunctionalRunIsPinned) {
  sim::FunctionalSim sim(assemble_or_throw(kLoopProg));
  sim.run(300);
  const auto bytes = ckpt::save_checkpoint(sim);
  EXPECT_EQ(bytes.size(), 9275u);
  EXPECT_EQ(fnv1a64(bytes), 0xf136725bdb577ffdull);

  sim::FunctionalSim back(assemble_or_throw(kLoopProg));
  ckpt::restore_checkpoint(back, bytes);
  EXPECT_EQ(ckpt::save_checkpoint(back), bytes);
}

TEST(CkptFormat, ChipRunIsPinned) {
  // Both CPUs run the same loop: two LSUs, two I$ and two register files.
  soc::Majc5200 chip(assemble_or_throw(kLoopProg));
  chip.run(300);
  const auto bytes = ckpt::save_checkpoint(chip);
  EXPECT_EQ(bytes.size(), 45845u);
  EXPECT_EQ(fnv1a64(bytes), 0x62f26f048c8f30eeull);

  soc::Majc5200 back(assemble_or_throw(kLoopProg));
  ckpt::restore_checkpoint(back, bytes);
  EXPECT_EQ(ckpt::save_checkpoint(back), bytes);
}

// ------------------------------------------------- microthreaded split

// Two contexts per CPU, each walking its own 4 KB region: a miss stalls
// one context past the switch threshold, so LSU issues from both contexts
// interleave. The second pass stores and reloads the same word (store
// forwarding) over lines that now hit.
constexpr const char* kThreadedProg = R"(
    .data
  buf: .space 8192
    .code
    gettid g20
    sethi g3, %hi(buf)
    orlo g3, %lo(buf)
    slli g21, g20, 12
    add g3, g3, g21
    addi g12, g3, 0
    setlo g5, 64
    setlo g6, 1
  walk:
    ldwi g7, g3, 0
    ldwi g8, g3, 32
    add g7, g7, g6
    stwi g7, g3, 4
    stwi g8, g3, 36
    addi g6, g6, 3
    addi g3, g3, 64
    addi g5, g5, -1
    bnz g5, walk
    addi g3, g12, 0
    setlo g5, 128
  again:
    ldwi g7, g3, 4
    addi g7, g7, 1
    stwi g7, g3, 8
    ldwi g9, g3, 8
    add g10, g10, g9
    addi g3, g3, 32
    addi g5, g5, -1
    bnz g5, again
    halt
)";

TEST(Ckpt, MicrothreadedCycleSplitRunMatchesUnbrokenRun) {
  TimingConfig cfg = soak_faults();
  cfg.hw_threads = 2;
  const auto lsu_values = [](const cpu::CycleSim& s) {
    std::array<u64, mem::kNumLsuCounters> v{};
    for (u32 i = 0; i < mem::kNumLsuCounters; ++i) {
      v[i] = s.memsys().lsu(0).counter(static_cast<mem::LsuCounter>(i));
    }
    return v;
  };

  cpu::CycleSim golden(assemble_or_throw(kThreadedProg), cfg);
  const auto gres = golden.run();
  ASSERT_EQ(gres.reason, TerminationReason::kHalted);
  ASSERT_GT(golden.cpu().stats().thread_switches, 0u);
  const auto golden_bytes = ckpt::save_checkpoint(golden);

  bool saw_live_buffers = false;
  for (u64 split : {37u, 150u, 333u, 600u, 901u}) {
    SCOPED_TRACE("split at packet " + std::to_string(split));
    cpu::CycleSim first(assemble_or_throw(kThreadedProg), cfg);
    ASSERT_EQ(first.run(split).reason, TerminationReason::kPacketCap);
    const auto bytes = ckpt::save_checkpoint(first);
    const auto [loads, stores, mshrs] = lsu_counts(bytes);
    saw_live_buffers |= loads > 0 && stores > 0 && mshrs > 0;

    cpu::CycleSim second(assemble_or_throw(kThreadedProg), cfg);
    ckpt::restore_checkpoint(second, bytes);
    const auto res = second.run();
    EXPECT_EQ(res.reason, TerminationReason::kHalted);
    EXPECT_EQ(res.cycles, gres.cycles);
    EXPECT_EQ(res.packets, gres.packets);
    EXPECT_EQ(lsu_values(second), lsu_values(golden));
    EXPECT_EQ(second.memsys().dcache().hits(), golden.memsys().dcache().hits());
    EXPECT_EQ(second.memsys().dcache().misses(),
              golden.memsys().dcache().misses());
    EXPECT_EQ(ckpt::save_checkpoint(second), golden_bytes);
  }
  // At least one split must land with loads, stores and fills in flight.
  EXPECT_TRUE(saw_live_buffers);
}


// -------------------------------------------------------------- hardening

TEST(CkptHardening, ForgedLsuCountThrowsBeforeAllocating) {
  cpu::CycleSim first(assemble_or_throw(kMissProg), soak_faults());
  first.run(100);
  auto bytes = ckpt::save_checkpoint(first);
  // The load count follows the LSU tag and the u64 fill counter. 2^40
  // loads would be 8 TB: the count must be refused against the bytes left,
  // not handed to the allocator.
  const std::size_t off = after_tag(bytes, "LSU ") + 8;
  const u64 forged = u64{1} << 40;
  for (int i = 0; i < 8; ++i)
    bytes[off + i] = static_cast<u8>(forged >> (8 * i));
  cpu::CycleSim second(assemble_or_throw(kMissProg), soak_faults());
  EXPECT_THROW(ckpt::restore_checkpoint(second, bytes), Error);
}

TEST(CkptHardening, StrictDecodingRejectsOutOfRangeBytes) {
  sim::FunctionalSim src(assemble_or_throw(kLoopProg));
  src.run(300);
  const std::vector<u8> good = ckpt::save_checkpoint(src);
  // The functional body ends with last_trap (code u8, cpu u32, pc u64,
  // cycle u64, unit u8, detail string, value u32, deliverable bool) and
  // the trap_div_zero bool. No trap was taken, so detail is empty and
  // last_trap is 35 bytes.
  const std::size_t div_zero = good.size() - 1;
  const std::size_t trap_code = div_zero - 35;
  ASSERT_EQ(good[trap_code], static_cast<u8>(TrapCause::kNone));
  ASSERT_LE(good[div_zero], 1);

  struct Case {
    const char* name;
    std::function<void(std::vector<u8>&)> corrupt;
  };
  const Case cases[] = {
      {"bool byte 2", [&](std::vector<u8>& b) { b[div_zero] = 2; }},
      {"TrapCause 0xff", [&](std::vector<u8>& b) { b[trap_code] = 0xff; }},
      {"trailing byte", [](std::vector<u8>& b) { b.push_back(0); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<u8> bytes = good;
    c.corrupt(bytes);
    sim::FunctionalSim dst(assemble_or_throw(kLoopProg));
    EXPECT_THROW(ckpt::restore_checkpoint(dst, bytes), Error);
  }

  // The header's mode byte is range-checked too (it follows magic and
  // version).
  std::vector<u8> bad_mode = good;
  bad_mode[12] = 0xff;
  EXPECT_THROW(ckpt::peek_mode(bad_mode), Error);

  sim::FunctionalSim dst(assemble_or_throw(kLoopProg));
  EXPECT_NO_THROW(ckpt::restore_checkpoint(dst, good));
}

} // namespace
} // namespace majc
