// Differential sweep of the two functional-mode execution backends: the
// packet interpreter (ExecBackend::kInterp) and the threaded-code
// translation backend (ExecBackend::kThreaded) must produce bit-identical
// guest-visible state — registers and memory (arch_digest), trap codes and
// detail strings, console output, retire statistics and checkpoint bytes —
// across all 16 Table 1/2 kernels, fatal and recovered traps, a seeded
// fault-config job matrix through the farm, and checkpoints saved mid-run
// inside a translated loop and restored into the *other* backend.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/farm/farm.h"
#include "src/kernels/kernel.h"
#include "src/kernels/table12.h"
#include "src/masm/assembler.h"
#include "src/sim/functional_sim.h"
#include "src/sim/threaded.h"
#include "src/support/checkpoint.h"

namespace majc {
namespace {

using kernels::NamedKernel;
using kernels::table12_kernels;
using masm::assemble_or_throw;
using sim::ExecBackend;
using sim::FunctionalSim;

struct Outcome {
  kernels::KernelRun run;
  std::string console;
  u64 traps_delivered = 0;
};

Outcome run_kernel_with(const sim::ProgramRef& prog,
                        const kernels::KernelSpec& spec, ExecBackend b) {
  FunctionalSim m(prog);
  m.set_backend(b);
  Outcome o;
  o.run = kernels::run_kernel_on(m, spec);
  o.console = m.console();
  o.traps_delivered = m.traps_delivered();
  return o;
}

// ----------------------------------------------- the 16-kernel sweep

TEST(BackendEquiv, AllTable12KernelsBitIdentical) {
  for (const NamedKernel& nk : table12_kernels()) {
    const kernels::KernelSpec spec = nk.make();
    const sim::ProgramRef prog =
        sim::make_program(assemble_or_throw(spec.source));
    const Outcome a = run_kernel_with(prog, spec, ExecBackend::kInterp);
    const Outcome b = run_kernel_with(prog, spec, ExecBackend::kThreaded);
    EXPECT_TRUE(b.run.valid) << nk.name << ": " << b.run.message;
    EXPECT_TRUE(b.run.halted) << nk.name;
    EXPECT_EQ(a.run.valid, b.run.valid) << nk.name;
    EXPECT_EQ(a.run.arch_digest, b.run.arch_digest) << nk.name;
    EXPECT_EQ(a.run.packets, b.run.packets) << nk.name;
    EXPECT_EQ(a.run.instrs, b.run.instrs) << nk.name;
    EXPECT_EQ(a.run.kernel_cycles, b.run.kernel_cycles) << nk.name;
    EXPECT_EQ(a.run.reason, b.run.reason) << nk.name;
    EXPECT_EQ(a.console, b.console) << nk.name;
    EXPECT_EQ(a.traps_delivered, b.traps_delivered) << nk.name;
    // Packets the translator cannot lower run through kGenericPacket (the
    // interpreter's execute_packet). Only max_search has any: its
    // nop+fcmplt+nop+cmovnz and ldwi+cmovnz+nop+setlo packets carry
    // intra-packet hazards that no specialized record covers.
    const u64 expect_generic = std::string(nk.name) == "max_search" ? 36 : 0;
    EXPECT_EQ(prog->threaded().stats.generic_packets, expect_generic)
        << nk.name;
  }
}

// --------------------------------------------------------- fatal traps

// Each program ends in an architected trap; both backends must report the
// same cause *and* the same human-readable detail string, leave the same
// architectural state behind, and agree on how many packets retired before
// the trap (precise-trap equivalence).
TEST(BackendEquiv, FatalTrapCodesAndDetailsMatch) {
  const char* programs[] = {
      // Misaligned load (also exercised inside a fuseable packet run).
      R"(
        setlo g3, 4097
        setlo g4, 1
        add g5, g3, g4 | add g6, g4, g4
        ldwi g7, g3, 0
        halt
      )",
      // Out-of-bounds store via a huge base register.
      R"(
        sethi g3, 0xffff
        orlo g3, 0xfff0
        stwi g3, g3, 0
        halt
      )",
      // Misaligned store in slot 0 of a multi-slot packet: the threaded
      // backend runs such packets via deferred-commit records, so the
      // slot-order trap point must still be exact.
      R"(
        setlo g3, 4098
        setlo g4, 5
        stwi g4, g3, 1 | add g5, g4, g4
        halt
      )",
  };
  for (const char* src : programs) {
    FunctionalSim a(assemble_or_throw(src));
    a.set_backend(ExecBackend::kInterp);
    const sim::RunResult ra = a.run();
    FunctionalSim b(assemble_or_throw(src));
    b.set_backend(ExecBackend::kThreaded);
    const sim::RunResult rb = b.run();
    ASSERT_EQ(ra.reason, TerminationReason::kTrap) << src;
    EXPECT_EQ(rb.reason, ra.reason) << src;
    EXPECT_EQ(rb.trap.code, ra.trap.code) << src;
    EXPECT_EQ(rb.trap.detail, ra.trap.detail) << src;
    EXPECT_EQ(rb.packets, ra.packets) << src;
    EXPECT_EQ(rb.instrs, ra.instrs) << src;
    EXPECT_EQ(ckpt::arch_digest(b), ckpt::arch_digest(a)) << src;
  }
}

TEST(BackendEquiv, ArmedDivideByZeroTrapMatches) {
  const char* src = R"(
    setlo g3, 9
    setlo g4, 0
    div g5, g3, g4
    halt
  )";
  FunctionalSim a(assemble_or_throw(src));
  a.set_backend(ExecBackend::kInterp);
  a.set_trap_div_zero(true);
  const sim::RunResult ra = a.run();
  FunctionalSim b(assemble_or_throw(src));
  b.set_backend(ExecBackend::kThreaded);
  b.set_trap_div_zero(true);
  const sim::RunResult rb = b.run();
  ASSERT_EQ(ra.reason, TerminationReason::kTrap);
  ASSERT_EQ(ra.trap.code, TrapCause::kDivideByZero);
  EXPECT_EQ(rb.reason, ra.reason);
  EXPECT_EQ(rb.trap.code, ra.trap.code);
  EXPECT_EQ(rb.trap.detail, ra.trap.detail);
  EXPECT_EQ(ckpt::arch_digest(b), ckpt::arch_digest(a));
}

// ------------------------------------------------- recovered (vectored)

TEST(BackendEquiv, GuestTrapHandlerRecoveryMatches) {
  // Installs a handler, takes a misaligned load, reads the saved cause and
  // fall-through pc with MFTR, and resumes with RETT — the full recoverable
  // trap round trip of PR 5, on both backends.
  const char* src = R"(
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
  FunctionalSim a(assemble_or_throw(src));
  a.set_backend(ExecBackend::kInterp);
  const sim::RunResult ra = a.run();
  FunctionalSim b(assemble_or_throw(src));
  b.set_backend(ExecBackend::kThreaded);
  const sim::RunResult rb = b.run();
  ASSERT_EQ(ra.reason, TerminationReason::kHalted);
  EXPECT_EQ(rb.reason, ra.reason);
  EXPECT_EQ(b.state().read(5), static_cast<u32>(TrapCause::kMisaligned));
  EXPECT_EQ(b.state().read(9), 77u);
  EXPECT_EQ(b.traps_delivered(), a.traps_delivered());
  EXPECT_EQ(rb.packets, ra.packets);
  EXPECT_EQ(rb.instrs, ra.instrs);
  EXPECT_EQ(ckpt::arch_digest(b), ckpt::arch_digest(a));
}

// ------------------------------------- seeded fault-config job matrix

// majc_farm's seeded fault job matrix (every kernel, derive_soak_faults
// per iteration) through the farm on each backend: per-job architectural
// outcomes must pair up exactly. This also pins the farm's backend
// plumbing — Job.backend reaches the worker machines.
TEST(BackendEquiv, SeededFarmSweepMatchesAcrossBackends) {
  std::vector<farm::JobResult> per_backend[2];
  for (const ExecBackend backend :
       {ExecBackend::kInterp, ExecBackend::kThreaded}) {
    farm::Engine eng;
    for (const NamedKernel& nk : table12_kernels()) {
      kernels::KernelSpec spec = nk.make();
      spec.name = nk.name;
      eng.add_kernel(std::move(spec));
    }
    for (u32 ki = 0; ki < eng.num_kernels(); ++ki) {
      for (u64 it = 0; it < 2; ++it) {
        farm::Job job;
        job.kernel = ki;
        job.iteration = it;
        job.mode = farm::SimMode::kFunctional;
        job.backend = backend;
        job.cfg.faults = farm::derive_soak_faults(0x20260809, ki, it);
        eng.submit(job);
      }
    }
    per_backend[backend == ExecBackend::kThreaded] = eng.run(2);
  }
  const std::vector<farm::JobResult>& ia = per_backend[0];
  const std::vector<farm::JobResult>& th = per_backend[1];
  ASSERT_EQ(ia.size(), th.size());
  for (std::size_t i = 0; i < ia.size(); ++i) {
    EXPECT_EQ(ia[i].run.valid, th[i].run.valid) << "job " << i;
    EXPECT_EQ(ia[i].run.halted, th[i].run.halted) << "job " << i;
    EXPECT_EQ(ia[i].run.arch_digest, th[i].run.arch_digest) << "job " << i;
    EXPECT_EQ(ia[i].run.packets, th[i].run.packets) << "job " << i;
    EXPECT_EQ(ia[i].run.instrs, th[i].run.instrs) << "job " << i;
  }
}

// --------------------------------- checkpoints across the backend seam

// A tight store loop (a 2-wide addi packet, an addi-fed back edge), so the
// mid-run packet caps below stop the run inside the loop.
constexpr const char* kStoreLoopProg = R"(
    .data
  buf: .space 1024
    .code
    sethi g3, %hi(buf)
    orlo g3, %lo(buf)
    setlo g5, 200
    setlo g6, 1
  fill:
    stwi g6, g3, 0
    addi g6, g6, 3 | addi g3, g3, 4
    addi g5, g5, -1
    bnz g5, fill
    halt
)";

TEST(BackendEquiv, MidRunStateBitIdenticalIncludingCheckpointBytes) {
  // Stop both backends at the same mid-loop packet counts; the serialized
  // checkpoints (headers, registers, memory, counters) must be
  // byte-identical — the backend is host-side and outside the format.
  const masm::Image img = assemble_or_throw(kStoreLoopProg);
  for (const u64 cap : {5ull, 101ull, 102ull, 103ull, 250ull}) {
    FunctionalSim a(img);
    a.set_backend(ExecBackend::kInterp);
    const sim::RunResult ra = a.run(cap);
    FunctionalSim b(img);
    b.set_backend(ExecBackend::kThreaded);
    const sim::RunResult rb = b.run(cap);
    EXPECT_EQ(rb.reason, ra.reason) << "cap " << cap;
    EXPECT_EQ(b.packets_run(), a.packets_run()) << "cap " << cap;
    EXPECT_EQ(b.instrs_run(), a.instrs_run()) << "cap " << cap;
    EXPECT_EQ(ckpt::save_checkpoint(b), ckpt::save_checkpoint(a))
        << "cap " << cap;
  }
}

TEST(BackendEquiv, CheckpointCrossesBackendsMidSuperblock) {
  // Unbroken reference run (interpreter).
  const masm::Image img = assemble_or_throw(kStoreLoopProg);
  FunctionalSim ref(img);
  ref.set_backend(ExecBackend::kInterp);
  const sim::RunResult rr = ref.run();
  ASSERT_TRUE(rr.halted);
  const u64 ref_digest = ckpt::arch_digest(ref);

  // threaded -> checkpoint mid-superblock -> restore -> interp finishes.
  {
    FunctionalSim first(img);
    first.set_backend(ExecBackend::kThreaded);
    ASSERT_EQ(first.run(102).reason, TerminationReason::kPacketCap);
    const std::vector<u8> snap = ckpt::save_checkpoint(first);
    FunctionalSim second(img);
    second.set_backend(ExecBackend::kInterp);
    ckpt::restore_checkpoint(second, snap);
    const sim::RunResult res = second.run();
    EXPECT_TRUE(res.halted);
    EXPECT_EQ(second.packets_run(), ref.packets_run());
    EXPECT_EQ(second.instrs_run(), ref.instrs_run());
    EXPECT_EQ(ckpt::arch_digest(second), ref_digest);
  }
  // interp -> checkpoint -> restore -> threaded finishes.
  {
    FunctionalSim first(img);
    first.set_backend(ExecBackend::kInterp);
    ASSERT_EQ(first.run(102).reason, TerminationReason::kPacketCap);
    const std::vector<u8> snap = ckpt::save_checkpoint(first);
    FunctionalSim second(img);
    // restore_checkpoint does not touch the backend; re-select after it.
    ckpt::restore_checkpoint(second, snap);
    second.set_backend(ExecBackend::kThreaded);
    const sim::RunResult res = second.run();
    EXPECT_TRUE(res.halted);
    EXPECT_EQ(second.packets_run(), ref.packets_run());
    EXPECT_EQ(second.instrs_run(), ref.instrs_run());
    EXPECT_EQ(ckpt::arch_digest(second), ref_digest);
  }
}

} // namespace
} // namespace majc
