// Farm engine tests: the three determinism pillars of src/farm/.
//
//  * campaign JSON is byte-identical for any worker count (including under
//    fault injection) — the property majc_farm and majcd rely on;
//  * an engine job is bit-identical to a fresh run_kernel / _functional of
//    the same spec+config (shared predecode changes nothing architectural);
//  * a reused (reset-in-place) machine reproduces a fresh machine exactly,
//    even after running a *different* kernel in between.
#include <gtest/gtest.h>

#include <vector>

#include "src/farm/campaign.h"
#include "src/farm/farm.h"
#include "src/kernels/bitrev.h"
#include "src/kernels/fir.h"
#include "src/kernels/kernel.h"
#include "src/kernels/max_search.h"

namespace majc {
namespace {

constexpr u64 kSeed = 0x5eed;

/// Small kernel set (fast enough for a unit test) with faults derived the
/// same way majc_farm's fault campaigns storm them.
farm::Engine make_small_campaign(bool with_faults) {
  farm::Engine eng;
  eng.add_kernel(kernels::make_fir_spec());
  eng.add_kernel(kernels::make_bitrev_spec());
  eng.add_kernel(kernels::make_max_search_spec());
  for (u32 ki = 0; ki < eng.num_kernels(); ++ki) {
    for (u64 it = 0; it < 2; ++it) {
      farm::Job job;
      job.kernel = ki;
      job.iteration = it;
      if (with_faults) {
        job.cfg.faults = farm::derive_soak_faults(kSeed, ki, it);
      }
      eng.submit(job);
      job.mode = farm::SimMode::kFunctional;
      eng.submit(job);
    }
  }
  return eng;
}

void expect_same_run(const kernels::KernelRun& a, const kernels::KernelRun& b) {
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.halted, b.halted);
  EXPECT_EQ(a.kernel_cycles, b.kernel_cycles);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.instrs, b.instrs);
  EXPECT_EQ(a.arch_digest, b.arch_digest);
  EXPECT_EQ(a.recovery.ecc_corrected, b.recovery.ecc_corrected);
  EXPECT_EQ(a.recovery.ecc_retried, b.recovery.ecc_retried);
  EXPECT_EQ(a.recovery.fill_parity_retries, b.recovery.fill_parity_retries);
  EXPECT_EQ(a.recovery.xbar_delayed_grants, b.recovery.xbar_delayed_grants);
  EXPECT_EQ(a.message, b.message);
}

// ------------------------------------------------------- campaign determinism

TEST(Farm, CampaignJsonByteIdenticalAcrossWorkerCounts) {
  const farm::Engine eng = make_small_campaign(/*with_faults=*/false);
  const std::string j1 = farm::campaign_json(eng, eng.run(1), kSeed);
  const std::string j4 = farm::campaign_json(eng, eng.run(4), kSeed);
  EXPECT_FALSE(j1.empty());
  EXPECT_EQ(j1, j4);
}

TEST(Farm, CampaignJsonByteIdenticalUnderFaultInjection) {
  const farm::Engine eng = make_small_campaign(/*with_faults=*/true);
  const std::vector<farm::JobResult> r1 = eng.run(1);
  const std::vector<farm::JobResult> r4 = eng.run(4);
  EXPECT_EQ(farm::campaign_json(eng, r1, kSeed),
            farm::campaign_json(eng, r4, kSeed));
  // The storm actually exercised recovery (not a vacuous comparison).
  u64 recovered = 0;
  for (const farm::JobResult& r : r1) {
    EXPECT_TRUE(r.run.valid) << r.run.message;
    recovered += r.run.recovery.ecc_corrected + r.run.recovery.ecc_retried +
                 r.run.recovery.xbar_delayed_grants;
  }
  EXPECT_GT(recovered, 0u);
}

TEST(Farm, ResultsLandInSubmissionOrder) {
  const farm::Engine eng = make_small_campaign(/*with_faults=*/false);
  const std::vector<farm::JobResult> res = eng.run(3);
  ASSERT_EQ(res.size(), eng.jobs().size());
  for (std::size_t i = 0; i < res.size(); ++i) {
    const farm::Job& job = eng.jobs()[i];
    // Cycle jobs report real cycle counts (> packets: every packet costs at
    // least a cycle and stalls add more); functional jobs stand in packet
    // count for time. Distinguishable, so a shuffled result vector fails.
    EXPECT_TRUE(res[i].run.valid) << "job " << i << ": " << res[i].run.message;
    if (job.mode == farm::SimMode::kCycle) {
      EXPECT_GT(res[i].run.total_cycles, res[i].run.packets) << "job " << i;
    } else {
      EXPECT_EQ(res[i].run.total_cycles, res[i].run.packets) << "job " << i;
    }
  }
}

// ------------------------------------------- engine == fresh run_kernel runs

TEST(Farm, CycleJobMatchesFreshRunKernel) {
  const kernels::KernelSpec spec = kernels::make_fir_spec();
  TimingConfig cfg;
  cfg.faults = farm::derive_soak_faults(kSeed, 0, 0);

  farm::Engine eng;
  eng.add_kernel(spec);
  farm::Job job;
  job.cfg = cfg;
  eng.submit(job);
  const std::vector<farm::JobResult> res = eng.run(1);

  const kernels::KernelRun fresh = kernels::run_kernel(spec, cfg);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_TRUE(fresh.valid) << fresh.message;
  expect_same_run(res[0].run, fresh);
}

TEST(Farm, FunctionalJobMatchesFreshRunKernelFunctional) {
  const kernels::KernelSpec spec = kernels::make_bitrev_spec();
  farm::Engine eng;
  eng.add_kernel(spec);
  farm::Job job;
  job.mode = farm::SimMode::kFunctional;
  eng.submit(job);
  const std::vector<farm::JobResult> res = eng.run(1);

  const kernels::KernelRun fresh = kernels::run_kernel_functional(spec);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_TRUE(fresh.valid) << fresh.message;
  expect_same_run(res[0].run, fresh);
}

// ------------------------------------------------------------- machine reuse

TEST(Farm, ResetMachineReproducesFreshMachine) {
  // Run A, then B, then A again on ONE reused machine: the third run must be
  // bit-identical to a fresh-machine run of A — reset() leaks nothing (no
  // stale memory, cache state, predictor history or fault-stream position).
  const kernels::CompiledKernel a =
      kernels::compile_kernel(kernels::make_fir_spec());
  const kernels::CompiledKernel b =
      kernels::compile_kernel(kernels::make_max_search_spec());
  TimingConfig cfg_a;
  cfg_a.faults = farm::derive_soak_faults(kSeed, 0, 1);
  TimingConfig cfg_b;  // fault-free in between, to move cache/arena state

  cpu::CycleSim machine(a.program, cfg_a);
  const kernels::KernelRun first = kernels::run_kernel_on(machine, a.spec);
  machine.reset(b.program, cfg_b);
  const kernels::KernelRun other = kernels::run_kernel_on(machine, b.spec);
  EXPECT_TRUE(other.valid) << other.message;
  machine.reset(a.program, cfg_a);
  const kernels::KernelRun again = kernels::run_kernel_on(machine, a.spec);

  const kernels::KernelRun fresh = kernels::run_kernel(a.spec, cfg_a);
  EXPECT_TRUE(fresh.valid) << fresh.message;
  expect_same_run(first, fresh);
  expect_same_run(again, fresh);
}

TEST(Farm, ResetFunctionalSimReproducesFreshSim) {
  const kernels::CompiledKernel a =
      kernels::compile_kernel(kernels::make_fir_spec());
  const kernels::CompiledKernel b =
      kernels::compile_kernel(kernels::make_bitrev_spec());

  sim::FunctionalSim machine(a.program);
  const kernels::KernelRun first = kernels::run_kernel_on(machine, a.spec);
  machine.reset(b.program);
  const kernels::KernelRun other = kernels::run_kernel_on(machine, b.spec);
  EXPECT_TRUE(other.valid) << other.message;
  machine.reset(a.program);
  const kernels::KernelRun again = kernels::run_kernel_on(machine, a.spec);

  const kernels::KernelRun fresh = kernels::run_kernel_functional(a.spec);
  EXPECT_TRUE(fresh.valid) << fresh.message;
  expect_same_run(first, fresh);
  expect_same_run(again, fresh);
}

TEST(Farm, WorkerMachinesReuseMatchesFreshAcrossModes) {
  // The engine's per-worker machine pair, driven the way its executor
  // drives it: alternate cycle and functional jobs on the same
  // WorkerMachines (acquire_* resets in place, run_kernel_on runs) and
  // check each against a fresh single-shot run.
  const kernels::CompiledKernel k =
      kernels::compile_kernel(kernels::make_max_search_spec());
  farm::WorkerMachines wm;
  TimingConfig cfg;
  cfg.faults = farm::derive_soak_faults(kSeed, 2, 0);
  const auto run_cycle = [&] {
    return kernels::run_kernel_on(wm.acquire_cycle(k.program, cfg), k.spec);
  };
  const auto run_functional = [&] {
    return kernels::run_kernel_on(wm.acquire_functional(k.program), k.spec);
  };

  const kernels::KernelRun c1 = run_cycle();
  const kernels::KernelRun f1 = run_functional();
  const kernels::KernelRun c2 = run_cycle();
  const kernels::KernelRun f2 = run_functional();

  expect_same_run(c1, kernels::run_kernel(k.spec, cfg));
  expect_same_run(f1, kernels::run_kernel_functional(k.spec));
  expect_same_run(c2, c1);
  expect_same_run(f2, f1);
}

// --------------------------------------------------------------- error paths

TEST(Farm, ThrowingJobBecomesInvalidResultNotEngineFailure) {
  kernels::KernelSpec bad;
  bad.name = "bad";
  bad.source = "start:\n  halt\n";
  bad.setup = [](sim::MemoryBus&, const masm::Image&) {
    throw std::runtime_error("setup exploded");
  };
  farm::Engine eng;
  eng.add_kernel(std::move(bad));
  eng.submit(farm::Job{});
  const std::vector<farm::JobResult> res = eng.run(2);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_FALSE(res[0].run.valid);
  EXPECT_NE(res[0].run.message.find("setup exploded"), std::string::npos);
}

TEST(Farm, DeriveSoakFaultsIsPureAndSeedSensitive) {
  const FaultConfig a = farm::derive_soak_faults(1, 2, 3);
  const FaultConfig b = farm::derive_soak_faults(1, 2, 3);
  const FaultConfig c = farm::derive_soak_faults(2, 2, 3);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.dram_correctable_rate, b.dram_correctable_rate);
  EXPECT_NE(a.seed, c.seed);
  // Policy alternates by iteration, independent of seed.
  EXPECT_EQ(farm::derive_soak_faults(9, 0, 0).mc_policy,
            MachineCheckPolicy::kRetry);
  EXPECT_EQ(farm::derive_soak_faults(9, 0, 1).mc_policy,
            MachineCheckPolicy::kPoison);
}

} // namespace
} // namespace majc
