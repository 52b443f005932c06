// Deterministic parallel campaign engine with a job-resilience layer.
//
// The MAJC evaluation is embarrassingly parallel across *runs*: Table 1/2
// sweeps, fault-seed storms and config ablations are matrices of independent
// (kernel x sim-mode x TimingConfig x fault-seed) jobs. The farm shards such
// a matrix across host threads while keeping every output bit-identical to
// a serial run:
//
//   * shared immutable predecode — each kernel is assembled + predecoded
//     once (kernels::CompiledKernel); every worker aliases the same
//     read-only sim::Program instead of re-deriving it per job. This is a
//     constant per-job saving that shows up even at --jobs=1.
//   * per-worker machine reuse — each worker owns one resettable CycleSim /
//     FunctionalSim arena and reinitializes it in place per job
//     (CycleSim::reset), so the 32 MB guest arena is allocated once per
//     worker, not once per job.
//   * deterministic aggregation — jobs are pulled from an atomic cursor in
//     any order, but results land in a submission-order vector, and
//     campaign JSON (src/farm/campaign.h) carries no host-timing fields, so
//     --jobs=1 and --jobs=16 campaigns are byte-identical.
//
// On top of that sits the resilience layer (DESIGN.md §12): a per-job
// JobPolicy (packet budget, host deadline, slice budget, bounded retry with
// a deterministic seed-advancing backoff schedule), failure classification
// into a structured taxonomy carried in the majc-farm-v1 JSON, quarantine
// of jobs that fail identically across retries, checkpoint-based
// preemption (RunControl drain token; PR 5 checkpoint format), and a
// seeded host-chaos plan that tests/test_resilience.cpp uses to prove none
// of it perturbs results.
//
// Determinism rules a job must obey (audited in DESIGN.md §11): a running
// machine touches only its own arena plus shared *immutable* state (the
// Program, opcode/disasm tables); all RNG (FaultPlan, data synthesis) is
// seeded per job; no mutable statics anywhere in the simulator core.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cpu/cycle_cpu.h"
#include "src/kernels/kernel.h"
#include "src/sim/functional_sim.h"
#include "src/soc/config.h"

namespace majc::farm {

enum class SimMode : u8 { kFunctional = 0, kCycle = 1 };

constexpr const char* sim_mode_name(SimMode m) {
  switch (m) {
    case SimMode::kFunctional: return "functional";
    case SimMode::kCycle: return "cycle";
  }
  // Every construction site is validated (the CLI rejects unknown --mode
  // values before a Job exists), so an out-of-range enum here is a model
  // bug, not an input: fail loudly instead of labeling output "?".
  assert(false && "invalid SimMode");
  std::abort();
}

/// Structured failure taxonomy (DESIGN.md §12). `failure_class` in the
/// majc-farm-v1 JSON is the *final* outcome after the retry policy ran, so
/// it is deterministic: a transient host disturbance that a retry absorbed
/// reports kNone, exactly like an undisturbed run.
enum class FailureClass : u8 {
  kNone = 0,              // job completed and validated
  kTransientRetryable = 1, // attempt lost to a host-side disturbance (chaos
                           // kill, abandoned preemption); a retry reproduces
                           // the deterministic guest outcome
  kDeterministicFatal = 2, // deterministic guest outcome (trap, validate
                           // mismatch): retrying replays the same failure
  kHostException = 3,      // the job threw a host C++ exception
  kDeadlineExceeded = 4,   // packet/cycle budget or host deadline exhausted
};

constexpr const char* failure_class_name(FailureClass c) {
  switch (c) {
    case FailureClass::kNone: return "none";
    case FailureClass::kTransientRetryable: return "transient-retryable";
    case FailureClass::kDeterministicFatal: return "deterministic-fatal";
    case FailureClass::kHostException: return "host-exception";
    case FailureClass::kDeadlineExceeded: return "deadline-exceeded";
  }
  assert(false && "invalid FailureClass");
  std::abort();
}

/// Per-job execution policy: budgets, deadline, slicing and retry. The
/// default policy reproduces the pre-resilience engine exactly (one
/// attempt, one slice, spec packet budget, no deadline).
struct JobPolicy {
  /// Guest packet budget; 0 = the kernel spec's own max_packets.
  u64 max_packets = 0;
  /// Run in slices of this many packets (0 = one slice). Slice boundaries
  /// are where the engine honors deadlines, drain requests and forced
  /// preemptions; sliced execution is byte-identical to unsliced
  /// (tests/test_resilience.cpp pins this in both sim modes, under faults).
  u64 slice_packets = 0;
  /// Wall-clock budget per job across its slices (0 = none). A job still
  /// running at the deadline is killed at the next slice boundary and
  /// reported as a structured kDeadlineExceeded result — this is what
  /// converts a hung guest that defeats the cycle watchdog (it keeps
  /// storing) into a fast, classified failure instead of a pinned worker.
  double host_deadline_secs = 0.0;
  /// Total attempts (1 = no retry). Only kHostException and
  /// kTransientRetryable failures are retried: guest outcomes are
  /// deterministic, so kDeterministicFatal / kDeadlineExceeded retries
  /// would replay the identical failure.
  u32 max_attempts = 1;
  /// Base for the deterministic seed-advancing backoff schedule between
  /// retry attempts, in microseconds (0 = retry immediately). Attempt k
  /// sleeps base*2^(k-1) up to backoff_cap_us, jittered by a SplitMix64
  /// stream seeded from (backoff_seed, job index, attempt) — the same
  /// deterministic schedule every run, never wall-clock randomness.
  u64 backoff_base_us = 0;
  u64 backoff_cap_us = 10'000;
  u64 backoff_seed = 0;
};

/// Deterministic backoff delay before retry attempt `attempt` (>= 2) of job
/// `job_index` under `p` — pure function of its arguments.
u64 backoff_us(const JobPolicy& p, u64 job_index, u32 attempt);

/// One cell of the campaign matrix. `kernel` indexes the engine's compiled
/// kernel table; the per-job fault seed rides in cfg.faults.
struct Job {
  u32 kernel = 0;
  SimMode mode = SimMode::kCycle;
  /// Functional-mode execution engine (ignored by cycle jobs). Guest-visible
  /// output is identical for both backends, and the field is part of the
  /// job, not of the host schedule, so -j1 and -jN campaigns stay
  /// byte-identical across backends.
  sim::ExecBackend backend = sim::ExecBackend::kThreaded;
  TimingConfig cfg;
  u64 iteration = 0;  // caller-defined tag (e.g. soak iteration number)
  JobPolicy policy;
};

struct JobResult {
  kernels::KernelRun run;
  /// Final-outcome classification and quarantine flag. Deterministic —
  /// carried in the majc-farm-v1 JSON (campaign.cpp).
  FailureClass failure = FailureClass::kNone;
  /// Set when retries were exhausted by identical failures (or the first
  /// failure was already deterministic): re-submitting this job without
  /// changing it is known to be pointless.
  bool quarantined = false;
  /// False only when a drain/cancel interrupted the job mid-flight; its
  /// state (if drained) is parked in the RunControl for a later resume and
  /// `run` holds no meaningful result.
  bool done = true;
  // Host-side observations — informational only, deliberately excluded from
  // the deterministic campaign JSON (they differ run to run and job-count
  // to job-count, e.g. chaos adds attempts the baseline never sees).
  u32 attempts = 1;
  u32 slices = 0;
  u32 preemptions = 0;  // forced checkpoint save/restore cycles absorbed
  double host_secs = 0.0;
  u32 worker = 0;
};

/// Host-side campaign aggregates (same caveat: not part of deterministic
/// output).
struct CampaignStats {
  u32 workers = 0;
  double wall_secs = 0.0;
  u64 total_packets = 0;
  u64 total_instrs = 0;
  double aggregate_pps = 0.0;   // simulated packets per host second
  double aggregate_mips = 0.0;  // simulated Minstrs per host second
  // Resilience-layer counters.
  u64 total_attempts = 0;
  u64 jobs_retried = 0;
  u64 jobs_quarantined = 0;
  u64 forced_preemptions = 0;
  u64 jobs_suspended = 0;  // drained mid-flight (resumable via RunControl)
};

/// Seeded host-chaos injection plan: a storm against the *engine* rather
/// than the guest. Decisions are pure functions of (seed, job index,
/// attempt, slice), never of worker identity or wall clock, so a chaotic
/// campaign retried to completion aggregates byte-identically to an
/// undisturbed one (tests/test_resilience.cpp asserts this on every
/// Table 1/2 kernel in both sim modes). Exceptions and deadline kills only
/// fire on attempt 1 — the bounded retry then completes the job clean.
struct ChaosPlan {
  u64 seed = 0;
  double exception_rate = 0.0;     // P(throw at attempt-1 start)
  double deadline_kill_rate = 0.0; // P(kill attempt 1 at a slice boundary)
  double preempt_rate = 0.0;       // P(forced checkpoint preemption at a
                                   // slice boundary)
  u32 max_preemptions_per_job = 2;
};

/// Cancellation / drain token plus the resume store behind it. Sharable
/// with Engine::run from another thread:
///
///   * request_cancel(): workers stop at the next slice boundary and
///     abandon in-flight attempts (cheap, nothing saved);
///   * request_drain(): workers checkpoint in-flight jobs (PR 5 format)
///     into this control and stop. A later Engine::run with the same
///     control resumes every suspended job from its checkpoint, skips the
///     already-completed ones (their results are cached here), and the
///     final aggregated results are byte-identical to an uninterrupted run
///     (tests/test_resilience.cpp pins this).
class RunControl {
public:
  void request_cancel() { cancel_.store(true, std::memory_order_relaxed); }
  void request_drain() { drain_.store(true, std::memory_order_relaxed); }
  /// Deterministic drain trigger (tests, staged preemption): drain as soon
  /// as `n` jobs have completed in total.
  void request_drain_after(std::size_t n) {
    drain_after_.store(n, std::memory_order_relaxed);
  }

  bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }
  bool drain_requested() const {
    return drain_.load(std::memory_order_relaxed);
  }
  /// Clear the cancel/drain flags (kept: the resume store) so the next run
  /// can make progress.
  void rearm() {
    cancel_.store(false, std::memory_order_relaxed);
    drain_.store(false, std::memory_order_relaxed);
    drain_after_.store(0, std::memory_order_relaxed);
  }

  std::size_t num_completed() const;
  std::size_t num_suspended() const;

  /// A drained job's parked state: the PR 5 checkpoint of its machine plus
  /// the retry/deadline bookkeeping needed to resume exactly where it
  /// stopped. Public so the executor can build one; the store itself is
  /// private (only Engine::run files it).
  struct Suspended {
    std::vector<u8> checkpoint;
    u32 attempt = 1;
    u32 slices = 0;
    u32 preemptions = 0;
    double attempt_secs = 0.0;  // deadline budget already consumed
  };

private:
  friend class Engine;

  std::atomic<bool> cancel_{false};
  std::atomic<bool> drain_{false};
  std::atomic<std::size_t> drain_after_{0};

  mutable std::mutex mu_;
  std::unordered_map<u32, JobResult> completed_;
  std::unordered_map<u32, Suspended> suspended_;
};

/// Per-worker reusable machines: one cycle arena and one functional arena,
/// constructed on first use and reset in place for every subsequent job.
/// Also usable standalone (tests, campaign_bench's probes).
class WorkerMachines {
public:
  /// Machine handout for the resilient executor: ensure the machine exists
  /// and is freshly reset to (program, cfg) — i.e. indistinguishable from a
  /// newly constructed one.
  cpu::CycleSim& acquire_cycle(const sim::ProgramRef& program,
                               const TimingConfig& cfg);
  sim::FunctionalSim& acquire_functional(const sim::ProgramRef& program);

private:
  std::optional<cpu::CycleSim> cycle_;
  std::optional<sim::FunctionalSim> functional_;
};

/// Work-queue thread pool over a submitted job matrix.
class Engine {
public:
  Engine() = default;

  /// Register a compiled kernel; returns its index for Job::kernel.
  u32 add_kernel(kernels::CompiledKernel k);
  /// Compile + register in one step.
  u32 add_kernel(kernels::KernelSpec spec);

  const kernels::CompiledKernel& kernel(u32 i) const { return kernels_[i]; }
  std::size_t num_kernels() const { return kernels_.size(); }

  /// Append a job; returns its submission index (== index into run()'s
  /// result vector).
  u32 submit(Job job);
  const std::vector<Job>& jobs() const { return jobs_; }

  struct RunOptions {
    unsigned workers = 0;          // 0 = host hardware concurrency
    CampaignStats* stats = nullptr;
    RunControl* control = nullptr;  // cancellation/drain + resume store
    const ChaosPlan* chaos = nullptr;
  };

  /// Execute every submitted job on `workers` threads and return results in
  /// submission order. A job that throws is reported as a classified
  /// kHostException result (retried per its policy), never as an engine
  /// failure. May be called repeatedly; without a RunControl each call
  /// re-runs the whole matrix, with one it resumes whatever the control has
  /// not yet seen complete.
  std::vector<JobResult> run(const RunOptions& opts) const;
  std::vector<JobResult> run(unsigned workers = 0,
                             CampaignStats* stats = nullptr) const {
    RunOptions opts;
    opts.workers = workers;
    opts.stats = stats;
    return run(opts);
  }

private:
  std::vector<kernels::CompiledKernel> kernels_;
  std::vector<Job> jobs_;
};

/// The fault-soak derivation: SplitMix64-mixed, randomized-but-bounded
/// DRAM ECC, fill-parity and crossbar rates, alternating the retry and
/// poison machine-check policies by iteration. A pure function of its
/// arguments, so majc_farm and majcd storm identical fault streams for a
/// given base seed.
FaultConfig derive_soak_faults(u64 base_seed, u64 kernel_idx, u64 iteration);

/// Declarative description of a campaign matrix over an engine's registered
/// kernels. submit_matrix expands it in the one canonical order —
/// kernel-major, then iteration, then cycle before functional — which is
/// what makes two independently built campaigns (the majc_farm CLI and a
/// daemon-served request, say) byte-identical in majc-farm-v1 JSON: same
/// kernels + same MatrixSpec => same submission order => same output.
struct MatrixSpec {
  /// Fault-stream iteration tags, usually 0..seeds-1. One (cycle and/or
  /// functional) job is submitted per (kernel, iteration).
  std::vector<u64> iterations;
  u64 base_seed = 0;
  /// Derive per-job FaultConfig via derive_soak_faults(base_seed, kernel,
  /// iteration); false = clean timing sweep.
  bool faults = true;
  bool mode_cycle = true;
  bool mode_functional = false;
  sim::ExecBackend backend = sim::ExecBackend::kThreaded;
  JobPolicy policy;
};

/// Expand `m` over every kernel registered in `eng`, in the canonical
/// submission order described above.
void submit_matrix(Engine& eng, const MatrixSpec& m);

} // namespace majc::farm
