// Campaign benchmark program: runs one named workload through the public
// entry points of the farm engine and the majcd server, checks every output,
// and prints the raw measurements as one JSON line on stdout. run.py builds
// this program, turns the raw samples into the reported metrics and applies
// the percentile rule.
//
//   campaign_bench --workload farm-small|farm-large|serve-mixed --seed N
//                  --seconds S --trace 0|1 --trace-out FILE --sock-dir DIR
//
// Untraced runs (--trace 0) measure what a user sees: farm campaigns through
// farm::Engine, or served campaigns through an in-process serve::Server.
// Traced runs (--trace 1) additionally replay one campaign through the
// benchmark's own per-job executor, which makes the engine's per-job calls
// itself (acquire/reset, setup_kernel, run, finalize_kernel) with a span
// around each, and compare its guest counts with the engine's for the same
// jobs. Spans are written to FILE as Chrome trace-event JSON.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "campaign_bench/spans.h"
#include "src/farm/campaign.h"
#include "src/farm/farm.h"
#include "src/kernels/table12.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/support/checkpoint.h"
#include "src/trace/json.h"

namespace {

using namespace majc;
using campaign_bench::SpanLog;
using Scope = campaign_bench::SpanLog::Scope;
using Clock = std::chrono::steady_clock;

double secs_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

u64 splitmix64(u64& x) {
  x += 0x9e3779b97f4a7c15ull;
  u64 z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Independent seed-derived streams: the fault base seed, the iteration
/// tags and the serve request mix never share draws.
u64 derive(u64 seed, u64 stream) {
  u64 s = seed ^ (stream * 0xd1b54a32d192ed03ull);
  return splitmix64(s);
}

constexpr u64 kStreamFaultSeed = 1;
constexpr u64 kStreamTags = 2;
constexpr u64 kStreamClients = 3;
constexpr u64 kStreamInline = 4;

/// Farm campaigns run on two workers; the server runs one farm worker per
/// campaign with two admission slots and two client connections.
constexpr unsigned kFarmWorkers = 2;
constexpr unsigned kServeSlots = 2;
constexpr unsigned kServeClients = 2;
/// Set-up is repeated and run.py reports the median.
constexpr int kSetupReps = 5;
/// A run that cannot collect kMinLatencySamples in this many times
/// --seconds stops anyway (run.py then refuses the percentile).
constexpr double kMaxMeasureFactor = 4.0;
/// serve-mixed throughput is the median over this many equal time slices.
constexpr std::size_t kServeWindows = 10;
/// The percentile rule needs 10 samples beyond p95.
constexpr std::size_t kMinLatencySamples = 200;

bool is_large_kernel(const char* name) {
  return std::strcmp(name, "convolve") == 0 ||
         std::strcmp(name, "color_convert") == 0;
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ------------------------------------------------------------------ report

struct Report {
  std::string workload;
  u64 seed = 0;
  std::string latency_unit;
  std::vector<double> setup_s;
  std::vector<double> latency_ms;
  /// Throughput windows: {seconds, jobs completed, campaigns completed}.
  std::vector<std::array<double, 3>> windows;
  u64 jobs = 0;
  u64 campaigns = 0;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> failures;  // first few messages
  double peak_rss_mb = 0.0;
  // Traced runs only: counts the spans cannot carry.
  std::map<std::string, double> counts;

  std::mutex mu;

  void fail(const std::string& msg) {
    std::lock_guard<std::mutex> lk(mu);
    ++failed;
    if (failures.size() < 16) failures.push_back(msg);
  }

  void print(std::ostream& os) const {
    auto arr = [&](const std::vector<double>& v) {
      os << "[";
      for (std::size_t i = 0; i < v.size(); ++i) {
        os << (i ? "," : "") << fmt_double(v[i]);
      }
      os << "]";
    };
    os << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
       << ",\"latency_unit\":\"" << latency_unit << "\",\"setup_s\":";
    arr(setup_s);
    os << ",\"latency_ms\":";
    arr(latency_ms);
    os << ",\"windows\":[";
    for (std::size_t i = 0; i < windows.size(); ++i) {
      os << (i ? "," : "") << "[" << fmt_double(windows[i][0]) << ","
         << fmt_double(windows[i][1]) << "," << fmt_double(windows[i][2])
         << "]";
    }
    os << "]";
    os << ",\"jobs\":" << jobs << ",\"campaigns\":" << campaigns
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      os << (i ? "," : "") << "\"" << trace::json_escape(failures[i])
         << "\"";
    }
    os << "],\"peak_rss_mb\":" << fmt_double(peak_rss_mb) << ",\"counts\":{";
    bool first = true;
    for (const auto& [k, v] : counts) {
      os << (first ? "" : ",") << "\"" << k << "\":" << fmt_double(v);
      first = false;
    }
    os << "}}\n";
  }
};

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string job_label(const farm::Engine& eng, std::size_t i) {
  const farm::Job& job = eng.jobs()[i];
  return eng.kernel(job.kernel).spec.name + "/" +
         farm::sim_mode_name(job.mode) + "/it" +
         std::to_string(job.iteration);
}

// ------------------------------------------------------------- compilation

/// kernels::compile_kernel split into its three calls, one span each.
kernels::CompiledKernel compile_traced(kernels::KernelSpec spec,
                                       SpanLog& log) {
  if (!log.enabled()) return kernels::compile_kernel(std::move(spec));
  kernels::CompiledKernel k;
  masm::Image img;
  {
    Scope s(log, "masm.assemble");
    img = masm::assemble_or_throw(spec.source);
  }
  {
    Scope s(log, "sim.predecode");
    k.program = sim::make_program(std::move(img));
  }
  {
    Scope s(log, "sim.translate");
    k.program->threaded();
  }
  k.spec = std::move(spec);
  return k;
}

// ---------------------------------------------------- traced job executor

/// What the traced executor keeps per job besides the KernelRun.
struct TracedJob {
  kernels::KernelRun run;
  u64 dcache_hits = 0;
  u64 dcache_misses = 0;
  u64 icache_misses = 0;
};

u64 machine_packets(const cpu::CycleSim& m) { return m.cpu().stats().packets; }
u64 machine_packets(const sim::FunctionalSim& m) { return m.packets_run(); }

/// The engine resets a job's machine once more in its attempt loop, after
/// WorkerMachines::acquire_* (the reset() at the top of farm.cpp run_attempt).
void engine_reset(cpu::CycleSim& m, const kernels::CompiledKernel& k,
                  const farm::Job& job) {
  m.reset(k.program, job.cfg);
}
void engine_reset(sim::FunctionalSim& m, const kernels::CompiledKernel& k,
                  const farm::Job& job) {
  m.reset(k.program);
  m.set_backend(job.backend);
}

const char* run_span(const cpu::CycleSim&) { return "cpu.cycle_run"; }
const char* run_span(const sim::FunctionalSim&) { return "sim.functional_run"; }

void read_cache_counts(const cpu::CycleSim& m, TracedJob& tj) {
  tj.dcache_hits = m.memsys().dcache().hits();
  tj.dcache_misses = m.memsys().dcache().misses();
  tj.icache_misses = m.memsys().icache(0).misses();
}
void read_cache_counts(const sim::FunctionalSim&, TracedJob&) {}

/// Checkpoint probe on a finished job's machine: a separate arch_digest
/// (which finalize_kernel already ran inside itself, so finalize's own time
/// is finalize minus this), a save, and a restore into a second machine.
template <typename Machine>
void probe_checkpoint(Machine& m, Machine& target, u64 expect_digest,
                      SpanLog& log, Report& rep, const std::string& label) {
  Scope probe(log, "farm.probe");
  u64 digest = 0;
  {
    Scope s(log, "ckpt.digest");
    digest = ckpt::arch_digest(m);
  }
  if (digest != expect_digest) {
    rep.fail(label + ": separate arch_digest differs from finalize_kernel's");
  }
  std::vector<u8> bytes;
  {
    Scope s(log, "ckpt.save");
    bytes = ckpt::save_checkpoint(m);
    s.set_count(bytes.size());
  }
  {
    Scope s(log, "ckpt.restore");
    ckpt::restore_checkpoint(target, bytes);
  }
  if (machine_packets(target) != machine_packets(m)) {
    rep.fail(label + ": restored machine reports a different packet count");
  }
}

/// One job the way farm::Engine runs it with the default JobPolicy
/// (farm.cpp run_attempt: acquire the worker's machine, reset it again,
/// setup_kernel, one run to the spec's packet budget, finalize_kernel),
/// with a span around each call. `acquire(wm)` is the mode's
/// WorkerMachines::acquire_* call.
template <typename Acquire>
void traced_job(const farm::Engine& eng, std::size_t i, u64 key,
                Acquire acquire, farm::WorkerMachines& wm,
                farm::WorkerMachines* probe_wm, SpanLog& log, Report& rep,
                TracedJob& tj) {
  const farm::Job& job = eng.jobs()[i];
  const kernels::CompiledKernel& k = eng.kernel(job.kernel);
  std::remove_reference_t<decltype(acquire(wm))>* m = nullptr;
  {
    Scope js(log, "farm.job", key);
    {
      Scope s(log, "sim.reset");
      m = &acquire(wm);
    }
    {
      Scope s(log, "sim.reset");
      engine_reset(*m, k, job);
    }
    {
      Scope s(log, "kernels.setup");
      kernels::setup_kernel(*m, k.spec);
    }
    decltype(m->run(0)) res;
    {
      Scope s(log, run_span(*m));
      res = m->run(k.spec.max_packets);
      s.set_count(res.packets);
    }
    {
      Scope s(log, "kernels.finalize");
      tj.run = kernels::finalize_kernel(*m, k.spec, res);
    }
  }
  read_cache_counts(*m, tj);
  if (probe_wm != nullptr) {
    probe_checkpoint(*m, acquire(*probe_wm), tj.run.arch_digest, log, rep,
                     job_label(eng, i));
  }
}

/// Run every job of `eng` through traced_job on `workers` threads pulling
/// from one queue, each with fresh WorkerMachines as Engine::run has.
std::vector<TracedJob> run_traced(const farm::Engine& eng, unsigned workers,
                                  bool probes, u64 key_base, SpanLog& log,
                                  Report& rep) {
  const std::vector<farm::Job>& jobs = eng.jobs();
  std::vector<TracedJob> out(jobs.size());
  std::atomic<std::size_t> cursor{0};

  auto worker = [&] {
    farm::WorkerMachines wm;
    farm::WorkerMachines probe_wm;
    farm::WorkerMachines* probe = probes ? &probe_wm : nullptr;
    for (;;) {
      const std::size_t i = cursor.fetch_add(1);
      if (i >= jobs.size()) break;
      const farm::Job& job = jobs[i];
      const sim::ProgramRef& program = eng.kernel(job.kernel).program;
      try {
        if (job.mode == farm::SimMode::kCycle) {
          traced_job(
              eng, i, key_base + i,
              [&](farm::WorkerMachines& w) -> cpu::CycleSim& {
                return w.acquire_cycle(program, job.cfg);
              },
              wm, probe, log, rep, out[i]);
        } else {
          traced_job(
              eng, i, key_base + i,
              [&](farm::WorkerMachines& w) -> sim::FunctionalSim& {
                return w.acquire_functional(program);
              },
              wm, probe, log, rep, out[i]);
        }
      } catch (const std::exception& e) {
        rep.fail(job_label(eng, i) + ": traced job threw: " + e.what());
      }
    }
  };

  std::vector<std::thread> pool;
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return out;
}

// ------------------------------------------------------------ correctness

/// A farm job passes when it completed, validated and halted with failure
/// class `none`.
void check_job(const farm::Engine& eng, const std::vector<farm::JobResult>& rs,
               Report& rep) {
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const farm::JobResult& r = rs[i];
    if (!r.done || !r.run.valid || !r.run.halted ||
        r.failure != farm::FailureClass::kNone) {
      rep.fail(job_label(eng, i) + ": failure_class " +
               farm::failure_class_name(r.failure) + ": " + r.run.message);
    }
  }
}

/// Guest counts of the traced replay must equal the engine's, job by job.
void check_same_guest(const farm::Engine& eng,
                      const std::vector<farm::JobResult>& untraced,
                      const std::vector<TracedJob>& traced, Report& rep) {
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    const kernels::KernelRun& a = untraced[i].run;
    const kernels::KernelRun& b = traced[i].run;
    if (a.packets != b.packets || a.total_cycles != b.total_cycles ||
        a.cpu_stats.stalls.total() != b.cpu_stats.stalls.total() ||
        a.arch_digest != b.arch_digest || a.valid != b.valid ||
        a.halted != b.halted) {
      rep.fail(job_label(eng, i) +
               ": guest counts differ between traced and untraced runs");
    }
  }
}

/// Guest counts of one campaign, reported by the traced run. They depend
/// only on the jobs, so they repeat exactly for a seed.
void add_guest_counts(const farm::Engine& eng,
                      const std::vector<TracedJob>& traced, Report& rep) {
  for (std::size_t i = 0; i < traced.size(); ++i) {
    if (eng.jobs()[i].mode != farm::SimMode::kCycle) continue;
    const TracedJob& t = traced[i];
    rep.counts["cpu.guest_packets"] += static_cast<double>(t.run.packets);
    rep.counts["cpu.guest_cycles"] += static_cast<double>(t.run.total_cycles);
    rep.counts["cpu.stall_cycles"] +=
        static_cast<double>(t.run.cpu_stats.stalls.total());
    rep.counts["mem.dcache_hits"] += static_cast<double>(t.dcache_hits);
    rep.counts["mem.dcache_misses"] += static_cast<double>(t.dcache_misses);
    rep.counts["mem.icache_misses"] += static_cast<double>(t.icache_misses);
  }
}

double busy_frac(const std::vector<farm::JobResult>& rs, double wall_s,
                 unsigned workers) {
  double busy = 0.0;
  for (const farm::JobResult& r : rs) busy += r.host_secs;
  return wall_s > 0 ? busy / (wall_s * workers) : 0.0;
}

// ------------------------------------------------------------------- farm

struct FarmCampaign {
  std::unique_ptr<farm::Engine> eng;
  std::vector<farm::JobResult> results;
  std::string json;
  double wall_s = 0.0;
};

/// The shape of a farm workload's campaigns.
struct FarmShape {
  bool faults = true;
  u64 base_seed = 0;
  std::size_t tags = 1;  // iteration tags per campaign
};

/// A farm campaign's engine: every kernel x both modes x `tags`, in
/// submit_matrix's canonical order.
std::unique_ptr<farm::Engine> build_engine(
    const std::vector<kernels::CompiledKernel>& ks, const FarmShape& shape,
    const std::vector<u64>& tags) {
  auto eng = std::make_unique<farm::Engine>();
  for (const kernels::CompiledKernel& k : ks) eng->add_kernel(k);
  farm::MatrixSpec m;
  m.iterations = tags;
  m.base_seed = shape.base_seed;
  m.faults = shape.faults;
  m.mode_cycle = true;
  m.mode_functional = true;
  farm::submit_matrix(*eng, m);
  return eng;
}

/// One farm campaign as majc_farm --json runs it: engine build, run,
/// campaign JSON.
FarmCampaign run_farm_campaign(const std::vector<kernels::CompiledKernel>& ks,
                               const FarmShape& shape,
                               const std::vector<u64>& tags, SpanLog& log) {
  FarmCampaign c;
  const auto t0 = Clock::now();
  c.eng = build_engine(ks, shape, tags);
  c.results = c.eng->run(kFarmWorkers);
  {
    Scope s(log, "farm.campaign_json");
    c.json = farm::campaign_json(*c.eng, c.results, shape.base_seed);
    s.set_count(c.json.size());
  }
  c.wall_s = secs_between(t0, Clock::now());
  return c;
}

struct Options {
  std::string workload;
  u64 seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string sock_dir = ".";
};

/// farm-small: the 14 small Table 1/2 kernels, both modes, soak-derived
/// fault streams. farm-large: convolve + color_convert, both modes, clean
/// timing. Kernels keep the canonical table order (job order sets how well
/// two workers balance, so it is the same for every seed); each campaign
/// gets fresh seed-derived iteration tags.
void run_farm(const Options& opt, Report& rep, SpanLog& log) {
  const bool large = opt.workload == "farm-large";
  FarmShape shape;
  shape.faults = !large;
  shape.base_seed = derive(opt.seed, kStreamFaultSeed);
  // Jobs per campaign (farm-small 14 x 2 x 1 = 28, farm-large 2 x 2 x 4 =
  // 16): enough that each worker reuses its arenas within one Engine::run.
  shape.tags = large ? 4 : 1;
  u64 tag_state = derive(opt.seed, kStreamTags);
  auto next_tags = [&] {
    std::vector<u64> tags;
    for (std::size_t i = 0; i < shape.tags; ++i) {
      tags.push_back(splitmix64(tag_state) & 0xffffffffu);
    }
    return tags;
  };

  std::vector<const kernels::NamedKernel*> chosen;
  for (const kernels::NamedKernel& nk : kernels::table12_kernels()) {
    if (is_large_kernel(nk.name) == large) chosen.push_back(&nk);
  }

  // Set-up: compile the matrix's kernels, build the engine, submit.
  std::vector<kernels::CompiledKernel> ks;
  auto set_up = [&] {
    const auto t0 = Clock::now();
    ks.clear();
    for (const kernels::NamedKernel* nk : chosen) {
      ks.push_back(compile_traced(kernels::table12_spec(*nk), log));
    }
    auto eng = build_engine(ks, shape, std::vector<u64>(shape.tags));
    rep.setup_s.push_back(secs_between(t0, Clock::now()));
  };
  for (int i = 0; i < kSetupReps; ++i) set_up();

  if (log.enabled()) {
    // One campaign through the engine and the same campaign through the
    // traced executor: guest counts must agree, and the wall-time ratio is
    // the tracing overhead.
    FarmCampaign c = run_farm_campaign(ks, shape, next_tags(), log);
    check_job(*c.eng, c.results, rep);
    const auto t0 = Clock::now();
    const std::vector<TracedJob> traced =
        run_traced(*c.eng, kFarmWorkers, /*probes=*/false, 0, log, rep);
    const double traced_s = secs_between(t0, Clock::now());
    check_same_guest(*c.eng, c.results, traced, rep);
    add_guest_counts(*c.eng, traced, rep);
    rep.counts["trace_overhead_frac"] = traced_s / c.wall_s - 1.0;
    rep.counts["farm.worker_busy_frac"] =
        busy_frac(c.results, c.wall_s, kFarmWorkers);
    rep.attempted += c.results.size();
    // Then traced campaigns with checkpoint probes for the rest of the run.
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(opt.seconds);
    u64 key_base = c.results.size();
    do {
      auto eng = build_engine(ks, shape, next_tags());
      const std::vector<TracedJob> t =
          run_traced(*eng, kFarmWorkers, /*probes=*/true, key_base, log, rep);
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (!t[i].run.valid || !t[i].run.halted) {
          rep.fail(job_label(*eng, i) + ": traced job failed: " +
                   t[i].run.message);
        }
      }
      key_base += t.size();
      rep.attempted += t.size();
      rep.jobs += t.size();
      ++rep.campaigns;
    } while (Clock::now() < deadline);
    return;
  }

  // Untraced: closed loop of campaigns until the time is up and the
  // latency sample supports p95. Whole campaigns only; each campaign is one
  // throughput window. Set-up is timed again between campaigns so its
  // median samples the whole run, not one moment at start.
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(opt.seconds);
  while (Clock::now() < deadline ||
         rep.latency_ms.size() < kMinLatencySamples) {
    {
      FarmCampaign c = run_farm_campaign(ks, shape, next_tags(), log);
      check_job(*c.eng, c.results, rep);
      for (const farm::JobResult& r : c.results) {
        rep.latency_ms.push_back(r.host_secs * 1e3);
      }
      rep.windows.push_back(
          {c.wall_s, static_cast<double>(c.results.size()), 1});
      rep.attempted += c.results.size();
      rep.jobs += c.results.size();
      ++rep.campaigns;
    }
    if (secs_between(t0, Clock::now()) > kMaxMeasureFactor * opt.seconds) {
      break;
    }
    set_up();
  }
}

// ------------------------------------------------------------------ serve

/// In-process references for every request the serve-mixed clients can
/// send: the majc-farm-v1 bytes of each (named kernel, mode) campaign and
/// the arch digests of each (inline source, mode) campaign.
struct ServeRefs {
  std::vector<std::string> named;          // small kernels, canonical order
  std::vector<std::string> inline_sources;
  std::map<std::pair<std::string, std::string>, std::string> json;
  std::map<std::pair<std::size_t, std::string>, std::vector<u64>> digests;
};

const char* const kModes[] = {"cycle", "functional", "both"};

/// Build the 1-kernel x 1-iteration engine a served request expands to.
std::unique_ptr<farm::Engine> request_engine(const kernels::CompiledKernel& k,
                                             u64 base_seed, u64 tag,
                                             const std::string& mode) {
  auto eng = std::make_unique<farm::Engine>();
  eng->add_kernel(k);
  farm::MatrixSpec m;
  m.iterations = {tag};
  m.base_seed = base_seed;
  m.faults = true;
  m.mode_cycle = mode != "functional";
  m.mode_functional = mode != "cycle";
  farm::submit_matrix(*eng, m);
  return eng;
}

/// Each kernel runs once in both modes; the single-mode references reuse
/// those results (jobs of one kernel do not depend on each other).
ServeRefs build_serve_refs(u64 base_seed, u64 tag, u64 seed, SpanLog& log,
                           Report& rep) {
  ServeRefs refs;
  std::vector<kernels::CompiledKernel> named_ks;
  for (const kernels::NamedKernel& nk : kernels::table12_kernels()) {
    if (is_large_kernel(nk.name)) continue;
    refs.named.push_back(nk.name);
    named_ks.push_back(compile_traced(kernels::table12_spec(nk), log));
  }
  // Three inline sources, picked by the seed from the small kernels' text.
  u64 st = derive(seed, kStreamInline);
  std::vector<kernels::CompiledKernel> inline_ks;
  for (int i = 0; i < 3; ++i) {
    const kernels::CompiledKernel& from =
        named_ks[splitmix64(st) % named_ks.size()];
    refs.inline_sources.push_back(from.spec.source);
    kernels::KernelSpec spec;
    spec.name = "inline_ref";
    spec.source = from.spec.source;
    inline_ks.push_back(compile_traced(std::move(spec), log));
  }

  double untraced_s = 0.0, traced_s = 0.0, busy = 0.0;
  auto reference = [&](const kernels::CompiledKernel& k, u64 key_base) {
    auto both = request_engine(k, base_seed, tag, "both");
    const auto t0 = Clock::now();
    std::vector<farm::JobResult> rs = both->run(1);
    const double wall = secs_between(t0, Clock::now());
    untraced_s += wall;
    busy += rs[0].host_secs + rs[1].host_secs;
    check_job(*both, rs, rep);
    rep.attempted += rs.size();
    if (log.enabled()) {
      const auto t1 = Clock::now();
      const std::vector<TracedJob> traced =
          run_traced(*both, 1, /*probes=*/false, key_base, log, rep);
      traced_s += secs_between(t1, Clock::now());
      check_same_guest(*both, rs, traced, rep);
      add_guest_counts(*both, traced, rep);
      run_traced(*both, 1, /*probes=*/true, key_base + 2, log, rep);
    }
    return rs;
  };

  u64 key = 0;
  for (std::size_t i = 0; i < named_ks.size(); ++i, key += 4) {
    const std::vector<farm::JobResult> rs = reference(named_ks[i], key);
    for (const char* mode : kModes) {
      auto eng = request_engine(named_ks[i], base_seed, tag, mode);
      std::vector<farm::JobResult> sub;
      if (std::strcmp(mode, "functional") != 0) sub.push_back(rs[0]);
      if (std::strcmp(mode, "cycle") != 0) sub.push_back(rs[1]);
      Scope s(log, "farm.campaign_json");
      std::string json = farm::campaign_json(*eng, sub, base_seed);
      s.set_count(json.size());
      refs.json[{refs.named[i], mode}] = std::move(json);
    }
  }
  for (std::size_t i = 0; i < inline_ks.size(); ++i, key += 4) {
    const std::vector<farm::JobResult> rs = reference(inline_ks[i], key);
    refs.digests[{i, "cycle"}] = {rs[0].run.arch_digest};
    refs.digests[{i, "functional"}] = {rs[1].run.arch_digest};
    refs.digests[{i, "both"}] = {rs[0].run.arch_digest,
                                 rs[1].run.arch_digest};
  }
  if (log.enabled()) {
    rep.counts["trace_overhead_frac"] = traced_s / untraced_s - 1.0;
    rep.counts["farm.worker_busy_frac"] = busy / untraced_s;
  }
  return refs;
}

/// One request -> ack -> job* -> campaign header -> raw payload exchange,
/// pumped frame by frame through serve::Client so each phase is spanned.
struct Exchange {
  bool ok = false;
  std::string error;
  std::vector<u64> digests;
  std::vector<std::string> failure_classes;
  std::string payload;
};

bool recv_rsp(serve::Client& c, serve::JValue* rsp, std::string* err) {
  std::string frame;
  if (!c.recv(&frame)) {
    *err = "connection closed";
    return false;
  }
  std::string perr;
  if (!serve::json_parse(frame, rsp, &perr)) {
    *err = "malformed response: " + perr;
    return false;
  }
  const std::string type = rsp->member_string("type", "");
  if (type == "error") {
    *err = "error frame: " + rsp->member_string("code", "") + ": " +
           rsp->member_string("message", "");
    return false;
  }
  return true;
}

Exchange exchange(serve::Client& c, const serve::CampaignRequest& req,
                  SpanLog& log) {
  Exchange ex;
  Scope request(log, "serve.request", req.id);
  std::string frame;
  {
    Scope s(log, "serve.encode");
    frame = serve::campaign_request_json(req);
  }
  serve::JValue rsp;
  {
    Scope s(log, "serve.ack_wait");
    if (!c.send(frame)) {
      ex.error = "send failed";
      return ex;
    }
    if (!recv_rsp(c, &rsp, &ex.error)) return ex;
    if (rsp.member_string("type", "") != "ack") {
      ex.error = "expected ack";
      return ex;
    }
  }
  {
    Scope s(log, "serve.run");
    if (!recv_rsp(c, &rsp, &ex.error)) return ex;
  }
  Scope s(log, "serve.payload");
  for (;;) {
    const std::string type = rsp.member_string("type", "");
    if (type == "job") {
      ex.digests.push_back(rsp.member_u64("arch_digest", 0));
      ex.failure_classes.push_back(rsp.member_string("failure_class", ""));
    } else if (type == "campaign") {
      const u64 bytes = rsp.member_u64("payload_bytes", 0);
      if (!c.recv(&ex.payload) || ex.payload.size() != bytes) {
        ex.error = "campaign payload missing or short";
        return ex;
      }
      ex.ok = true;
      return ex;
    } else {
      ex.error = "unexpected response type '" + type + "'";
      return ex;
    }
    if (!recv_rsp(c, &rsp, &ex.error)) return ex;
  }
}

std::string socket_path(const Options& opt, int n) {
  return opt.sock_dir + "/majcd-" + std::to_string(::getpid()) + "-" +
         std::to_string(n) + ".sock";
}

/// Set-up of one server: construct + preload + bind, up to the first
/// answered ping. Returns nullptr (and records the failure) on error.
std::unique_ptr<serve::Server> start_server(serve::ServerConfig cfg,
                                            Report& rep, SpanLog& log) {
  const auto t0 = Clock::now();
  Scope s(log, "serve.setup");
  auto server = std::make_unique<serve::Server>(cfg);
  std::string err;
  serve::Client probe;
  if (!server->start(&err) || !probe.connect(cfg.socket_path, &err) ||
      !serve::ping(probe, 0, &err)) {
    rep.fail("server set-up failed: " + err);
    return nullptr;
  }
  rep.setup_s.push_back(secs_between(t0, Clock::now()));
  return server;
}

/// One client's request stream. Blocks of 8 requests have a fixed
/// composition so every seed sends the same mix: 3 cycle, 3 functional and
/// 1 both-mode campaign on named kernels in seeded order, then (every 8th
/// request) an inline source under a fresh name, alternating cycle and
/// functional. Named kernels come round in a seeded permutation.
class RequestMix {
public:
  RequestMix(u64 rng, std::size_t n_named) : rng_(rng), order_(n_named) {
    for (std::size_t i = 0; i < n_named; ++i) order_[i] = i;
  }

  struct Pick {
    const char* mode;
    bool inline_src;
    std::size_t index;  // named kernel or inline source
  };

  Pick next(std::size_t n_inline) {
    const u64 pos = count_ % 8;
    const u64 block = count_ / 8;
    ++count_;
    if (pos == 0) {
      static constexpr const char* kBlock[7] = {
          "cycle", "cycle", "cycle", "functional", "functional",
          "functional", "both"};
      std::copy(std::begin(kBlock), std::end(kBlock), modes_);
      shuffle(modes_, 7);
    }
    if (pos == 7) {
      return {block % 2 == 0 ? "cycle" : "functional", true,
              static_cast<std::size_t>(splitmix64(rng_) % n_inline)};
    }
    if (next_named_ == 0) shuffle(order_.data(), order_.size());
    const std::size_t k = order_[next_named_];
    next_named_ = (next_named_ + 1) % order_.size();
    return {modes_[pos], false, k};
  }

private:
  template <typename T>
  void shuffle(T* v, std::size_t n) {
    for (std::size_t i = n; i > 1; --i) {
      std::swap(v[i - 1], v[splitmix64(rng_) % i]);
    }
  }

  u64 rng_;
  u64 count_ = 0;
  const char* modes_[7] = {};
  std::vector<std::size_t> order_;
  std::size_t next_named_ = 0;
};

/// serve-mixed: in-process Server, 1 farm worker per campaign, 2 admission
/// slots, 2 closed-loop client connections sending 1-kernel x 1-iteration
/// campaigns (RequestMix). Every served payload is checked against the
/// in-process reference.
void run_serve(const Options& opt, Report& rep, SpanLog& log) {
  const u64 base_seed = derive(opt.seed, kStreamFaultSeed);
  u64 tag_state = derive(opt.seed, kStreamTags);
  const u64 tag = splitmix64(tag_state) & 0xffffffffu;

  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_concurrent = kServeSlots;
  cfg.max_queue = 8;

  // Set-up is timed kSetupReps times before the run and kSetupReps times
  // after it, so its median samples more than one moment. The last server
  // started before the run serves it.
  int n_servers = 0;
  std::unique_ptr<serve::Server> server;
  for (int i = 0; i < kSetupReps; ++i) {
    if (server) server->stop();
    cfg.socket_path = socket_path(opt, n_servers++);
    server = start_server(cfg, rep, log);
    if (!server) return;
  }

  const ServeRefs refs = build_serve_refs(base_seed, tag, opt.seed, log, rep);
  const serve::ServeStats before = server->stats();

  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(opt.seconds);
  std::atomic<std::size_t> completed{0};
  // {seconds since t0, jobs} per completed campaign.
  std::vector<std::pair<double, u64>> done;
  auto client = [&](unsigned idx) {
    serve::Client c;
    std::string err;
    if (!c.connect(cfg.socket_path, &err)) {
      rep.fail("client connect failed: " + err);
      return;
    }
    RequestMix mix(derive(opt.seed, kStreamClients + 16 * (idx + 1)),
                   refs.named.size());
    std::vector<double> lat;
    std::vector<std::pair<double, u64>> finished;
    u64 attempted = 0;
    for (u64 i = 0;; ++i) {
      const auto now = Clock::now();
      if (now >= deadline && completed.load() >= kMinLatencySamples) break;
      if (secs_between(t0, now) > kMaxMeasureFactor * opt.seconds) break;
      const RequestMix::Pick pick = mix.next(refs.inline_sources.size());
      serve::CampaignRequest req;
      req.id = (u64{idx} + 1) * 1'000'000 + i;
      req.mode = pick.mode;
      req.seed = base_seed;
      req.iterations = {tag};
      req.faults = true;
      std::string label;
      if (pick.inline_src) {
        req.source_name = "inline_c" + std::to_string(idx) + "_" +
                          std::to_string(i);
        req.source_text = refs.inline_sources[pick.index];
        label = req.source_name;
      } else {
        label = refs.named[pick.index];
        req.kernels = {label};
      }
      label += "/" + req.mode;
      if (log.enabled() && i % 16 == 0) {
        Scope s(log, "serve.ping", req.id);
        if (!serve::ping(c, req.id, &err)) {
          rep.fail("ping failed: " + err);
          return;
        }
      }
      const auto r0 = Clock::now();
      const Exchange ex = exchange(c, req, log);
      const auto r1 = Clock::now();
      ++attempted;
      if (!ex.ok) {
        rep.fail(label + ": " + ex.error);
        break;  // the stream may be out of step; stop this client
      }
      bool good = true;
      for (const std::string& fc : ex.failure_classes) {
        if (fc != "none") good = false;
      }
      if (pick.inline_src) {
        good = good &&
               ex.digests == refs.digests.at({pick.index, req.mode});
      } else {
        good = good &&
               ex.payload == refs.json.at({req.kernels[0], req.mode});
      }
      if (!good) rep.fail(label + ": served output differs from reference");
      lat.push_back(secs_between(r0, r1) * 1e3);
      finished.emplace_back(secs_between(t0, r1), ex.digests.size());
      completed.fetch_add(1);
    }
    std::lock_guard<std::mutex> lk(rep.mu);
    rep.latency_ms.insert(rep.latency_ms.end(), lat.begin(), lat.end());
    done.insert(done.end(), finished.begin(), finished.end());
    rep.attempted += attempted;
  };
  std::vector<std::thread> clients;
  for (unsigned i = 0; i < kServeClients; ++i) clients.emplace_back(client, i);
  for (std::thread& t : clients) t.join();

  // Throughput windows: the run cut into kServeWindows equal slices, each
  // credited with the campaigns that completed in it.
  double end_s = 0.0;
  for (const auto& d : done) end_s = std::max(end_s, d.first);
  rep.windows.assign(kServeWindows, {end_s / kServeWindows, 0.0, 0.0});
  for (const auto& [t, jobs] : done) {
    const auto w = std::min<std::size_t>(
        kServeWindows - 1, static_cast<std::size_t>(t / end_s * kServeWindows));
    rep.windows[w][1] += static_cast<double>(jobs);
    rep.windows[w][2] += 1.0;
    rep.jobs += jobs;
    ++rep.campaigns;
  }

  const serve::ServeStats after = server->stats();
  rep.counts["serve.cache_hits"] =
      static_cast<double>(after.cache_hits - before.cache_hits);
  rep.counts["serve.cache_misses"] =
      static_cast<double>(after.cache_misses - before.cache_misses);
  server->stop();
  for (int i = 0; i < kSetupReps; ++i) {
    cfg.socket_path = socket_path(opt, n_servers++);
    server = start_server(cfg, rep, log);
    if (!server) return;
    server->stop();
  }
}

bool parse_args(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::stoull(v);
    } else if (k == "--seconds") {
      o->seconds = std::stod(v);
    } else if (k == "--trace") {
      o->trace = v == "1";
    } else if (k == "--trace-out") {
      o->trace_out = v;
    } else if (k == "--sock-dir") {
      o->sock_dir = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && o->seconds > 0 &&
         (o->workload == "farm-small" || o->workload == "farm-large" ||
          o->workload == "serve-mixed") &&
         (!o->trace || !o->trace_out.empty());
}

} // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse_args(argc, argv, &opt)) {
      std::fprintf(stderr,
                   "usage: campaign_bench --workload "
                   "farm-small|farm-large|serve-mixed --seed N --seconds S "
                   "--trace 0|1 [--trace-out FILE] [--sock-dir DIR]\n");
      return 2;
    }
  } catch (const std::exception&) {
    std::fprintf(stderr, "campaign_bench: bad numeric argument\n");
    return 2;
  }

  Report rep;
  rep.workload = opt.workload;
  rep.seed = opt.seed;
  rep.latency_unit = opt.workload == "serve-mixed" ? "campaign" : "job";
  SpanLog log(opt.trace);
  try {
    if (opt.workload == "serve-mixed") {
      run_serve(opt, rep, log);
    } else {
      run_farm(opt, rep, log);
    }
  } catch (const std::exception& e) {
    rep.fail(std::string("benchmark aborted: ") + e.what());
  }
  rep.peak_rss_mb = peak_rss_mb();

  if (opt.trace) {
    std::ofstream f(opt.trace_out);
    log.write_chrome_json(f);
    if (!f) {
      std::fprintf(stderr, "campaign_bench: cannot write %s\n",
                   opt.trace_out.c_str());
      return 1;
    }
  }
  rep.print(std::cout);
  return 0;
}
