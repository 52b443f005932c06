// majc_run: command-line assembler + simulator. Assembles a MAJC .s file
// and executes it, printing TRAP console output and run statistics — the
// tool you reach for when writing your own MAJC assembly.
//
//   $ ./majc_run prog.s              # cycle-accurate run
//   $ ./majc_run -f prog.s           # instruction-accurate (fast) run
//   $ ./majc_run -d prog.s           # disassemble only
//   $ ./majc_run -2 prog.s           # run on both CPUs of the chip model
//   $ ./majc_run -c prog.s           # static schedule check only
//   $ ./majc_run -t prog.s           # cycle run with a pipeline trace
//
// Functional-mode execution backend (see DESIGN.md §13):
//   --backend=interp|threaded   choose the packet interpreter or the
//                               threaded-code translation backend (default:
//                               threaded; guest-visible state is identical)
//   --shape-stats               print the translator's packet-shape
//                               histogram and generic-packet count, then run
//
// Observability (cycle and chip modes):
//   --trace-out=FILE   write a Chrome trace-event JSON timeline (load the
//                      file in https://ui.perfetto.dev or chrome://tracing;
//                      "-" = stdout)
//   --profile[=N]      print the cycle-attribution profile (top N packets,
//                      default 10) after the run
//   --stats-json=FILE  write machine-readable run statistics ("-" = stdout)
//
// Checkpoint / restore (all run modes; see DESIGN.md §8):
//   --checkpoint-out=FILE   write a checkpoint of the final state; with
//                           --checkpoint-every, rewrite it periodically
//   --checkpoint-every=N    checkpoint after every N packets (per CPU)
//   --restore=FILE          resume from a checkpoint (same program, same
//                           configuration, same mode)
//   --max-packets=N         stop after N packets per CPU (cumulative across
//                           a restore; default 100000000)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "src/cpu/cycle_cpu.h"
#include "src/cpu/report.h"
#include "src/cpu/schedule_check.h"
#include "src/isa/disasm.h"
#include "src/masm/assembler.h"
#include "src/sim/functional_sim.h"
#include "src/sim/threaded.h"
#include "src/soc/chip.h"
#include "src/support/checkpoint.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/profiler.h"
#include "src/trace/stats_json.h"

using namespace majc;

namespace {

struct Options {
  bool functional = false;
  sim::ExecBackend backend = sim::ExecBackend::kThreaded;
  bool shape_stats = false;
  bool disasm_only = false;
  bool dual = false;
  bool schedcheck = false;
  bool trace_print = false;
  const char* trace_out = nullptr;
  const char* stats_json = nullptr;
  bool profile = false;
  u32 profile_top = 10;
  const char* checkpoint_out = nullptr;
  u64 checkpoint_every = 0;
  const char* restore = nullptr;
  u64 max_packets = 100'000'000;
  const char* path = nullptr;
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "-f") == 0) {
      opt.functional = true;
    } else if (std::strcmp(a, "-d") == 0) {
      opt.disasm_only = true;
    } else if (std::strcmp(a, "-2") == 0) {
      opt.dual = true;
    } else if (std::strcmp(a, "-c") == 0) {
      opt.schedcheck = true;
    } else if (std::strcmp(a, "-t") == 0) {
      opt.trace_print = true;
    } else if (std::strncmp(a, "--trace-out=", 12) == 0) {
      opt.trace_out = a + 12;
    } else if (std::strncmp(a, "--stats-json=", 13) == 0) {
      opt.stats_json = a + 13;
    } else if (std::strcmp(a, "--profile") == 0) {
      opt.profile = true;
    } else if (std::strncmp(a, "--profile=", 10) == 0) {
      opt.profile = true;
      opt.profile_top = static_cast<u32>(std::atoi(a + 10));
    } else if (std::strncmp(a, "--checkpoint-out=", 17) == 0) {
      opt.checkpoint_out = a + 17;
    } else if (std::strncmp(a, "--checkpoint-every=", 19) == 0) {
      opt.checkpoint_every = std::strtoull(a + 19, nullptr, 10);
    } else if (std::strncmp(a, "--restore=", 10) == 0) {
      opt.restore = a + 10;
    } else if (std::strncmp(a, "--max-packets=", 14) == 0) {
      opt.max_packets = std::strtoull(a + 14, nullptr, 10);
    } else if (std::strncmp(a, "--backend=", 10) == 0) {
      const char* v = a + 10;
      if (std::strcmp(v, "interp") == 0) {
        opt.backend = sim::ExecBackend::kInterp;
      } else if (std::strcmp(v, "threaded") == 0) {
        opt.backend = sim::ExecBackend::kThreaded;
      } else {
        std::fprintf(stderr, "--backend must be interp or threaded, got %s\n",
                     v);
        return false;
      }
    } else if (std::strcmp(a, "--shape-stats") == 0) {
      opt.shape_stats = true;
    } else if (a[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", a);
      return false;
    } else {
      opt.path = a;
    }
  }
  return opt.path != nullptr;
}

/// Write `emit(os)` to `path` ("-" = stdout). Returns false on I/O failure.
template <typename Fn>
bool write_file_or_stdout(const char* path, Fn emit) {
  if (std::strcmp(path, "-") == 0) {
    std::ostringstream ss;
    emit(ss);
    std::fputs(ss.str().c_str(), stdout);
    return true;
  }
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  emit(os);
  return os.good();
}

/// Restore `s` from a checkpoint file; diagnoses header mismatches
/// (different image / config / mode) and I/O failures.
template <typename Sim>
bool restore_from(const char* path, Sim& s) {
  try {
    ckpt::restore_checkpoint(s, ckpt::read_checkpoint_file(path));
    return true;
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return false;
  }
}

template <typename Sim>
bool save_to(const char* path, const Sim& s) {
  try {
    ckpt::write_checkpoint_file(path, ckpt::save_checkpoint(s));
    return true;
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return false;
  }
}

void print_legacy_trace(const cpu::TraceEvent& ev) {
  if (ev.context_switch) {
    std::printf("%8llu  thread %u switched out at pc 0x%llx\n",
                static_cast<unsigned long long>(ev.cycle), ev.thread,
                static_cast<unsigned long long>(ev.pc));
    return;
  }
  std::printf("%8llu  t%u pc 0x%05llx w%u%s%s%s\n",
              static_cast<unsigned long long>(ev.cycle), ev.thread,
              static_cast<unsigned long long>(ev.pc), ev.width,
              ev.stall_operand ? " [operand]" : "",
              ev.stall_ifetch ? " [ifetch]" : "",
              ev.mispredicted ? " [mispredict]" : "");
}

} // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: majc_run [-f|-d|-2|-c|-t] [--trace-out=FILE] "
                 "[--profile[=N]] [--stats-json=FILE]\n"
                 "                [--checkpoint-out=FILE] "
                 "[--checkpoint-every=N] [--restore=FILE]\n"
                 "                [--max-packets=N] "
                 "[--backend=interp|threaded] [--shape-stats] <prog.s>\n");
    return 2;
  }

  std::ifstream in(opt.path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", opt.path);
    return 2;
  }
  std::stringstream ss;
  ss << in.rdbuf();

  std::vector<masm::Diagnostic> diags;
  auto image = masm::assemble(ss.str(), diags);
  for (const auto& d : diags) {
    std::fprintf(stderr, "%s:%u: %s\n", opt.path, d.line, d.message.c_str());
  }
  if (!image) return 1;

  if (opt.schedcheck) {
    const auto rep = cpu::check_schedule(*image);
    std::fputs(rep.to_string().c_str(), stdout);
    return rep.clean() ? 0 : 1;
  }
  if (opt.disasm_only) {
    std::fputs(isa::disasm_code(image->code).c_str(), stdout);
    return 0;
  }
  if (opt.functional) {
    sim::FunctionalSim sim(*image);
    if (opt.shape_stats) {
      std::fputs(
          sim::format_shape_stats(sim.program().threaded().stats).c_str(),
          stdout);
    }
    if (opt.restore != nullptr && !restore_from(opt.restore, sim)) return 2;
    // Backend choice is host-side, outside the checkpoint format: re-apply
    // after restore so --backend composes with --restore.
    sim.set_backend(opt.backend);
    // run() takes a per-call budget, so the chunked loop hands it the
    // distance to the cumulative --max-packets cap each iteration.
    sim::RunResult res;
    for (;;) {
      const u64 done = sim.packets_run();
      const u64 budget = opt.max_packets > done ? opt.max_packets - done : 0;
      const u64 chunk = opt.checkpoint_every != 0
                            ? std::min(opt.checkpoint_every, budget)
                            : budget;
      res = sim.run(chunk);
      if (opt.checkpoint_out != nullptr && !save_to(opt.checkpoint_out, sim))
        return 2;
      if (res.reason != TerminationReason::kPacketCap ||
          opt.checkpoint_every == 0 || sim.packets_run() >= opt.max_packets)
        break;
    }
    std::fputs(sim.console().c_str(), stdout);
    std::printf("[functional] %llu packets, %llu instructions, %s\n",
                static_cast<unsigned long long>(sim.packets_run()),
                static_cast<unsigned long long>(sim.instrs_run()),
                termination_reason_name(res.reason));
    if (res.reason == TerminationReason::kTrap) {
      std::fputs(trap_report(res.trap, sim.program(), sim.state()).c_str(),
                 stderr);
    }
    if (opt.stats_json != nullptr) {
      write_file_or_stdout(opt.stats_json, [&](std::ostream& os) {
        trace::write_stats_json(os, sim, res);
      });
    }
    return res.reason == TerminationReason::kHalted ? 0 : 1;
  }

  // The timed modes share the observer plumbing: an optional Chrome trace
  // stream, an optional profiler, and the legacy -t console print compose
  // onto the same per-packet event stream.
  std::ofstream trace_file;
  std::unique_ptr<trace::ChromeTraceWriter> writer;
  if (opt.trace_out != nullptr) {
    const bool to_stdout = std::strcmp(opt.trace_out, "-") == 0;
    if (!to_stdout) {
      trace_file.open(opt.trace_out, std::ios::binary);
      if (!trace_file) {
        std::fprintf(stderr, "cannot write %s\n", opt.trace_out);
        return 2;
      }
    }
    writer = std::make_unique<trace::ChromeTraceWriter>(to_stdout ? std::cout
                                                                  : trace_file);
  }

  if (opt.dual) {
    soc::Majc5200 chip(*image);
    if (opt.restore != nullptr && !restore_from(opt.restore, chip)) return 2;
    std::vector<std::unique_ptr<trace::CpuTraceRecorder>> recorders;
    std::vector<std::unique_ptr<trace::LsuTraceRecorder>> lsu_recorders;
    std::unique_ptr<trace::DteTraceRecorder> dte_recorder;
    std::vector<std::unique_ptr<trace::CycleProfiler>> profilers;
    for (u32 c = 0; c < soc::Majc5200::kNumCpus; ++c) {
      if (opt.profile) {
        profilers.push_back(
            std::make_unique<trace::CycleProfiler>(chip.program()));
      }
      if (writer) {
        recorders.push_back(std::make_unique<trace::CpuTraceRecorder>(
            *writer, chip.program(), chip.memsys().config(), c));
        lsu_recorders.push_back(
            std::make_unique<trace::LsuTraceRecorder>(*writer, c));
        lsu_recorders.back()->attach(chip.memsys().lsu(c));
      }
      if (writer || opt.profile || opt.trace_print) {
        trace::CpuTraceRecorder* rec = writer ? recorders.back().get() : nullptr;
        trace::CycleProfiler* prof = opt.profile ? profilers.back().get() : nullptr;
        const bool echo = opt.trace_print;
        chip.cpu(c).set_trace([rec, prof, echo](const cpu::TraceEvent& ev) {
          if (rec != nullptr) rec->on_event(ev);
          if (prof != nullptr) prof->on_event(ev);
          if (echo) print_legacy_trace(ev);
        });
      }
    }
    if (writer) {
      dte_recorder = std::make_unique<trace::DteTraceRecorder>(*writer);
      dte_recorder->attach(chip.dte());
    }
    // run()'s cap is an absolute per-CPU packet count, so re-calling with a
    // larger cap resumes where the previous chunk stopped.
    soc::Majc5200::Result res;
    for (;;) {
      u64 done = 0;
      for (u32 c = 0; c < soc::Majc5200::kNumCpus; ++c)
        done = std::max(done, chip.cpu(c).stats().packets);
      const u64 cap =
          opt.checkpoint_every != 0
              ? std::min(done + opt.checkpoint_every, opt.max_packets)
              : opt.max_packets;
      res = chip.run(cap);
      if (opt.checkpoint_out != nullptr && !save_to(opt.checkpoint_out, chip))
        return 2;
      if (res.reason != TerminationReason::kPacketCap ||
          opt.checkpoint_every == 0 || cap >= opt.max_packets)
        break;
    }
    if (writer) writer->finish();
    for (u32 c = 0; c < 2; ++c) {
      std::fputs(chip.cpu(c).console().c_str(), stdout);
    }
    std::printf(
        "[chip] %llu cycles; cpu0 %llu packets, cpu1 %llu packets, %s\n",
        static_cast<unsigned long long>(res.cycles),
        static_cast<unsigned long long>(res.packets[0]),
        static_cast<unsigned long long>(res.packets[1]),
        termination_reason_name(res.reason));
    if (!res.dump.empty()) std::fputs(res.dump.c_str(), stderr);
    for (u32 c = 0; c < profilers.size(); ++c) {
      std::printf("\n[cpu%u]\n", c);
      std::fputs(profilers[c]
                     ->report(opt.profile_top, res.cycles,
                              chip.memsys().config().mt_switch_penalty)
                     .c_str(),
                 stdout);
    }
    if (opt.stats_json != nullptr) {
      write_file_or_stdout(opt.stats_json, [&](std::ostream& os) {
        trace::write_stats_json(os, chip, res);
      });
    }
    return res.reason == TerminationReason::kHalted ? 0 : 1;
  }

  cpu::CycleSim sim(*image);
  if (opt.restore != nullptr && !restore_from(opt.restore, sim)) return 2;
  std::unique_ptr<trace::CpuTraceRecorder> recorder;
  std::unique_ptr<trace::LsuTraceRecorder> lsu_recorder;
  std::unique_ptr<trace::CycleProfiler> profiler;
  if (writer) {
    recorder = std::make_unique<trace::CpuTraceRecorder>(
        *writer, sim.program(), sim.memsys().config(), 0);
    lsu_recorder = std::make_unique<trace::LsuTraceRecorder>(*writer, 0);
    lsu_recorder->attach(sim.memsys().lsu(0));
  }
  if (opt.profile) {
    profiler = std::make_unique<trace::CycleProfiler>(sim.program());
  }
  if (writer || profiler || opt.trace_print) {
    trace::CpuTraceRecorder* rec = recorder.get();
    trace::CycleProfiler* prof = profiler.get();
    const bool echo = opt.trace_print;
    sim.cpu().set_trace([rec, prof, echo](const cpu::TraceEvent& ev) {
      if (rec != nullptr) rec->on_event(ev);
      if (prof != nullptr) prof->on_event(ev);
      if (echo) print_legacy_trace(ev);
    });
  }
  cpu::CycleSim::Result res;
  for (;;) {
    const u64 done = sim.cpu().stats().packets;
    const u64 cap =
        opt.checkpoint_every != 0
            ? std::min(done + opt.checkpoint_every, opt.max_packets)
            : opt.max_packets;
    res = sim.run(cap);
    if (opt.checkpoint_out != nullptr && !save_to(opt.checkpoint_out, sim))
      return 2;
    if (res.reason != TerminationReason::kPacketCap ||
        opt.checkpoint_every == 0 || res.packets >= opt.max_packets)
      break;
  }
  if (writer) writer->finish();
  std::fputs(sim.console().c_str(), stdout);
  std::printf("[cycle] %llu cycles, %llu instructions, IPC %.2f, %s\n",
              static_cast<unsigned long long>(res.cycles),
              static_cast<unsigned long long>(res.instrs), res.ipc(),
              termination_reason_name(res.reason));
  if (res.reason == TerminationReason::kTrap) {
    std::fputs(sim::trap_report(res.trap, sim.program(),
                                sim.cpu().state(sim.cpu().active_thread()))
                   .c_str(),
               stderr);
  }
  std::fputs(cpu::performance_report(sim).c_str(), stdout);
  if (profiler) {
    std::fputs(
        profiler
            ->report(opt.profile_top, res.cycles,
                     sim.memsys().config().mt_switch_penalty)
            .c_str(),
        stdout);
  }
  if (opt.stats_json != nullptr) {
    write_file_or_stdout(opt.stats_json, [&](std::ostream& os) {
      trace::write_stats_json(os, sim, res);
    });
  }
  return res.reason == TerminationReason::kHalted ? 0 : 1;
}
