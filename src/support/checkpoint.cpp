// Checkpoint serialization: primitives, the header, and the fields() list
// of every component (declared as members in the components' own headers
// so they can reach private state; gathered here so the full format lives
// in one translation unit, in serialization order).
#include "src/support/checkpoint.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <vector>

#include "src/cpu/cycle_cpu.h"
#include "src/masm/image.h"
#include "src/sim/functional_sim.h"
#include "src/soc/chip.h"
#include "src/soc/config.h"
#include "src/support/trap.h"

namespace majc::ckpt {

// ---------------------------------------------------------------- primitives

void Writer::put_le(u64 v, int bytes) {
  for (int i = 0; i < bytes; ++i) put_u8(static_cast<u8>(v >> (8 * i)));
}

void Writer::put_bytes(std::span<const u8> v) {
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void Writer::put_string(const std::string& s) {
  put_u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::put_tag(const char (&tag)[5]) {
  for (int i = 0; i < 4; ++i) put_u8(static_cast<u8>(tag[i]));
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) throw Error("checkpoint: truncated (short read)");
}

u8 Reader::get_u8() {
  need(1);
  return data_[pos_++];
}

u64 Reader::get_le(int bytes) {
  need(static_cast<std::size_t>(bytes));
  u64 v = 0;
  for (int i = 0; i < bytes; ++i) v |= u64{data_[pos_++]} << (8 * i);
  return v;
}

void Reader::get_bytes(std::span<u8> out) {
  need(out.size());
  std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(pos_), out.size(),
              out.begin());
  pos_ += out.size();
}

bool Reader::get_bool() {
  const u8 b = get_u8();
  if (b > 1) throw Error("checkpoint: bool byte is neither 0 nor 1");
  return b != 0;
}

u8 Reader::get_enum(u8 count, const char* what) {
  const u8 v = get_u8();
  if (v >= count) throw Error(std::string("checkpoint: bad ") + what);
  return v;
}

u64 Reader::get_count(std::size_t min_elem_bytes) {
  const u64 n = get_u64();
  if (n > remaining() / min_elem_bytes)
    throw Error("checkpoint: element count overruns the file");
  return n;
}

std::string Reader::get_string() {
  const u64 n = get_count(1);
  std::string s(reinterpret_cast<const char*>(data_.data()) + pos_,
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

void Reader::expect_tag(const char (&tag)[5]) {
  char got[5] = {};
  for (int i = 0; i < 4; ++i) got[i] = static_cast<char>(get_u8());
  if (std::string_view(got, 4) != std::string_view(tag, 4))
    throw Error(std::string("checkpoint: section tag mismatch (expected '") +
                tag + "', found '" + got + "')");
}

void Archive::size(majc::u64 n, std::string_view what) {
  if (!r_) return w_->put_u64(n);
  if (r_->get_u64() != n)
    throw Error("checkpoint: " + std::string(what) + " mismatch");
}

void Archive::size32(majc::u32 n, std::string_view what) {
  if (!r_) return w_->put_u32(n);
  if (r_->get_u32() != n)
    throw Error("checkpoint: " + std::string(what) + " mismatch");
}

// -------------------------------------------------------------- fingerprints

namespace {

// Not the published FNV-1a 64-bit offset basis (14695981039346656037 =
// 0xcbf29ce484222325, which serve/cache.cpp uses): this is that decimal
// with its last digit dropped. Every arch digest, config fingerprint and
// image hash, and so the CkptFormat pins and every stored checkpoint and
// golden, depends on it. Never "correct" it.
constexpr u64 kFnvOffset = 1469598103934665603ull;
constexpr u64 kFnvPrime = 1099511628211ull;

void fnv_bytes(u64& h, std::span<const u8> bytes) {
  for (u8 b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
}

void fnv_u64(u64& h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<u8>(v >> (8 * i));
    h *= kFnvPrime;
  }
}

void fnv_f64(u64& h, double v) { fnv_u64(h, std::bit_cast<u64>(v)); }

} // namespace

u64 config_fingerprint(const TimingConfig& c) {
  u64 h = kFnvOffset;
  fnv_u64(h, c.icache_bytes);
  fnv_u64(h, c.icache_ways);
  fnv_u64(h, c.perfect_icache);
  fnv_u64(h, c.dcache_bytes);
  fnv_u64(h, c.dcache_ways);
  fnv_u64(h, c.dcache_dual_ported);
  fnv_u64(h, c.perfect_dcache);
  fnv_u64(h, c.line_bytes);
  fnv_u64(h, c.load_to_use);
  fnv_u64(h, c.load_buffers);
  fnv_u64(h, c.store_buffers);
  fnv_u64(h, c.mshrs);
  fnv_u64(h, c.nonblocking_loads);
  fnv_u64(h, c.prefetch_enabled);
  fnv_u64(h, c.dram_latency);
  fnv_u64(h, c.dram_page_hit_latency);
  fnv_u64(h, c.dram_banks);
  fnv_f64(h, c.dram_bytes_per_cycle);
  fnv_u64(h, c.crossbar_hop);
  fnv_u64(h, c.bpred_enabled);
  fnv_u64(h, c.bpred_entries);
  fnv_u64(h, c.bpred_history_bits);
  fnv_u64(h, c.mispredict_penalty);
  fnv_u64(h, c.jump_penalty);
  fnv_u64(h, c.hw_threads);
  fnv_u64(h, c.mt_switch_threshold);
  fnv_u64(h, c.mt_switch_penalty);
  fnv_u64(h, c.full_bypass);
  fnv_u64(h, c.wb_delay);
  fnv_f64(h, c.pci_bytes_per_cycle);
  fnv_f64(h, c.upa_bytes_per_cycle);
  fnv_u64(h, c.nupa_fifo_bytes);
  fnv_u64(h, c.trap_div_zero);
  fnv_u64(h, c.trap_entry_penalty);
  fnv_u64(h, c.dcache_disabled_ways);
  fnv_u64(h, c.icache_disabled_ways);
  fnv_u64(h, c.watchdog_cycles);
  fnv_u64(h, c.faults.seed);
  fnv_f64(h, c.faults.dram_correctable_rate);
  fnv_f64(h, c.faults.dram_uncorrectable_rate);
  fnv_u64(h, c.faults.ecc_enabled);
  fnv_u64(h, static_cast<u64>(c.faults.mc_policy));
  fnv_f64(h, c.faults.fill_parity_rate);
  fnv_u64(h, c.faults.max_fill_retries);
  fnv_f64(h, c.faults.xbar_delay_rate);
  fnv_u64(h, c.faults.xbar_delay_cycles);
  fnv_f64(h, c.faults.xbar_drop_rate);
  return h;
}

u64 image_hash(const masm::Image& img) {
  u64 h = kFnvOffset;
  for (u32 w : img.code) fnv_u64(h, w);
  fnv_bytes(h, img.data);
  fnv_u64(h, img.code_base);
  fnv_u64(h, img.data_base);
  fnv_u64(h, img.entry);
  return h;
}

// ------------------------------------------------------------------- header

namespace {

void write_header(Writer& w, Mode mode, u64 cfg_fp, u64 img_hash) {
  for (char c : kMagic) w.put_u8(static_cast<u8>(c));
  w.put_u32(kVersion);
  w.put_u8(static_cast<u8>(mode));
  w.put_u64(cfg_fp);
  w.put_u64(img_hash);
}

Mode read_header_common(Reader& r) {
  char magic[8];
  for (char& c : magic) c = static_cast<char>(r.get_u8());
  if (std::string_view(magic, 8) != std::string_view(kMagic, 8))
    throw Error("checkpoint: bad magic (not a MAJC checkpoint file)");
  const u32 version = r.get_u32();
  if (version != kVersion)
    throw Error("checkpoint: version " + std::to_string(version) +
                " not readable by this build (expected " +
                std::to_string(kVersion) + ")");
  return static_cast<Mode>(
      r.get_enum(static_cast<u8>(Mode::kChip) + 1, "mode"));
}

void check_header(Reader& r, Mode mode, u64 cfg_fp, u64 img_hash) {
  const Mode got = read_header_common(r);
  if (got != mode)
    throw Error(std::string("checkpoint: mode mismatch (file is '") +
                mode_name(got) + "', simulator is '" + mode_name(mode) + "')");
  if (r.get_u64() != cfg_fp)
    throw Error("checkpoint: TimingConfig mismatch — a checkpoint resumes "
                "only under the configuration that produced it");
  if (r.get_u64() != img_hash)
    throw Error("checkpoint: program image mismatch — a checkpoint resumes "
                "only with the image that produced it");
}

// A checkpoint is the header, then the simulator's fields() walk. The
// public save_checkpoint takes the simulator const: a saving walk changes
// nothing, so the one const_cast here is sound.
template <class Sim>
std::vector<u8> save(const Sim& s, Mode mode, u64 cfg_fp) {
  Writer w;
  write_header(w, mode, cfg_fp, image_hash(s.program().image()));
  Archive a(w);
  const_cast<Sim&>(s).fields(a);
  return w.take();
}

template <class Sim>
void restore(Sim& s, std::span<const u8> bytes, Mode mode, u64 cfg_fp) {
  Reader r(bytes);
  check_header(r, mode, cfg_fp, image_hash(s.program().image()));
  Archive a(r);
  s.fields(a);
  if (r.remaining() != 0)
    throw Error("checkpoint: " + std::to_string(r.remaining()) +
                " trailing bytes after the body");
}

} // namespace

Mode peek_mode(std::span<const u8> bytes) {
  Reader r(bytes);
  return read_header_common(r);
}

void write_checkpoint_file(const std::string& path,
                           std::span<const u8> bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw Error("checkpoint: cannot open '" + path + "' for writing");
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) throw Error("checkpoint: write to '" + path + "' failed");
}

std::vector<u8> read_checkpoint_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw Error("checkpoint: cannot open '" + path + "'");
  const std::streamsize n = f.tellg();
  f.seekg(0);
  std::vector<u8> bytes(static_cast<std::size_t>(n));
  f.read(reinterpret_cast<char*>(bytes.data()), n);
  if (!f) throw Error("checkpoint: read of '" + path + "' failed");
  return bytes;
}

} // namespace majc::ckpt

// ------------------------------------------------- shared struct fields

namespace majc {
namespace {

constexpr u8 kTrapCauses = static_cast<u8>(TrapCause::kMachineCheck) + 1;
constexpr u8 kTimeUnits = static_cast<u8>(TimeUnit::kCycles) + 1;

void trap_fields(ckpt::Archive& a, Trap& t) {
  t.code = static_cast<TrapCause>(
      a.enum8(static_cast<u8>(t.code), kTrapCauses, "trap cause"));
  a.u32(t.cpu);
  a.u64(t.pc);
  a.u64(t.cycle);
  t.unit = static_cast<TimeUnit>(
      a.enum8(static_cast<u8>(t.unit), kTimeUnits, "time unit"));
  a.string(t.detail);
  a.u32(t.value);
  a.boolean(t.deliverable);
}

void state_fields(ckpt::Archive& a, sim::CpuState& st) {
  for (u32& v : st.regs) a.u32(v);
  a.u64(st.pc);
  a.boolean(st.halted);
  a.u64(st.tvec);
  a.u32(st.tcause);
  a.u64(st.tpc);
  a.u64(st.tnpc);
  a.u32(st.tdetail);
  a.boolean(st.in_trap);
}

// Flat memory, sparse: all-zero 4 KB pages are elided; a ~0 page index
// terminates the page list. Load zero-fills first, so the elided pages
// come back exactly as written.
constexpr std::size_t kPageBytes = 4096;
constexpr u64 kEndOfPages = ~u64{0};

void memory_fields(ckpt::Archive& a, sim::FlatMemory& m) {
  a.tag("MEM ");
  const std::span<u8> raw = m.raw();
  a.size(raw.size(), "memory size");
  if (a.loading()) std::fill(raw.begin(), raw.end(), u8{0});
  const u64 pages = (raw.size() + kPageBytes - 1) / kPageBytes;
  const auto page = [&](u64 p) {
    return raw.subspan(p * kPageBytes,
                       std::min(kPageBytes, raw.size() - p * kPageBytes));
  };
  for (u64 p = 0;; ++p) {
    if (!a.loading()) {  // save: skip to the next non-zero page, or the end
      while (p < pages && std::all_of(page(p).begin(), page(p).end(),
                                      [](u8 b) { return b == 0; }))
        ++p;
      if (p == pages) p = kEndOfPages;
    }
    a.u64(p);
    if (p == kEndOfPages) break;
    if (p >= pages) throw Error("checkpoint: memory page out of range");
    const std::span<u8> bytes = page(p);
    u32 n = static_cast<u32>(bytes.size());
    a.u32(n);
    if (n > bytes.size()) throw Error("checkpoint: memory page out of range");
    a.bytes(bytes.first(n));
  }
}

void stats_fields(ckpt::Archive& a, cpu::CpuStats& s) {
  a.u64(s.packets);
  a.u64(s.instrs);
  s.width_hist.fields(a);
  a.u64(s.cond_branches);
  a.u64(s.taken_branches);
  a.u64(s.mispredicts);
  a.u64(s.jumps);
  a.u64(s.thread_switches);
  a.u64(s.traps_delivered);
  for (u64& c : s.stalls.counts) a.u64(c);
}

} // namespace

void Histogram::fields(ckpt::Archive& a) {
  a.size(buckets_.size(), "histogram bucket-count");
  for (u64& b : buckets_) a.u64(b);
}

} // namespace majc

// ------------------------------------------------------------ memory system

namespace majc::mem {

void Cache::fields(ckpt::Archive& a) {
  a.tag("CCHE");
  a.u32(disabled_ways_);
  a.size(lines_.size(), "cache geometry (" + cfg_.name + ")");
  for (Line& l : lines_) {
    a.u64(l.tag);
    a.boolean(l.valid);
    a.boolean(l.dirty);
    a.u32(l.lru);
  }
  a.u64(hits_);
  a.u64(misses_);
  a.u64(writebacks_);
}

void Dram::fields(ckpt::Archive& a) {
  a.tag("DRAM");
  a.size(banks_.size(), "DRAM bank-count");
  for (Bank& b : banks_) {
    a.u64(b.busy);
    a.u64(b.open_page);
  }
  a.u64(channel_free_);
  a.u64(requests_);
  a.u64(bytes_);
  a.u64(busy_cycles_);
}

void Crossbar::fields(ckpt::Archive& a) {
  a.tag("XBAR");
  for (Cycle& f : free_) a.u64(f);
  for (u64& b : bytes_) a.u64(b);
  a.u64(transfers_);
  a.u64(delayed_grants_);
  a.u64(dropped_grants_);
}

void Lsu::fields(ckpt::Archive& a) {
  a.tag("LSU ");
  a.u64(fills_);
  // count() bounds each count by the bytes left: 8, 20 and 16 per entry.
  loads_.resize(a.count(loads_.size(), 8));
  for (Cycle& c : loads_) a.u64(c);
  stores_.resize(a.count(stores_.size(), 20));
  for (StoreEntry& s : stores_) {
    a.u64(s.addr);
    a.u32(s.bytes);
    a.u64(s.done);
  }
  // MSHRs are saved sorted by line address from a copy: internal
  // (insertion) order must not leak into the byte stream (determinism
  // rule), and saving must not reorder the live run's buffer.
  std::vector<MshrEntry> mshrs = mshr_;
  if (!a.loading()) {
    std::sort(mshrs.begin(), mshrs.end(), [](const auto& x, const auto& y) {
      return std::pair(x.line, x.done) < std::pair(y.line, y.done);
    });
  }
  mshrs.resize(a.count(mshrs.size(), 16));
  for (MshrEntry& e : mshrs) {
    a.u64(e.line);
    a.u64(e.done);
  }
  if (a.loading()) mshr_ = std::move(mshrs);
  a.u64(blocked_until_);
  for (WcEntry& e : wc_) {
    a.u64(e.line);
    a.u64(e.opened);
  }
  a.u64(wc_done_);
  for (u64& c : counters_) a.u64(c);
}

void EccMemory::fields(ckpt::Archive& a) {
  a.tag("ECC ");
  // Sorted: hash-set order must not leak into the byte stream.
  std::vector<Addr> healed(healed_.begin(), healed_.end());
  std::sort(healed.begin(), healed.end());
  healed.resize(a.count(healed.size(), 8));
  for (Addr& line : healed) a.u64(line);
  if (a.loading()) healed_ = {healed.begin(), healed.end()};
  a.u64(corrected_);
  a.u64(machine_checks_);
  a.u64(retried_);
  a.u64(poisoned_);
  a.u64(silent_corruptions_);
}

void MemorySystem::fields(ckpt::Archive& a) {
  a.tag("MSYS");
  xbar_.fields(a);
  dram_.fields(a);
  dcache_.fields(a);
  for (Cache& ic : icaches_) ic.fields(a);
  a.u64(dport_free_);
  for (auto& lsu : lsus_) lsu->fields(a);
  a.u64(ifetch_fills_);
  a.u64(ifetch_parity_retries_);
  a.u64(ifetch_machine_checks_);
}

} // namespace majc::mem

// --------------------------------------------------------------------- cpu

namespace majc::cpu {

void Scoreboard::fields(ckpt::Archive& a) {
  for (Entry& e : entries_) {
    a.u64(e.done);
    a.u8(e.producer);
  }
}

void BranchPredictor::fields(ckpt::Archive& a) {
  a.tag("BPRD");
  a.size(counters_.size(), "branch-predictor size");
  a.bytes(counters_);
  a.u32(ghr_);
  a.u64(lookups_);
  a.u64(correct_);
}

void CycleCpu::fields(ckpt::Archive& a) {
  a.tag("CPU ");
  a.u32(active_);
  a.u64(current_cycle_);
  a.u64(now_cache_);
  a.u64(last_progress_);
  a.string(console_);
  stats_fields(a, stats_);
  bpred_.fields(a);
  for (auto& fu : fu_busy_)
    for (Cycle& c : fu) a.u64(c);
  bool pending = trap_.has_value();
  a.boolean(pending);
  if (a.loading()) trap_ = pending ? std::make_optional<Trap>() : std::nullopt;
  if (trap_) trap_fields(a, *trap_);
  trap_fields(a, last_trap_);
  a.size(threads_.size(), "hardware-thread count");
  for (ThreadCtx& th : threads_) {
    state_fields(a, th.state);
    th.sb.fields(a);
    a.u64(th.ready);
  }
  if (a.loading()) {
    // The packet-index cache is derived state: invalidate it and let the
    // next step() re-resolve through the pc -> index map.
    for (ThreadCtx& th : threads_) {
      th.idx = sim::kNoPacketIndex;
      th.idx_pc = th.state.pc;
    }
    env_.thread_id = active_;
  }
}

void CycleSim::fields(ckpt::Archive& a) {
  memory_fields(a, mem_);
  ms_->fields(a);
  eccmem_->fields(a);
  cpu_->fields(a);
}

} // namespace majc::cpu

// --------------------------------------------------------------------- sim

namespace majc::sim {

void FunctionalSim::fields(ckpt::Archive& a) {
  a.tag("FSIM");
  memory_fields(a, mem_);
  state_fields(a, state_);
  a.string(console_);
  a.u64(packets_run_);
  a.u64(instrs_run_);
  a.u64(traps_delivered_);
  trap_fields(a, last_trap_);
  a.boolean(trap_div_zero_);
}

} // namespace majc::sim

// --------------------------------------------------------------------- soc

namespace majc::soc {

void Fifo::fields(ckpt::Archive& a) {
  a.tag("FIFO");
  a.size32(capacity_, "FIFO capacity");
  std::vector<u8> bytes(bytes_.begin(), bytes_.end());
  bytes.resize(a.count(bytes.size(), 1));
  a.bytes(bytes);
  if (a.loading()) bytes_.assign(bytes.begin(), bytes.end());
  a.u64(pushed_);
}

void IoPort::fields(ckpt::Archive& a) {
  a.u64(bytes_in_);
  a.u64(bytes_out_);
}

void Dte::fields(ckpt::Archive& a) {
  a.u64(bytes_moved_);
  a.u64(descriptors_);
}

void Majc5200::fields(ckpt::Archive& a) {
  a.tag("CHIP");
  memory_fields(a, mem_);
  ms_.fields(a);
  eccmem_.fields(a);
  for (auto& cpu : cpus_) cpu->fields(a);
  dte_.fields(a);
  nupa_.fields(a);
  nupa_.fifo().fields(a);
  supa_.fields(a);
  pci_.fields(a);
}

} // namespace majc::soc

// ------------------------------------------------------ top-level overloads

namespace majc::ckpt {

namespace {

void fnv_state(u64& h, const sim::CpuState& st) {
  for (u32 v : st.regs) fnv_u64(h, v);
  fnv_u64(h, st.pc);
}

} // namespace

u64 arch_digest(const sim::FunctionalSim& s) {
  u64 h = kFnvOffset;
  fnv_bytes(h, s.memory().raw());
  fnv_state(h, s.state());
  return h;
}

u64 arch_digest(const cpu::CycleSim& s) {
  u64 h = kFnvOffset;
  fnv_bytes(h, s.memory().raw());
  for (u32 t = 0; t < s.cpu().hw_threads(); ++t) fnv_state(h, s.cpu().state(t));
  return h;
}

u64 arch_digest(const soc::Majc5200& s) {
  u64 h = kFnvOffset;
  fnv_bytes(h, s.memory().raw());
  for (u32 c = 0; c < soc::Majc5200::kNumCpus; ++c)
    for (u32 t = 0; t < s.cpu(c).hw_threads(); ++t)
      fnv_state(h, s.cpu(c).state(t));
  return h;
}

std::vector<u8> save_checkpoint(const sim::FunctionalSim& s) {
  return save(s, Mode::kFunctional, 0);
}

std::vector<u8> save_checkpoint(const cpu::CycleSim& s) {
  return save(s, Mode::kCycle, config_fingerprint(s.memsys().config()));
}

std::vector<u8> save_checkpoint(const soc::Majc5200& s) {
  return save(s, Mode::kChip, config_fingerprint(s.memsys().config()));
}

void restore_checkpoint(sim::FunctionalSim& s, std::span<const u8> bytes) {
  restore(s, bytes, Mode::kFunctional, 0);
}

void restore_checkpoint(cpu::CycleSim& s, std::span<const u8> bytes) {
  restore(s, bytes, Mode::kCycle, config_fingerprint(s.memsys().config()));
}

void restore_checkpoint(soc::Majc5200& s, std::span<const u8> bytes) {
  restore(s, bytes, Mode::kChip, config_fingerprint(s.memsys().config()));
}

} // namespace majc::ckpt
