// Deterministic checkpoint / restore of full machine state (DESIGN.md §8).
//
// A checkpoint is a versioned little-endian binary image of everything a
// simulator needs to resume cycle-for-cycle identically: register files and
// trap-unit state, the flat memory (sparse: all-zero 4 KB pages are
// elided), cache tags + LRU, LSU buffers and MSHRs, branch-predictor
// counters and history, fault-plan event indices (fill / grant counters),
// cycle counters and statistics. Serialization order is fixed — unordered
// containers are emitted sorted by key — so saving the same state twice
// produces byte-identical files.
//
// Each checkpointed component lists its state once, in serialization
// order, in one member `void fields(ckpt::Archive& a)` (all defined in
// checkpoint.cpp). Save and restore walk the same list, so they cannot
// drift apart: adding a checkpointed field is one line in that component's
// fields(). The few asymmetric steps (filtering or sorting on save,
// rebuilding derived state after load) sit in an `if (a.loading())` branch.
//
// Format (version 1):
//
//   magic   8 bytes   "MAJCCKPT"
//   version u32       kVersion
//   mode    u8        Mode (functional / cycle / chip)
//   config  u64       config_fingerprint(TimingConfig) — 0 for functional
//   image   u64       image_hash(masm::Image)
//   body              tagged component sections (see checkpoint.cpp)
//
// Compatibility rule: a checkpoint restores only into a simulator built
// from the SAME image with the SAME TimingConfig (including FaultConfig)
// and the same mode; version bumps are never read across. Restore throws
// majc::Error on any mismatch rather than guessing — resuming under a
// different configuration would silently produce different timing. Decoding
// is strict: a bool byte other than 0/1, an out-of-range enum, an element
// count the remaining bytes cannot hold, or bytes left after the body are
// all errors.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/error.h"
#include "src/support/types.h"

namespace majc {
struct TimingConfig;
}
namespace majc::masm {
struct Image;
}
namespace majc::sim {
class FunctionalSim;
}
namespace majc::cpu {
class CycleSim;
}
namespace majc::soc {
class Majc5200;
}

namespace majc::ckpt {

inline constexpr char kMagic[8] = {'M', 'A', 'J', 'C', 'C', 'K', 'P', 'T'};
inline constexpr u32 kVersion = 1;

/// Which simulator wrote the checkpoint. A checkpoint restores only into
/// the same mode (the three simulators hold different state).
enum class Mode : u8 {
  kFunctional = 0,
  kCycle = 1,
  kChip = 2,
};

constexpr const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kFunctional: return "functional";
    case Mode::kCycle: return "cycle";
    case Mode::kChip: return "chip";
  }
  return "?";
}

/// Append-only little-endian byte sink. Primitive names are put_* / get_*
/// (not overloads named after the types) so the u8/u16/... type aliases
/// stay usable inside the class.
class Writer {
public:
  void put_u8(u8 v) { buf_.push_back(v); }
  void put_u32(u32 v) { put_le(v, 4); }
  void put_u64(u64 v) { put_le(v, 8); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_bytes(std::span<const u8> v);
  void put_string(const std::string& s);
  /// Four-character section tag; Reader::expect_tag verifies it, making a
  /// layout drift a loud error instead of silently misparsed state.
  void put_tag(const char (&tag)[5]);

  const std::vector<u8>& bytes() const { return buf_; }
  std::vector<u8> take() { return std::move(buf_); }

private:
  void put_le(u64 v, int bytes);

  std::vector<u8> buf_;
};

/// Bounds-checked little-endian reader over a checkpoint image. Any
/// overrun, tag mismatch or out-of-range value throws majc::Error
/// (truncated / corrupt file).
class Reader {
public:
  explicit Reader(std::span<const u8> data) : data_(data) {}

  u8 get_u8();
  u32 get_u32() { return static_cast<u32>(get_le(4)); }
  u64 get_u64() { return get_le(8); }
  bool get_bool();  // the byte must be 0 or 1
  void get_bytes(std::span<u8> out);
  std::string get_string();
  void expect_tag(const char (&tag)[5]);
  /// One-byte enum; throws unless it is below `count`.
  u8 get_enum(u8 count, const char* what);
  /// Element count of a variable-length section; throws unless the
  /// remaining bytes can hold that many elements of at least
  /// `min_elem_bytes` each, so a forged count never reaches an allocator.
  u64 get_count(std::size_t min_elem_bytes);

  std::size_t remaining() const { return data_.size() - pos_; }

private:
  void need(std::size_t n) const;
  u64 get_le(int bytes);

  std::span<const u8> data_;
  std::size_t pos_ = 0;
};

/// One walk over a component's state for either direction: wraps a Writer
/// when saving and a Reader when loading. Each primitive writes the value
/// on save and overwrites it on load. Member names follow the wire types,
/// so inside the class the majc:: integer aliases are spelled qualified.
class Archive {
public:
  explicit Archive(Writer& w) : w_(&w) {}
  explicit Archive(Reader& r) : r_(&r) {}

  bool loading() const { return r_ != nullptr; }

  void u8(majc::u8& v) {
    if (r_) v = r_->get_u8();
    else w_->put_u8(v);
  }
  void u32(majc::u32& v) {
    if (r_) v = r_->get_u32();
    else w_->put_u32(v);
  }
  void u64(majc::u64& v) {
    if (r_) v = r_->get_u64();
    else w_->put_u64(v);
  }
  void boolean(bool& v) {
    if (r_) v = r_->get_bool();
    else w_->put_bool(v);
  }
  void string(std::string& s) {
    if (r_) s = r_->get_string();
    else w_->put_string(s);
  }
  void bytes(std::span<majc::u8> v) {
    if (r_) r_->get_bytes(v);
    else w_->put_bytes(v);
  }
  void tag(const char (&t)[5]) {
    if (r_) r_->expect_tag(t);
    else w_->put_tag(t);
  }
  /// One-byte enum of `count` values: writes `v` on save; returns the
  /// stored value, range-checked by Reader::get_enum, on load.
  majc::u8 enum8(majc::u8 v, majc::u8 count, const char* what) {
    if (r_) return r_->get_enum(count, what);
    w_->put_u8(v);
    return v;
  }
  /// A size fixed by the configuration (memory, cache geometry, ...):
  /// written on save; on load the stored value must equal `n`.
  void size(majc::u64 n, std::string_view what);
  void size32(majc::u32 n, std::string_view what);  // u32 on the wire
  /// Element count of a variable-length section: writes `n` on save;
  /// returns the stored count, bounded by Reader::get_count, on load.
  majc::u64 count(majc::u64 n, std::size_t min_elem_bytes) {
    if (r_) return r_->get_count(min_elem_bytes);
    w_->put_u64(n);
    return n;
  }

private:
  Writer* w_ = nullptr;
  Reader* r_ = nullptr;
};

/// FNV-1a fingerprint over every TimingConfig field (doubles via their bit
/// patterns), including the nested FaultConfig. Guards restore against a
/// run resumed under different timing — see the compatibility rule above.
u64 config_fingerprint(const TimingConfig& cfg);

/// FNV-1a over the image's code, data, bases and entry (symbols excluded:
/// they do not affect execution).
u64 image_hash(const masm::Image& img);

/// FNV-1a digest of architectural outcome (memory contents + registers +
/// pc): two runs that agree here computed the same results. Reported in
/// majc-stats-v1 so a restored run can be compared against an unbroken one.
u64 arch_digest(const sim::FunctionalSim& s);
u64 arch_digest(const cpu::CycleSim& s);
u64 arch_digest(const soc::Majc5200& s);

/// Serialize the full state of a simulator (header + body).
std::vector<u8> save_checkpoint(const sim::FunctionalSim& s);
std::vector<u8> save_checkpoint(const cpu::CycleSim& s);
std::vector<u8> save_checkpoint(const soc::Majc5200& s);

/// Restore into a freshly constructed simulator (same image, same config,
/// same mode). Throws majc::Error on any header mismatch or short read.
void restore_checkpoint(sim::FunctionalSim& s, std::span<const u8> bytes);
void restore_checkpoint(cpu::CycleSim& s, std::span<const u8> bytes);
void restore_checkpoint(soc::Majc5200& s, std::span<const u8> bytes);

/// Mode recorded in a checkpoint header (validates magic + version only).
Mode peek_mode(std::span<const u8> bytes);

/// File helpers (binary, whole-file). Throw majc::Error on I/O failure.
void write_checkpoint_file(const std::string& path,
                           std::span<const u8> bytes);
std::vector<u8> read_checkpoint_file(const std::string& path);

} // namespace majc::ckpt
