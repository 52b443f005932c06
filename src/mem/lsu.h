// Load/Store Unit timing model.
//
// Each CPU's LSU (paper §3.2) "aggressively implements a non-blocking memory
// subsystem": buffering for 5 loads and 8 stores, up to 4 cache misses
// outstanding without blocking execution, out-of-order data returns, a
// queue for non-faulting 32-byte block prefetches, and memory-barrier /
// atomic support for inter-CPU synchronization through the shared D$.
//
// The model tracks completion times of buffered operations. A new operation
// stalls only when its buffer class is full (or, in the blocking-load
// ablation, whenever a miss is pending). Misses to a line already being
// filled attach to the existing fill (MSHR merge), which is what makes the
// 4-MSHR limit meaningful for streaming kernels.
//
// The buffers hold only live entries: prune(now) erases every completed
// load, store and fill when an operation arrives and again whenever a
// stall moves its issue cycle forward. The buffers stay near their
// capacities (5 loads, 8 stores, 4 fills; atomics may briefly add loads),
// so the sweep is cheap, and they are checkpointed as they are.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "src/mem/cache.h"
#include "src/mem/crossbar.h"
#include "src/mem/dram.h"
#include "src/sim/exec.h"
#include "src/soc/config.h"
#include "src/support/stats.h"

namespace majc::mem {

/// LSU event counters as a fixed enum: the issue path runs once per memory
/// operation, so bumps are flat array increments instead of string-keyed
/// map lookups. counters() renders the report-time CounterSet view.
enum class LsuCounter : u8 {
  kLoads,
  kStores,
  kAtomics,
  kMembars,
  kLoadMisses,
  kStoreMisses,
  kMshrMerges,
  kMshrFullStalls,
  kLoadBufferStalls,
  kStoreBufferStalls,
  kBlockingStalls,
  kStoreForwards,
  kDportConflicts,
  kWcLines,
  kWcStores,
  kPrefetches,
  kPrefetchesQueued,
  kPrefetchesDropped,
  kFillParityRetries,
  kFillMachineChecks,  // bounded-refetch exhaustion (machine check raised)
};
inline constexpr u32 kNumLsuCounters = 20;

/// One long-latency LSU occurrence, reported to an installed observer so
/// the trace layer can draw async miss/prefetch slices. Emitted only on the
/// (already expensive) miss paths, and only when an observer is installed.
struct LsuTraceEvent {
  enum class Kind : u8 { kLoadMiss, kStoreMiss, kPrefetch };
  Kind kind = Kind::kLoadMiss;
  Addr line = 0;     // line address being filled
  Cycle start = 0;   // fill launch (after any MSHR queuing)
  Cycle done = 0;    // line arrival
};

class Lsu {
public:
  struct IssueResult {
    Cycle issue_at = 0;    // when the op leaves the pipe (>= now if stalled)
    Cycle data_ready = 0;  // loads/atomics: when the value can be consumed
  };

  /// `dcache_port_free`, when non-null, is a shared arbitration clock for
  /// the single-ported-D$ ablation: both CPUs' cached accesses serialize on
  /// it. With the paper's dual-ported D$ each CPU has its own port and the
  /// pointer is null.
  Lsu(const TimingConfig& cfg, Cache& dcache, Dram& dram, Crossbar& xbar,
      Port port, Cycle* dcache_port_free = nullptr,
      const FaultPlan* plan = nullptr);

  /// Issue one memory operation reaching the LSU at cycle `now`.
  IssueResult issue(const sim::MemAccess& acc, Cycle now);

  /// Memory barrier: cycle at which all outstanding operations complete.
  Cycle drain(Cycle now);

  /// Report-time view of the flat counters (zero counters omitted, matching
  /// the sparse map the issue path used to populate).
  CounterSet counters() const;
  u64 counter(LsuCounter c) const { return counters_[static_cast<u32>(c)]; }
  void reset_stats() { counters_.fill(0); }

  /// Install a miss/prefetch observer (empty function disables).
  void set_observer(std::function<void(const LsuTraceEvent&)> fn) {
    observer_ = std::move(fn);
  }

  void fields(ckpt::Archive& a);

private:
  struct StoreEntry {
    Addr addr = 0;
    u32 bytes = 0;
    Cycle done = 0;
  };

  struct MshrEntry {
    Addr line = 0;
    Cycle done = 0;
  };

  /// Fetch a line from memory through the crossbar; returns fill-done cycle.
  Cycle fill_line(Addr addr, Cycle now);
  /// Cache lookup + miss handling for a cached access.
  Cycle cached_access(Addr addr, u32 bytes, bool is_store, bool allocate,
                      Cycle now);
  Cycle mshr_ready(Cycle now);
  /// Retire every buffered load, store and fill complete by `now`.
  void prune(Cycle now);

  const TimingConfig& cfg_;
  Cache& dcache_;
  Dram& dram_;
  Crossbar& xbar_;
  Port port_;
  Cycle* dport_free_ = nullptr;
  const FaultPlan* plan_ = nullptr;  // injected D$ fill parity faults
  u64 fills_ = 0;

  std::vector<Cycle> loads_;        // completion times of buffered loads
  std::vector<StoreEntry> stores_;  // buffered stores (for forwarding)
  std::vector<MshrEntry> mshr_;     // in-flight line fills (<= cfg_.mshrs)
  Cycle blocked_until_ = 0;         // blocking-load ablation
  // This CPU's D$ access memo: direct-mapped by line address, self-
  // validating (Cache::hit_fast / access re-check the tag store), so
  // strided multi-array kernels keep several open lines inline at once.
  static constexpr u32 kDataMemo = 32;
  u32 line_shift_ = 0;
  std::array<Cache::Hint, kDataMemo> dhints_{};
  Cache::Hint& dhint(Addr addr) {
    return dhints_[(addr >> line_shift_) & (kDataMemo - 1)];
  }
  // Write-combining buffer for non-allocating (.na) store misses: four
  // open lines so interleaved output streams still combine; one line
  // transfer per touched line instead of a read-for-ownership fill.
  struct WcEntry {
    Addr line = ~Addr{0};
    Cycle opened = 0;
  };
  std::array<WcEntry, 4> wc_{};
  Cycle wc_done_ = 0;
  std::array<u64, kNumLsuCounters> counters_{};
  std::function<void(const LsuTraceEvent&)> observer_;

  void bump(LsuCounter c, u64 delta = 1) {
    counters_[static_cast<u32>(c)] += delta;
  }
};

} // namespace majc::mem
