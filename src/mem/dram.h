// Direct Rambus DRAM (DRDRAM) timing model.
//
// MAJC-5200's memory controller drives a DRDRAM channel with a peak transfer
// rate of 1.6 GB/s (paper §3.1) — 3.2 bytes per 500 MHz CPU cycle. The model
// captures the two first-order effects: fixed access latency and channel /
// bank occupancy, which bound achievable bandwidth and produce out-of-order
// data return when independent misses hit different banks.
#pragma once

#include <vector>

#include "src/soc/config.h"
#include "src/support/types.h"

namespace majc::ckpt {
class Archive;
} // namespace majc::ckpt

namespace majc::mem {

class Dram {
public:
  explicit Dram(const TimingConfig& cfg);

  /// Schedule a `bytes`-sized transfer starting no earlier than `now`.
  /// Returns the cycle at which the data is fully transferred.
  Cycle request(Addr addr, u32 bytes, Cycle now);

  u64 requests() const { return requests_; }
  u64 bytes_transferred() const { return bytes_; }
  /// Cycles the channel was busy (for utilization reporting).
  u64 busy_cycles() const { return busy_cycles_; }
  void reset_stats();

  void fields(ckpt::Archive& a);

private:
  u32 bank_of(Addr addr) const {
    // Banks interleave at 2 KB granularity (a DRDRAM page).
    return static_cast<u32>((addr >> 11) % banks_.size());
  }
  u64 page_of(Addr addr) const { return addr >> 11; }

  struct Bank {
    Cycle busy = 0;
    u64 open_page = ~u64{0};
  };

  u32 latency_;
  u32 page_hit_latency_;
  double bytes_per_cycle_;
  std::vector<Bank> banks_;
  Cycle channel_free_ = 0;
  u64 requests_ = 0;
  u64 bytes_ = 0;
  u64 busy_cycles_ = 0;
};

} // namespace majc::mem
