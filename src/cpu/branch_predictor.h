// Two-level gshare branch prediction.
//
// The paper (Fig. 2) specifies a "2-level, g-share, branch prediction array,
// 4096 entries, 12 history bits". The model implements exactly that: a
// global history register XORed with the branch packet address indexes a
// table of 2-bit saturating counters. Static prediction (predict not-taken)
// is the ablation fallback when dynamic prediction is disabled.
#pragma once

#include <vector>

#include "src/soc/config.h"
#include "src/support/types.h"

namespace majc::ckpt {
class Archive;
} // namespace majc::ckpt

namespace majc::cpu {

class BranchPredictor {
public:
  explicit BranchPredictor(const TimingConfig& cfg);

  /// Direction prediction for the conditional branch in the packet at `pc`.
  bool predict(Addr pc) const;

  /// Train with the resolved outcome (also updates the history register).
  void update(Addr pc, bool taken);

  u64 lookups() const { return lookups_; }
  u64 correct() const { return correct_; }
  double accuracy() const {
    return lookups_ == 0 ? 0.0
                         : static_cast<double>(correct_) /
                               static_cast<double>(lookups_);
  }
  void reset_stats() { lookups_ = correct_ = 0; }

  void fields(ckpt::Archive& a);

private:
  u32 index(Addr pc) const;

  bool enabled_;
  u32 history_mask_;
  std::vector<u8> counters_;  // 2-bit saturating, initialized weakly taken
  u32 ghr_ = 0;
  mutable u64 lookups_ = 0;
  u64 correct_ = 0;
};

} // namespace majc::cpu
