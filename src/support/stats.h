// Lightweight statistics accumulators used by the cycle model and benches.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/support/types.h"

namespace majc::ckpt {
class Archive;
} // namespace majc::ckpt

namespace majc {

/// Named 64-bit counters with stable iteration order for reporting.
class CounterSet {
public:
  void add(const std::string& name, u64 delta = 1) { counters_[name] += delta; }
  u64 get(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  const std::map<std::string, u64>& all() const { return counters_; }
  void clear() { counters_.clear(); }

  /// Render as aligned "name: value" lines.
  std::string to_string() const;

private:
  std::map<std::string, u64> counters_;
};

/// Fixed-bucket histogram (e.g. packet issue-width distribution 1..4).
class Histogram {
public:
  explicit Histogram(std::size_t buckets) : buckets_(buckets, 0) {}

  void add(std::size_t bucket, u64 delta = 1) {
    if (bucket >= buckets_.size()) bucket = buckets_.size() - 1;
    buckets_[bucket] += delta;
  }
  u64 bucket(std::size_t i) const { return buckets_.at(i); }
  std::size_t size() const { return buckets_.size(); }
  u64 total() const;
  double mean() const;

  void fields(ckpt::Archive& a);

private:
  std::vector<u64> buckets_;
};

/// Running mean/min/max over a stream of samples.
class RunningStat {
public:
  void add(double v);
  double mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }
  double min() const { return min_; }
  double max() const { return max_; }
  u64 count() const { return n_; }

private:
  u64 n_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

} // namespace majc
