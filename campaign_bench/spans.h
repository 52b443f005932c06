// In-memory host-time span recorder for the campaign benchmark's traced run.
//
// Spans are recorded only by the benchmark's own code, around its calls into
// each layer's public API; the simulator itself is not instrumented. Each
// span keeps its name, start, end, parent span and a key (the job or request
// id it belongs to). Nothing is written until the run ends, when the whole
// log is dumped as Chrome trace-event JSON (loadable in Perfetto); run.py
// derives per-layer self time from that file.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <ios>
#include <mutex>
#include <ostream>
#include <vector>

namespace campaign_bench {

class SpanLog {
public:
  struct Record {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::uint64_t key = 0;     // job or request id
    std::uint64_t count = 0;   // work done inside the span (e.g. packets)
    std::int64_t t0_ns = 0;
    std::int64_t t1_ns = 0;
    std::uint32_t tid = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {
    t_origin_ = std::chrono::steady_clock::now();
  }

  bool enabled() const { return enabled_; }

  /// RAII span. Inert (one branch) when the log is disabled. Nested scopes
  /// on one thread become parent/child; a scope without an explicit key
  /// inherits its parent's.
  class Scope {
  public:
    static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

    Scope(SpanLog& log, const char* name, std::uint64_t key = kInherit)
        : log_(log) {
      if (!log_.enabled_) return;
      Frame& f = frame();
      rec_.name = name;
      rec_.id = log_.next_id_.fetch_add(1, std::memory_order_relaxed);
      rec_.parent = f.stack.empty() ? 0 : f.stack.back().id;
      rec_.key = key != kInherit
                     ? key
                     : (f.stack.empty() ? 0 : f.stack.back().key);
      rec_.tid = f.tid;
      f.stack.push_back({rec_.id, rec_.key});
      rec_.t0_ns = log_.now_ns();
    }

    ~Scope() {
      if (!log_.enabled_) return;
      rec_.t1_ns = log_.now_ns();
      frame().stack.pop_back();
      log_.append(rec_);
    }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Attach a work count (packets run, bytes written) to this span.
    void set_count(std::uint64_t n) { rec_.count = n; }

  private:
    SpanLog& log_;
    Record rec_;
  };

  /// Snapshot of every closed span (call after all recording threads ended).
  std::vector<Record> records() const {
    std::lock_guard<std::mutex> lk(mu_);
    return records_;
  }

  /// Chrome trace-event JSON: one complete ("X") event per span, timestamps
  /// in microseconds from the log's creation.
  void write_chrome_json(std::ostream& os) const {
    std::vector<Record> recs = records();
    std::sort(recs.begin(), recs.end(),
              [](const Record& a, const Record& b) { return a.id < b.id; });
    os.setf(std::ios::fixed);
    os.precision(3);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const Record& r : recs) {
      if (!first) os << ",";
      first = false;
      os << "\n{\"name\":\"" << r.name << "\",\"cat\":\"host\",\"ph\":\"X\""
         << ",\"pid\":1,\"tid\":" << r.tid << ",\"ts\":" << us(r.t0_ns)
         << ",\"dur\":" << us(r.t1_ns - r.t0_ns) << ",\"args\":{\"id\":"
         << r.id << ",\"parent\":" << r.parent << ",\"key\":" << r.key
         << ",\"count\":" << r.count << "}}";
    }
    os << "\n]}\n";
  }

private:
  struct Open {
    std::uint64_t id;
    std::uint64_t key;
  };
  struct Frame {
    std::uint32_t tid = 0;
    std::vector<Open> stack;
  };

  // One log records per run, so per-thread frames need not be per-log.
  static Frame& frame() {
    static std::atomic<std::uint32_t> next_tid{1};
    thread_local Frame f{next_tid.fetch_add(1, std::memory_order_relaxed),
                         {}};
    return f;
  }

  static double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t_origin_)
        .count();
  }

  void append(const Record& r) {
    std::lock_guard<std::mutex> lk(mu_);
    records_.push_back(r);
  }

  const bool enabled_;
  std::chrono::steady_clock::time_point t_origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

} // namespace campaign_bench
