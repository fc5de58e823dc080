#pragma once

// Span recorder for the traced benchmark run.
//
// The benchmark measures the simulator's layers from outside: the workload
// kernels wrap each call into a layer (xbrtime_malloc, xbr_amo_xor,
// xbr_put, xbrtime_barrier, the collectives) in a Scope. With tracing off
// a Scope holds a null recorder and costs one branch. With tracing on it
// stamps std::chrono::steady_clock at entry and exit and folds the duration
// into per-PE statistics: a call count, total and self time, bytes moved,
// and a log-bucketed latency histogram. A bounded number of spans per stat
// (name, start, end, parent, group id) is also kept in memory and written
// out when the run ends.
//
// Each PE owns one PeTrace and is its only writer, so fibers on different
// worker threads never share a recorder; the Recorder merges them after
// Machine::run has returned.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Histogram of non-negative integers with 32 linear sub-buckets per power
/// of two (HdrHistogram-style), so a quantile is within ~3% of the exact
/// sample while recording stays O(1) and allocation-free.
class LogHistogram {
 public:
  void record(std::uint64_t v);
  void merge(const LogHistogram& other);
  /// Midpoint of the bucket holding the q-quantile; 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;
  std::array<std::uint64_t, 64 * kSub> buckets_{};
  std::uint64_t count_ = 0;
};

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same PE's spans, -1: root
  std::uint32_t group = 0;   ///< kernel phase or collective call id
};

struct StatTotals {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
  std::int64_t ns = 0;       ///< summed span durations
  std::int64_t self_ns = 0;  ///< ns minus the time covered by child spans
  LogHistogram hist;         ///< per-call duration, ns
};

/// One PE's recorder. Not thread-safe: only the owning PE's fiber writes.
class PeTrace {
 public:
  PeTrace(int n_stats, std::size_t keep_per_stat);

  void open(int stat, const char* name, std::uint32_t group);
  void close(std::uint64_t bytes);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<StatTotals>& totals() const { return totals_; }

 private:
  struct Open {
    int stat;
    std::int32_t kept;  ///< index in spans_, -1 when over the keep cap
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  std::size_t keep_per_stat_;
  std::vector<StatTotals> totals_;
  std::vector<std::size_t> kept_;
  std::vector<Open> stack_;
  std::vector<SpanRecord> spans_;
};

/// RAII span. A null recorder makes it a no-op.
class Scope {
 public:
  Scope(PeTrace* trace, int stat, const char* name, std::uint32_t group = 0,
        std::uint64_t bytes = 0)
      : trace_(trace), bytes_(bytes) {
    if (trace_ != nullptr) trace_->open(stat, name, group);
  }
  ~Scope() {
    if (trace_ != nullptr) trace_->close(bytes_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  PeTrace* trace_;
  std::uint64_t bytes_;
};

/// All PEs' recorders for one repetition; empty when tracing is off.
class Recorder {
 public:
  Recorder(int n_pes, int n_stats, bool enabled);

  /// The recorder for `rank`, or nullptr when tracing is off.
  PeTrace* pe(int rank);

  bool enabled() const { return !pes_.empty(); }

  /// Totals of one stat merged over every PE.
  StatTotals merged(int stat) const;

  /// Write the kept spans as Chrome trace_event JSON (one track per PE,
  /// the span's id, parent and group under "args"). Returns false when the
  /// file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<PeTrace> pes_;
};

}  // namespace perfbench
