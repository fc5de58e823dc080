#include "spans.hpp"

#include <bit>
#include <cstdio>

namespace perfbench {

void LogHistogram::record(std::uint64_t v) {
  std::size_t idx = 0;
  if (v < kSub) {
    idx = static_cast<std::size_t>(v);
  } else {
    const int e = static_cast<int>(std::bit_width(v)) - 1;  // >= kSubBits
    const std::uint64_t sub = (v >> (e - kSubBits)) - kSub;
    idx = static_cast<std::size_t>(e - kSubBits + 1) * kSub +
          static_cast<std::size_t>(sub);
  }
  ++buckets_[idx];
  ++count_;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  // Nearest rank: the smallest bucket whose cumulative count reaches
  // ceil(q * count).
  auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_));
  if (static_cast<double>(rank) < q * static_cast<double>(count_)) ++rank;
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen < rank) continue;
    if (i < kSub) return static_cast<double>(i);
    const auto e = static_cast<int>(i / kSub) + kSubBits - 1;
    const auto sub = static_cast<std::uint64_t>(i % kSub);
    const std::uint64_t width = std::uint64_t{1} << (e - kSubBits);
    const std::uint64_t lo = (kSub + sub) << (e - kSubBits);
    return static_cast<double>(lo) + static_cast<double>(width - 1) / 2.0;
  }
  return 0.0;
}

PeTrace::PeTrace(int n_stats, std::size_t keep_per_stat)
    : keep_per_stat_(keep_per_stat),
      totals_(static_cast<std::size_t>(n_stats)),
      kept_(static_cast<std::size_t>(n_stats), 0) {
  stack_.reserve(8);
}

void PeTrace::open(int stat, const char* name, std::uint32_t group) {
  const auto s = static_cast<std::size_t>(stat);
  std::int32_t kept = -1;
  if (kept_[s] < keep_per_stat_) {
    ++kept_[s];
    kept = static_cast<std::int32_t>(spans_.size());
    SpanRecord rec;
    rec.name = name;
    rec.parent = stack_.empty() ? -1 : stack_.back().kept;
    rec.group = group;
    spans_.push_back(rec);
  }
  const std::int64_t start = now_ns();
  if (kept >= 0) spans_[static_cast<std::size_t>(kept)].start_ns = start;
  stack_.push_back(Open{stat, kept, start, 0});
}

void PeTrace::close(std::uint64_t bytes) {
  const std::int64_t end = now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - o.start_ns;
  StatTotals& t = totals_[static_cast<std::size_t>(o.stat)];
  ++t.calls;
  t.bytes += bytes;
  t.ns += dur;
  t.self_ns += dur - o.child_ns;
  t.hist.record(static_cast<std::uint64_t>(dur));
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (o.kept >= 0) spans_[static_cast<std::size_t>(o.kept)].end_ns = end;
}

Recorder::Recorder(int n_pes, int n_stats, bool enabled) {
  if (!enabled) return;
  constexpr std::size_t kKeepPerStat = 2048;
  pes_.reserve(static_cast<std::size_t>(n_pes));
  for (int r = 0; r < n_pes; ++r) pes_.emplace_back(n_stats, kKeepPerStat);
}

PeTrace* Recorder::pe(int rank) {
  return pes_.empty() ? nullptr : &pes_[static_cast<std::size_t>(rank)];
}

StatTotals Recorder::merged(int stat) const {
  StatTotals out;
  for (const PeTrace& p : pes_) {
    const StatTotals& t = p.totals()[static_cast<std::size_t>(stat)];
    out.calls += t.calls;
    out.bytes += t.bytes;
    out.ns += t.ns;
    out.self_ns += t.self_ns;
    out.hist.merge(t.hist);
  }
  return out;
}

bool Recorder::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = 0;
  for (const PeTrace& p : pes_) {
    for (const SpanRecord& s : p.spans()) {
      if (t0 == 0 || s.start_ns < t0) t0 = s.start_ns;
    }
  }
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  for (std::size_t pe = 0; pe < pes_.size(); ++pe) {
    const std::vector<SpanRecord>& spans = pes_[pe].spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %d, \"group\": %u}}",
                   first ? "" : ",\n", s.name, pe,
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, s.group);
      first = false;
    }
  }
  std::fputs("\n], \"displayTimeUnit\": \"ns\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
