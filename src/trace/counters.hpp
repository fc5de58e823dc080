#pragma once

// CounterRegistry — the machine-wide counter surface.
//
// One queryable, ordered name -> value store that aggregates the statistics
// already kept by the substrates (OLB hit/miss, per-level cache and TLB
// stats, network traffic/phase/stall totals) plus the tracer's own
// bookkeeping. Populated by collect_counters() (trace/collect.hpp) at
// teardown; dumped as an ASCII table or flat JSON object via --counters.
//
// Names are dotted paths ("olb.hits", "cache.l1.misses", "net.stall_cycles")
// so the flat JSON stays grep- and jq-friendly.
//
// Every entry carries a class. Modeled counters describe the simulated
// machine and repeat bit-identically for the same program, seed and fault
// plan; host counters describe the process running the simulation (fiber
// switches, worker naps) and vary with OS scheduling once more than one
// worker runs. json(CounterClass::kModeled) is the snapshot a replay check
// compares; the table and full JSON dumps list both classes.

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace xbgas {

/// What a counter measures: the simulated machine or the host simulator.
enum class CounterClass : std::uint8_t { kModeled, kHost };

class CounterRegistry {
 public:
  /// Set (or overwrite) one counter and its class. Insertion order is
  /// preserved for dumps.
  void set(const std::string& name, std::uint64_t value,
           CounterClass cls = CounterClass::kModeled);

  /// Add to a counter, creating it at zero (modeled) if absent.
  void add(const std::string& name, std::uint64_t delta);

  /// Query one counter by exact name.
  std::optional<std::uint64_t> get(const std::string& name) const;

  /// All counter names, in insertion order.
  std::vector<std::string> names() const;

  std::size_t size() const { return entries_.size(); }

  /// Two-column ASCII table.
  void dump_table(std::FILE* out) const;

  /// Flat JSON object, one key per counter.
  void dump_json(std::FILE* out) const;
  /// The same object as a string; with `only` set, just the counters of that
  /// class (json(CounterClass::kModeled) is the replay-comparable snapshot).
  std::string json(std::optional<CounterClass> only = std::nullopt) const;

 private:
  struct Entry {
    std::string name;
    std::uint64_t value = 0;
    CounterClass cls = CounterClass::kModeled;
  };
  Entry* find(const std::string& name);
  const Entry* find(const std::string& name) const;

  std::vector<Entry> entries_;
};

namespace trace {
/// The ISSUE/docs-facing alias: the observability layer's counter registry.
using Counters = CounterRegistry;
}  // namespace trace

}  // namespace xbgas
