#pragma once

// The benchmark's three workloads. Each repetition builds a fresh Machine,
// runs one fixed, seeded unit of modeled work, and checks every output
// against a host golden. The modeled results of a repetition depend only on
// the workload and the seed; its host timings are what the benchmark
// measures.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RepResult {
  double setup_s = 0.0;  ///< workload start -> start of the timed phase
  double ctor_s = 0.0;   ///< Machine construction alone
  double timed_s = 0.0;  ///< wall time of the timed phase
  double cpu_s = 0.0;    ///< process CPU (user + sys) over the timed phase
  std::uint64_t ops = 0;     ///< modeled operations attempted
  std::uint64_t failed = 0;  ///< of those, failed a correctness gate
  std::vector<std::string> failures;
  /// Deterministic results: identical across repetitions of one seed, in
  /// traced and untraced runs alike.
  std::map<std::string, double> modeled;
  std::uint64_t digest = 0;  ///< FNV-1a of every per-PE modeled clock read
  /// Host-class scheduler counters.
  std::map<std::string, double> host;
  /// Per-layer metrics; filled only by a traced repetition.
  std::map<std::string, double> layers;
};

struct Workload {
  const char* name;
  int pes;
  int workers;  ///< pinned fiber worker count (clamped to nproc)
  RepResult (*run)(std::uint64_t seed, int workers, bool traced,
                   const std::string& spans_path);
  /// Runs the library's own kernel and the benchmark's instrumented copy on
  /// one small configuration and reports any modeled difference (empty:
  /// none). Guards the copy against drifting from src/benchlib.
  std::string (*parity)(int workers);
  /// The modeled_mops the committed bench binary reports for this workload
  /// at seed 0 ("" when there is none).
  const char* committed_mops;
};

const std::vector<Workload>& workloads();

/// Progress marker for a stalled run: one line on stderr, which the runner
/// keeps so a run ended by its wall-clock cap can name where it was stuck.
void phase(const std::string& what);

}  // namespace perfbench
