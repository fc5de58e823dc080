// perfbench_harness — runs one benchmark workload for a time budget.
//
//   perfbench_harness --workload NAME --seed N --seconds S [--trace 0|1]
//                     [--out PREFIX]
//
// Prints, one per line on stdout:
//   FINGERPRINT {...}   host and build the numbers came from
//   PARITY {...}        the instrumented kernel copy still matches src/benchlib
//   REP {...}           one repetition: host timings, modeled results, and
//                       per-layer metrics when the repetition was traced
//   END {...}           peak resident set of the whole process
// and a "PHASE ..." progress line on stderr at every phase change. The
// runner (run.py) turns these into the benchmark's metrics.
//
// Repetitions run until the next one would overrun --seconds, but at least
// three (four when traced, alternating untraced and traced). With --trace 1
// the last traced repetition's spans go to PREFIX.spans.json (Chrome
// trace_event JSON) and its per-layer self-time table to
// PREFIX.self_time.txt.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += json_string(k) + ": " + json_number(v);
  }
  return out + "}";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_rep(int index, bool traced, const perfbench::RepResult& r) {
  std::string failures = "[";
  for (const std::string& f : r.failures) {
    if (failures.size() > 1) failures += ", ";
    failures += json_string(f);
  }
  failures += "]";
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(r.digest));
  std::printf(
      "REP {\"rep\": %d, \"traced\": %s, \"setup_s\": %s, \"ctor_s\": %s, "
      "\"timed_s\": %s, \"cpu_s\": %s, \"ops\": %llu, \"failed\": %llu, "
      "\"failures\": %s, \"digest\": \"%s\", \"modeled\": %s, \"host\": %s, "
      "\"layers\": %s}\n",
      index, traced ? "true" : "false", json_number(r.setup_s).c_str(),
      json_number(r.ctor_s).c_str(), json_number(r.timed_s).c_str(),
      json_number(r.cpu_s).c_str(), static_cast<unsigned long long>(r.ops),
      static_cast<unsigned long long>(r.failed), failures.c_str(), digest,
      json_map(r.modeled).c_str(), json_map(r.host).c_str(),
      json_map(r.layers).c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const xbgas::CliArgs args(argc, argv);
  const std::string name = args.get("workload", "");
  const perfbench::Workload* w = nullptr;
  for (const perfbench::Workload& cand : perfbench::workloads()) {
    if (name == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench_harness: unknown --workload '%s'\n",
                 name.c_str());
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  const std::string out = args.get("out", "");

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const int workers = static_cast<int>(std::min<long>(w->workers, std::max(nproc, 1L)));
  std::printf(
      "FINGERPRINT {\"workload\": %s, \"pes\": %d, \"nproc\": %ld, "
      "\"compiler\": %s, \"build_type\": %s, \"sched_workers\": %d, "
      "\"pinned_workers\": %d, \"seed\": %llu}\n",
      json_string(w->name).c_str(), w->pes, nproc,
      json_string(compiler()).c_str(), json_string(PERFBENCH_BUILD_TYPE).c_str(),
      workers, w->workers, static_cast<unsigned long long>(seed));
  std::fflush(stdout);

  perfbench::phase("parity");
  const std::string drift = w->parity != nullptr ? w->parity(workers) : "";
  std::printf("PARITY {\"ok\": %s, \"detail\": %s, \"committed_mops\": %s}\n",
              drift.empty() ? "true" : "false", json_string(drift).c_str(),
              json_string(w->committed_mops).c_str());
  std::fflush(stdout);

  const int min_reps = trace ? 4 : 3;
  const std::int64_t t_start = perfbench::now_ns();
  for (int rep = 0;; ++rep) {
    const bool traced = trace && rep % 2 == 1;
    perfbench::phase("rep " + std::to_string(rep) + (traced ? " traced" : ""));
    const perfbench::RepResult r =
        w->run(seed, workers, traced, traced ? out : std::string());
    print_rep(rep, traced, r);
    const double elapsed =
        static_cast<double>(perfbench::now_ns() - t_start) / 1e9;
    const double per_rep = elapsed / (rep + 1);
    if (rep + 1 >= min_reps && elapsed + per_rep > seconds) break;
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("END {\"peak_rss_kb\": %ld}\n", ru.ru_maxrss);
  return 0;
}
