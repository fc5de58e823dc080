#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>

#include "benchlib/gups.hpp"
#include "benchlib/nasis.hpp"
#include "benchlib/options.hpp"
#include "collectives/collectives.hpp"
#include "collectives/composed.hpp"
#include "collectives/nbi.hpp"
#include "collectives/policy.hpp"
#include "common/bits.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "spans.hpp"
#include "trace/collect.hpp"
#include "xbrtime/nbi.hpp"
#include "xbrtime/rma.hpp"
#include "xbrtime/runtime.hpp"
#include "xbrtime/wc.hpp"

namespace perfbench {

using namespace xbgas;

void phase(const std::string& what) {
  std::fprintf(stderr, "PHASE %s\n", what.c_str());
}

namespace {

// --- what a traced repetition records -------------------------------------

enum Stat : int {
  kPhase,  // a kernel phase; its self time is the kernels' own host work
  kMalloc,
  kBarrier,
  kAmo,
  kPut,
  kBcastSmall,
  kBcastLarge,
  kAllreduceSmall,
  kAllreduceLarge,
  kAllreduceNbiLarge,
  kFcollectSmall,
  kAlltoallSmall,
  kStatCount
};
constexpr int kCollFirst = kBcastSmall;

constexpr const char* kStatName[kStatCount] = {
    "benchlib",
    "memory.malloc",
    "machine.barrier",
    "xbrtime.amo",
    "xbrtime.put",
    "coll.broadcast.small",
    "coll.broadcast.large",
    "coll.reduce_all.small",
    "coll.reduce_all.large",
    "coll.reduce_all_nbi.large",
    "coll.fcollect.small",
    "coll.alltoall.small",
};

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

struct Stamp {
  std::int64_t wall_ns = 0;
  double cpu_s = 0.0;
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Everything one repetition measures besides the kernel's own result:
/// per-PE host stamps at the timed-phase boundaries, every collective call's
/// modeled cycles on every PE, and (traced runs only) the span recorder.
/// Each PE writes only its own slots.
class Probe {
 public:
  Probe(int n_pes, bool traced)
      : rec(n_pes, kStatCount, traced),
        begin_(static_cast<std::size_t>(n_pes)),
        end_(static_cast<std::size_t>(n_pes)),
        calls_(static_cast<std::size_t>(n_pes)) {}

  PeTrace* trace(int rank) { return rec.pe(rank); }

  /// Called by every PE right after the barrier that opens / closes the
  /// timed phase. The earliest PE out of each barrier marks the boundary:
  /// at that moment every PE has arrived.
  void mark_begin(int rank) { begin_[idx(rank)] = {now_ns(), process_cpu_s()}; }
  void mark_end(int rank) { end_[idx(rank)] = {now_ns(), process_cpu_s()}; }

  /// Run one collective call as `rank`, timing it as `stat` and recording
  /// the modeled cycles it took on this PE.
  template <class F>
  void coll(PeContext& pe, int stat, std::uint32_t call, F&& f) {
    const std::uint64_t c0 = pe.clock().cycles();
    {
      Scope s(trace(pe.rank()), stat, kStatName[stat], call);
      f();
    }
    calls_[idx(pe.rank())].push_back({stat, pe.clock().cycles() - c0});
  }

  /// Fill the timing, modeled and host fields of `r` from the quiescent
  /// machine. `t_start` is the host time the repetition began.
  void finish(Machine& machine, std::int64_t t_start, RepResult& r) const;

  Recorder rec;

 private:
  struct Call {
    int stat;
    std::uint64_t cycles;
  };
  static std::size_t idx(int rank) { return static_cast<std::size_t>(rank); }

  std::vector<Stamp> begin_;
  std::vector<Stamp> end_;
  std::vector<std::vector<Call>> calls_;
};

/// Nearest-rank quantile of a sorted sample.
double exact_quantile(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size()));
  if (static_cast<double>(rank) < q * static_cast<double>(sorted.size())) ++rank;
  return static_cast<double>(sorted[std::max<std::size_t>(rank, 1) - 1]);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

void Probe::finish(Machine& machine, std::int64_t t_start,
                   RepResult& r) const {
  const auto earliest = [](const std::vector<Stamp>& v) {
    return *std::min_element(v.begin(), v.end(), [](const Stamp& a, const Stamp& b) {
      return a.wall_ns < b.wall_ns;
    });
  };
  const Stamp b = earliest(begin_);
  const Stamp e = earliest(end_);
  r.setup_s = static_cast<double>(b.wall_ns - t_start) / 1e9;
  r.timed_s = static_cast<double>(e.wall_ns - b.wall_ns) / 1e9;
  r.cpu_s = e.cpu_s - b.cpu_s;

  // Modeled: the counter registry's simulated-machine counters plus the
  // process-wide dispatch and pipeline ledgers (reset before each run).
  const CounterRegistry counters = collect_counters(machine);
  const auto counter = [&](const std::string& name) {
    return static_cast<double>(counters.get(name).value_or(0));
  };
  for (const std::string& name : counters.names()) {
    if (name.rfind("net.", 0) == 0 || name.rfind("olb.", 0) == 0 ||
        name.rfind("cache.", 0) == 0 || name == "cycles.max" ||
        name == "rma.retries" || name == "amo.retries") {
      r.modeled[name] = counter(name);
    }
  }
  const CollDispatchCounts dispatch = coll_dispatch_counts();
  for (int a = 1; a < kCollAlgoCount; ++a) {
    r.modeled[std::string("coll.algo.") +
              coll_algo_name(static_cast<CollAlgo>(a))] =
        static_cast<double>(dispatch.by_algo[a]);
  }
  r.modeled["coll.pipeline.chunks"] =
      static_cast<double>(coll_pipeline_counters().chunks);

  // Per call: the modeled cycles of the slowest PE.
  std::vector<std::vector<std::uint64_t>> per_stat(kStatCount);
  const std::vector<Call>& ref = calls_[0];
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (const auto& pe_calls : calls_) {
    if (pe_calls.size() != ref.size()) {
      r.failures.push_back("PEs disagree on the number of collective calls");
      break;
    }
  }
  for (std::size_t c = 0; c < ref.size(); ++c) {
    std::uint64_t worst = 0;
    for (const auto& pe_calls : calls_) {
      if (c >= pe_calls.size()) continue;
      worst = std::max(worst, pe_calls[c].cycles);
      digest = fnv1a(digest, pe_calls[c].cycles);
    }
    per_stat[static_cast<std::size_t>(ref[c].stat)].push_back(worst);
  }
  for (int rank = 0; rank < machine.n_pes(); ++rank) {
    digest = fnv1a(digest, machine.pe(rank).clock().cycles());
  }
  r.digest = digest;
  for (int s = kCollFirst; s < kStatCount; ++s) {
    std::vector<std::uint64_t>& v = per_stat[static_cast<std::size_t>(s)];
    std::sort(v.begin(), v.end());
    const std::string base = kStatName[s];
    r.modeled[base + ".calls"] = static_cast<double>(v.size());
    r.modeled[base + ".cycles_p50"] = exact_quantile(v, 0.5);
    r.modeled[base + ".cycles_p90"] = exact_quantile(v, 0.9);
  }

  for (const char* name : {"sched.switches", "sched.yields_waiting",
                           "sched.naps", "sched.workers"}) {
    r.host[name] = counter(name);
  }

  if (!rec.enabled()) return;
  // Per-layer metrics of a traced repetition. Per-PE call counts are
  // summed over PEs, except barriers and collectives, which count logical
  // calls (every PE makes each one).
  std::map<std::string, double>& L = r.layers;
  const double n = machine.n_pes();
  L["machine.ctor_s"] = r.ctor_s;
  const StatTotals barrier = rec.merged(kBarrier);
  L["machine.barrier.calls"] = static_cast<double>(barrier.calls) / n;
  L["machine.barrier.host_us_p50"] = barrier.hist.quantile(0.5) / 1e3;
  L["machine.barrier.host_us_p90"] = barrier.hist.quantile(0.9) / 1e3;
  for (const char* name : {"sched.switches", "sched.yields_waiting", "sched.naps"}) {
    L[name] = r.host[name];
  }
  const StatTotals malloc_t = rec.merged(kMalloc);
  L["memory.malloc.calls"] = static_cast<double>(malloc_t.calls);
  L["memory.malloc.host_s"] = static_cast<double>(malloc_t.ns) / 1e9;
  const StatTotals amo = rec.merged(kAmo);
  L["xbrtime.amo.calls"] = static_cast<double>(amo.calls);
  L["xbrtime.amo.host_ns_p50"] = amo.hist.quantile(0.5);
  L["xbrtime.amo.self_s"] = static_cast<double>(amo.self_ns) / 1e9;
  const StatTotals put = rec.merged(kPut);
  L["xbrtime.put.calls"] = static_cast<double>(put.calls);
  L["xbrtime.put.bytes"] = static_cast<double>(put.bytes);
  L["xbrtime.put.host_s"] = static_cast<double>(put.ns) / 1e9;
  for (const char* name : {"rma.retries", "amo.retries", "net.messages",
                           "net.bytes", "net.hops", "net.stall_cycles",
                           "olb.lookups", "olb.misses", "cache.l1.accesses",
                           "cache.l2.accesses", "cache.tlb.accesses",
                           "coll.algo.tree", "coll.algo.ring",
                           "coll.algo.hier", "coll.pipeline.chunks"}) {
    L[name] = r.modeled.at(name);
  }
  for (const char* level : {"l1", "l2", "tlb"}) {
    const std::string p = std::string("cache.") + level;
    L[p + ".hit_ratio"] =
        ratio(counters.get(p + ".hits").value_or(0),
              counters.get(p + ".accesses").value_or(0));
  }
  for (int s = kCollFirst; s < kStatCount; ++s) {
    const std::string base = kStatName[s];
    const StatTotals t = rec.merged(s);
    for (const char* f : {".calls", ".cycles_p50", ".cycles_p90"}) {
      L[base + f] = r.modeled.at(base + f);
    }
    L[base + ".host_us_p50"] = t.hist.quantile(0.5) / 1e3;
    L[base + ".host_us_p90"] = t.hist.quantile(0.9) / 1e3;
  }
  L["benchlib.self_s"] = static_cast<double>(rec.merged(kPhase).self_ns) / 1e9;
}

/// Per-layer self-time table of a traced repetition: each stat's summed
/// span time minus the time its child spans cover, summed over PEs.
void write_self_table(const Recorder& rec, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw Error("cannot write " + path);
  std::fprintf(f, "%-28s %12s %14s %14s\n", "span", "calls", "total_s", "self_s");
  for (int s = 0; s < kStatCount; ++s) {
    const StatTotals t = rec.merged(s);
    if (t.calls == 0) continue;
    std::fprintf(f, "%-28s %12llu %14.6f %14.6f\n",
                 kStatName[s],
                 static_cast<unsigned long long>(t.calls),
                 static_cast<double>(t.ns) / 1e9,
                 static_cast<double>(t.self_ns) / 1e9);
  }
  std::fclose(f);
}

/// The configuration the repository's bench binaries use at their defaults,
/// so a workload measures what bench_fig4_gups / bench_fig5_is report.
MachineConfig default_machine_config(int n_pes, int workers, bool traced) {
  const char* argv0[] = {"perfbench"};
  MachineConfig config = machine_config_from_cli(CliArgs(1, argv0), n_pes);
  config.sched.workers = workers;
  // The traced run also switches on the simulator's own event rings, so
  // trace.overhead_ratio covers the trace layer as well.
  config.trace.enabled = traced;
  return config;
}

void reset_process_counters() {
  reset_coll_dispatch_counts();
  reset_coll_pipeline_counters();
  reset_coll_tuner_counters();
  reset_rma_nbi_counters();
  reset_wc_counters();
}

/// Shared frame of one repetition: process-wide counters reset, the
/// Machine built and timed, the kernel run, the probe folded in, the spans
/// written. A region that throws fails every operation of the repetition.
template <class Kernel>
RepResult run_rep(const MachineConfig& config, bool traced,
                  const std::string& spans_path, Kernel&& kernel) {
  RepResult r;
  reset_process_counters();
  phase("setup");
  const std::int64_t t_start = now_ns();
  Machine machine(config);
  r.ctor_s = static_cast<double>(now_ns() - t_start) / 1e9;
  Probe probe(config.n_pes, traced);
  try {
    kernel(machine, probe, r);
  } catch (const std::exception& ex) {
    r.failures.push_back(std::string("SPMD region failed: ") + ex.what());
    r.failed = r.ops;
    return r;
  }
  probe.finish(machine, t_start, r);
  if (!r.failures.empty()) r.failed = std::max<std::uint64_t>(r.failed, 1);
  r.failed = std::min(r.failed, r.ops);
  if (traced && !spans_path.empty()) {
    if (!probe.rec.write_chrome(spans_path + ".spans.json")) {
      throw Error("cannot write " + spans_path + ".spans.json");
    }
    write_self_table(probe.rec, spans_path + ".self_time.txt");
  }
  return r;
}

// --- fig4-gups-8pe ----------------------------------------------------------

// Must equal the constant in src/benchlib/gups.cpp; the parity check fails
// if it drifts.
constexpr std::uint64_t kUpdateComputeCycles = 300;

struct GupsOut {
  std::uint64_t total_updates = 0;
  std::uint64_t cycles = 0;
  std::uint64_t errors = 0;
};

/// run_gups (src/benchlib/gups.cpp) with spans around the layer calls, the
/// timed-phase stamps, and the update stream starting at `stream_base`
/// instead of 0. At stream_base 0 it performs exactly run_gups's modeled
/// work; parity_gups checks that.
GupsOut gups_kernel(Machine& machine, const GupsConfig& config,
                    std::uint64_t stream_base, Probe& probe) {
  const int n = machine.n_pes();
  const std::uint64_t total_entries = std::uint64_t{1}
                                      << config.log2_table_entries;
  const std::uint64_t local_entries =
      total_entries / static_cast<std::uint64_t>(n);
  XBGAS_CHECK(total_entries % static_cast<std::uint64_t>(n) == 0 &&
                  is_pow2(local_entries),
              "GUPs table must split into 2^k words per PE");
  const unsigned local_shift = floor_log2(local_entries);

  machine.reset_time_and_stats();
  const std::uint64_t updates_per_pe =
      config.updates_per_pe != 0
          ? config.updates_per_pe
          : 4 * total_entries / static_cast<std::uint64_t>(n);

  GupsOut out;
  out.total_updates = updates_per_pe * static_cast<std::uint64_t>(n);

  machine.run([&](PeContext& pe) {
    xbrtime_init();
    const int me = pe.rank();
    PeTrace* tr = probe.trace(me);
    const auto sym_alloc = [&](std::size_t bytes) {
      Scope s(tr, kMalloc, kStatName[kMalloc]);
      return xbrtime_malloc(bytes);
    };

    auto* table = static_cast<std::uint64_t*>(
        sym_alloc(local_entries * sizeof(std::uint64_t)));
    XBGAS_CHECK(table != nullptr, "GUPs table allocation failed");
    for (std::uint64_t i = 0; i < local_entries; ++i) {
      table[i] = static_cast<std::uint64_t>(me) * local_entries + i;
    }

    auto* params =
        static_cast<std::uint64_t*>(sym_alloc(2 * sizeof(std::uint64_t)));
    std::uint64_t src_params[2] = {updates_per_pe, total_entries};
    broadcast(params, src_params, 2, 1, /*root=*/0);
    const std::uint64_t updates = params[0];
    const std::uint64_t index_mask = params[1] - 1;

    auto apply_stream = [&](bool timed) {
      PeTrace* t = timed ? tr : nullptr;
      GupsStream stream = GupsStream::at(static_cast<std::int64_t>(
          stream_base + static_cast<std::uint64_t>(me) * updates));
      for (std::uint64_t u = 0; u < updates; ++u) {
        const std::uint64_t ran = stream.next();
        const std::uint64_t g = ran & index_mask;
        const int owner = static_cast<int>(g >> local_shift);
        const std::uint64_t offset = g & (local_entries - 1);
        pe.clock().advance(kUpdateComputeCycles);
        Scope s(t, kAmo, kStatName[kAmo], 1);
        xbr_amo_xor(table + offset, ran, owner);
      }
    };

    // --- timed update phase -------------------------------------------
    xbrtime_barrier();
    probe.mark_begin(me);
    if (me == 0) phase("timed");
    const std::uint64_t t0 = pe.clock().cycles();
    {
      Scope s(tr, kPhase, "gups.update", 1);
      apply_stream(true);
    }
    {
      Scope s(tr, kBarrier, kStatName[kBarrier], 1);
      xbrtime_barrier();
    }
    const std::uint64_t t1 = pe.clock().cycles();
    probe.mark_end(me);
    if (me == 0) {
      out.cycles = t1 - t0;
      phase("verify");
    }

    // --- verification (untimed), as run_gups ---------------------------
    std::uint64_t errors = 0;
    if (config.verify) {
      apply_stream(false);
      xbrtime_barrier();
      for (std::uint64_t i = 0; i < local_entries; ++i) {
        if (table[i] != static_cast<std::uint64_t>(me) * local_entries + i) {
          ++errors;
        }
      }
    }
    auto* err_buf =
        static_cast<std::uint64_t*>(xbrtime_malloc(sizeof(std::uint64_t)));
    *err_buf = errors;
    auto* err_sum =
        static_cast<std::uint64_t*>(xbrtime_malloc(sizeof(std::uint64_t)));
    reduce_all<OpSum>(err_sum, err_buf, 1, 1);
    if (me == 0) out.errors = *err_sum;

    xbrtime_free(err_sum);
    xbrtime_free(err_buf);
    xbrtime_free(params);
    xbrtime_free(table);
    xbrtime_close();
  });
  return out;
}

double mops(std::uint64_t ops, std::uint64_t cycles) {
  return cycles == 0 ? 0.0
                     : static_cast<double>(ops) /
                           (static_cast<double>(cycles) / SimClock::kDefaultHz) /
                           1e6;
}

RepResult run_gups_rep(std::uint64_t seed, int workers, bool traced,
                       const std::string& spans_path) {
  const MachineConfig config = default_machine_config(8, workers, traced);
  GupsConfig gc;  // 2^21 words, 4x coverage, verification on
  return run_rep(config, traced, spans_path,
                 [&](Machine& machine, Probe& probe, RepResult& r) {
    // Seed s starts the HPCC stream at its (s * total updates)-th element:
    // disjoint stream segments per seed, seed 0 the canonical stream.
    const std::uint64_t total = 4 * (std::uint64_t{1} << gc.log2_table_entries);
    r.ops = total;
    const GupsOut g = gups_kernel(machine, gc, seed * total, probe);
    r.failed = g.errors;
    if (g.errors != 0) {
      r.failures.push_back("GUPs verification: " + std::to_string(g.errors) +
                           " table words wrong");
    }
    r.modeled["cycles"] = static_cast<double>(g.cycles);
    r.modeled["modeled_mops"] = mops(g.total_updates, g.cycles);
    r.modeled["gups.errors"] = static_cast<double>(g.errors);
  });
}

/// A small machine for the parity checks: the library kernel and the copy
/// only have to agree with each other.
MachineConfig parity_machine_config(int workers) {
  MachineConfig config = default_machine_config(8, workers, false);
  config.layout.shared_bytes = std::size_t{4} << 20;
  config.layout.private_bytes = std::size_t{1} << 20;
  return config;
}

std::string parity_gups(int workers) {
  const MachineConfig config = parity_machine_config(workers);
  GupsConfig gc;
  gc.log2_table_entries = 16;
  GupsResult lib;
  {
    Machine machine(config);
    lib = run_gups(machine, gc);
  }
  reset_process_counters();
  Machine copy_machine(config);
  Probe probe(config.n_pes, false);
  const GupsOut copy = gups_kernel(copy_machine, gc, 0, probe);
  if (lib.cycles != copy.cycles || lib.errors != copy.errors ||
      lib.total_updates != copy.total_updates) {
    return "GUPs parity: copy " + std::to_string(copy.cycles) + " cycles, " +
           std::to_string(copy.errors) + " errors; run_gups " +
           std::to_string(lib.cycles) + " cycles, " +
           std::to_string(lib.errors) + " errors";
  }
  return "";
}

// --- fig5-is-b-8pe ----------------------------------------------------------

// Must equal the constants in src/benchlib/nasis.cpp; the parity check
// fails if they drift.
constexpr int kNumBuckets = 1024;
constexpr std::uint64_t kPerKeyComputeCycles = 8;

/// Host-side record of one PE's ranking in one iteration: the count and a
/// multiset hash of the keys it ranked, and its key range.
struct RankCheck {
  std::uint64_t count = 0;
  std::uint64_t hash = 0;
  std::int32_t lo = 0;
  std::int32_t hi = 0;
};

std::uint64_t key_hash(std::int32_t k) {
  return SplitMix64(static_cast<std::uint64_t>(k)).next();
}

struct IsOut {
  std::uint64_t total_keys = 0;
  std::uint64_t cycles = 0;
  bool verified = false;
  std::vector<std::string> bad_iterations;  ///< host-golden failures
};

/// run_is (src/benchlib/nasis.cpp) with spans around the layer calls, the
/// timed-phase stamps, a host-golden check of every iteration's ranking,
/// and the key stream starting `key_skip` randlc steps past the NAS seed.
/// At key_skip 0 it performs exactly run_is's modeled work; parity_is
/// checks that.
IsOut is_kernel(Machine& machine, const IsConfig& config,
                std::int64_t key_skip, Probe& probe) {
  const int n = machine.n_pes();
  const auto params = is_class_params(config.cls);
  XBGAS_CHECK(params.total_keys % static_cast<std::uint64_t>(n) == 0,
              "total keys must divide evenly across PEs");
  const std::size_t kpp = static_cast<std::size_t>(
      params.total_keys / static_cast<std::uint64_t>(n));
  const std::size_t recv_cap = 2 * kpp + kNumBuckets;
  const std::int32_t max_key = params.max_key;
  const std::int32_t bucket_width = max_key / kNumBuckets;
  const auto un = static_cast<std::size_t>(n);
  const auto iters = static_cast<std::size_t>(config.iterations);

  machine.reset_time_and_stats();

  IsOut out;
  out.total_keys = params.total_keys;
  std::vector<std::uint64_t> generated_hash(un, 0);
  std::vector<RankCheck> checks(iters * un);

  machine.run([&](PeContext& pe) {
    xbrtime_init();
    const int me = pe.rank();
    PeTrace* tr = probe.trace(me);
    const auto sym_alloc = [&](std::size_t bytes) {
      Scope s(tr, kMalloc, kStatName[kMalloc]);
      return xbrtime_malloc(bytes);
    };

    // --- key generation (NAS create_seq, this PE's slice) --------------
    std::vector<std::int32_t> keys(kpp);
    {
      const double seed = NasRandlc::skip_ahead(
          NasRandlc::kDefaultSeed, NasRandlc::kA,
          key_skip + static_cast<std::int64_t>(4 * kpp) * me);
      NasRandlc rng(seed);
      const double k4 = static_cast<double>(max_key) / 4.0;
      std::uint64_t h = 0;
      for (auto& k : keys) {
        const double x = rng.next() + rng.next() + rng.next() + rng.next();
        k = static_cast<std::int32_t>(k4 * x);
        h += key_hash(k);
      }
      generated_hash[static_cast<std::size_t>(me)] = h;
    }

    auto* l_counts = static_cast<std::int64_t*>(
        sym_alloc(kNumBuckets * sizeof(std::int64_t)));
    auto* g_counts = static_cast<std::int64_t*>(
        sym_alloc(kNumBuckets * sizeof(std::int64_t)));
    auto* send_cnt =
        static_cast<std::int32_t*>(sym_alloc(un * sizeof(std::int32_t)));
    auto* recv_cnt =
        static_cast<std::int32_t*>(sym_alloc(un * sizeof(std::int32_t)));
    auto* off_msg =
        static_cast<std::int32_t*>(sym_alloc(un * sizeof(std::int32_t)));
    auto* put_off =
        static_cast<std::int32_t*>(sym_alloc(un * sizeof(std::int32_t)));
    auto* recv_buf = static_cast<std::int32_t*>(
        sym_alloc(recv_cap * sizeof(std::int32_t)));
    XBGAS_CHECK(recv_buf != nullptr, "IS allocation failed");

    std::vector<std::int32_t> send_buf(kpp);
    std::vector<std::size_t> send_disp(un + 1);
    std::vector<int> bucket_owner(kNumBuckets);
    std::size_t recv_total = 0;
    std::int32_t my_lo = 0, my_hi = 0;

    auto one_iteration = [&](std::size_t it) {
      const auto call = static_cast<std::uint32_t>(it);
      Scope iteration(tr, kPhase, "is.iteration", call);
      // (1) local histogram.
      std::fill(l_counts, l_counts + kNumBuckets, 0);
      for (const auto k : keys) ++l_counts[k / bucket_width];
      pe.clock().advance(kPerKeyComputeCycles * kpp);

      // (2) global bucket distribution via reduce-to-all.
      probe.coll(pe, kAllreduceLarge, call, [&] {
        reduce_all<OpSum>(g_counts, l_counts, kNumBuckets, 1);
      });

      // (3) balanced contiguous bucket->PE assignment.
      {
        const auto target = static_cast<std::int64_t>(params.total_keys) / n;
        std::int64_t acc = 0;
        int owner = 0;
        for (int b = 0; b < kNumBuckets; ++b) {
          if (acc >= static_cast<std::int64_t>(owner + 1) * target &&
              owner < n - 1) {
            ++owner;
          }
          bucket_owner[static_cast<std::size_t>(b)] = owner;
          acc += g_counts[b];
        }
        pe.clock().advance(kNumBuckets);
      }

      // (4) group keys by destination and exchange counts/offsets.
      {
        std::vector<std::size_t> fill(un, 0);
        std::fill(send_cnt, send_cnt + un, 0);
        for (const auto k : keys) {
          ++send_cnt[bucket_owner[static_cast<std::size_t>(k / bucket_width)]];
        }
        send_disp[0] = 0;
        for (std::size_t d = 0; d < un; ++d) {
          send_disp[d + 1] =
              send_disp[d] + static_cast<std::size_t>(send_cnt[d]);
        }
        for (const auto k : keys) {
          const auto d = static_cast<std::size_t>(
              bucket_owner[static_cast<std::size_t>(k / bucket_width)]);
          send_buf[send_disp[d] + fill[d]++] = k;
        }
        pe.clock().advance(kPerKeyComputeCycles * kpp);
      }

      probe.coll(pe, kAlltoallSmall, call,
                 [&] { alltoall(recv_cnt, send_cnt, 1); });
      {
        std::int32_t off = 0;
        for (std::size_t s = 0; s < un; ++s) {
          off_msg[s] = off;
          off += recv_cnt[s];
        }
        recv_total = static_cast<std::size_t>(off);
        XBGAS_CHECK(recv_total <= recv_cap,
                    "IS receive buffer overflow - key distribution too skewed");
      }
      probe.coll(pe, kAlltoallSmall, call,
                 [&] { alltoall(put_off, off_msg, 1); });

      // (5) one-sided key exchange.
      for (std::size_t d = 0; d < un; ++d) {
        const auto cnt = static_cast<std::size_t>(send_cnt[d]);
        if (cnt > 0) {
          Scope s(tr, kPut, kStatName[kPut], call, cnt * sizeof(std::int32_t));
          xbr_put(recv_buf + put_off[d], send_buf.data() + send_disp[d], cnt,
                  1, static_cast<int>(d));
        }
      }
      {
        Scope s(tr, kBarrier, kStatName[kBarrier], call);
        xbrtime_barrier();
      }

      // (6) local ranking: counting sort over this PE's key range.
      {
        my_lo = max_key;
        my_hi = 0;
        for (int b = 0; b < kNumBuckets; ++b) {
          if (bucket_owner[static_cast<std::size_t>(b)] == me) {
            my_lo = std::min(my_lo, b * bucket_width);
            my_hi = std::max(my_hi, (b + 1) * bucket_width);
          }
        }
        if (my_lo >= my_hi) my_lo = my_hi = 0;
        const auto range = static_cast<std::size_t>(my_hi - my_lo);
        std::vector<std::int32_t> rank_cnt(range + 1, 0);
        for (std::size_t i = 0; i < recv_total; ++i) {
          // A key outside this PE's range is a wrong result, not an index.
          // Skipping it leaves the golden count short, so the iteration
          // fails instead of writing out of bounds.
          const std::int32_t k = recv_buf[i];
          if (k >= my_lo && k < my_hi) {
            ++rank_cnt[static_cast<std::size_t>(k - my_lo)];
          }
        }
        for (std::size_t r = 1; r < rank_cnt.size(); ++r) {
          rank_cnt[r] = static_cast<std::int32_t>(rank_cnt[r] + rank_cnt[r - 1]);
        }
        pe.clock().advance(kPerKeyComputeCycles * (recv_total + range));

        // Host golden (no modeled cost): the ranked multiset, read back
        // from the prefix counts in O(range).
        RankCheck& c = checks[it * un + static_cast<std::size_t>(me)];
        c.count = range == 0 ? 0 : static_cast<std::uint64_t>(rank_cnt[range - 1]);
        c.lo = my_lo;
        c.hi = my_hi;
        std::int32_t prev = 0;
        for (std::size_t i = 0; i < range; ++i) {
          const std::int32_t mult = rank_cnt[i] - prev;
          prev = rank_cnt[i];
          if (mult != 0) {
            c.hash += static_cast<std::uint64_t>(mult) *
                      key_hash(my_lo + static_cast<std::int32_t>(i));
          }
        }
      }
    };

    // --- timed iterations ----------------------------------------------
    xbrtime_barrier();
    probe.mark_begin(me);
    const std::uint64_t t0 = pe.clock().cycles();
    for (std::size_t it = 0; it < iters; ++it) {
      if (me == 0) phase("timed iteration " + std::to_string(it));
      one_iteration(it);
    }
    {
      Scope s(tr, kBarrier, kStatName[kBarrier], static_cast<std::uint32_t>(iters));
      xbrtime_barrier();
    }
    const std::uint64_t t1 = pe.clock().cycles();
    probe.mark_end(me);
    if (me == 0) {
      out.cycles = t1 - t0;
      phase("verify");
    }

    // --- verification (untimed), as run_is ------------------------------
    auto* minmax = static_cast<std::int32_t*>(
        xbrtime_malloc(2 * un * sizeof(std::int32_t)));
    std::int32_t mm[2] = {my_lo, my_hi};
    fcollect(minmax, mm, 2);
    auto* conserve =
        static_cast<std::int64_t*>(xbrtime_malloc(sizeof(std::int64_t)));
    auto* conserve_sum =
        static_cast<std::int64_t*>(xbrtime_malloc(sizeof(std::int64_t)));
    *conserve = static_cast<std::int64_t>(recv_total);
    reduce_all<OpSum>(conserve_sum, conserve, 1, 1);

    bool ok = *conserve_sum == static_cast<std::int64_t>(params.total_keys);
    for (std::size_t r = 0; r + 1 < un; ++r) {
      if (minmax[2 * r + 1] > minmax[2 * (r + 1)]) ok = false;
    }
    if (me == 0) out.verified = ok;

    xbrtime_free(conserve_sum);
    xbrtime_free(conserve);
    xbrtime_free(minmax);
    xbrtime_free(recv_buf);
    xbrtime_free(put_off);
    xbrtime_free(off_msg);
    xbrtime_free(recv_cnt);
    xbrtime_free(send_cnt);
    xbrtime_free(g_counts);
    xbrtime_free(l_counts);
    xbrtime_close();
  });

  // Every iteration must rank exactly the generated multiset, split into
  // ascending, non-overlapping key ranges.
  std::uint64_t want_hash = 0;
  for (const std::uint64_t h : generated_hash) want_hash += h;
  for (std::size_t it = 0; it < iters; ++it) {
    std::uint64_t count = 0, hash = 0;
    std::int32_t prev_hi = 0;
    bool ordered = true;
    for (std::size_t r = 0; r < un; ++r) {
      const RankCheck& c = checks[it * un + r];
      count += c.count;
      hash += c.hash;
      if (c.hi > c.lo) {
        if (c.lo < prev_hi) ordered = false;
        prev_hi = c.hi;
      }
    }
    if (count != params.total_keys || hash != want_hash || !ordered) {
      out.bad_iterations.push_back("IS iteration " + std::to_string(it) +
                                   " ranked a wrong key set");
    }
  }
  return out;
}

RepResult run_is_rep(std::uint64_t seed, int workers, bool traced,
                     const std::string& spans_path) {
  IsConfig ic;  // the paper's class B, 10 iterations
  ic.cls = IsClass::kB;
  ic.iterations = 10;
  MachineConfig config = default_machine_config(8, workers, traced);
  config.layout.shared_bytes = std::max(config.layout.shared_bytes,
                                        is_shared_bytes_needed(ic.cls, 8));
  return run_rep(config, traced, spans_path,
                 [&](Machine& machine, Probe& probe, RepResult& r) {
    const std::uint64_t keys = is_class_params(ic.cls).total_keys;
    const auto iters = static_cast<std::uint64_t>(ic.iterations);
    r.ops = keys * iters;
    // Seed s starts the key stream 4 * s * total_keys randlc steps in:
    // disjoint key sets per seed, seed 0 the NAS key set.
    const IsOut o = is_kernel(
        machine, ic, static_cast<std::int64_t>(4 * keys * seed), probe);
    for (const std::string& bad : o.bad_iterations) {
      r.failures.push_back(bad);
      r.failed += keys;
    }
    if (!o.verified) {
      r.failures.push_back("IS end-of-run verification failed");
      r.failed = r.ops;
    }
    r.modeled["cycles"] = static_cast<double>(o.cycles);
    r.modeled["modeled_mops"] = mops(keys * iters, o.cycles);
    r.modeled["is.verified"] = o.verified ? 1.0 : 0.0;
  });
}

std::string parity_is(int workers) {
  IsConfig ic;
  ic.cls = IsClass::kS;
  ic.iterations = 3;
  const MachineConfig config = parity_machine_config(workers);
  IsResult lib;
  {
    Machine machine(config);
    lib = run_is(machine, ic);
  }
  reset_process_counters();
  Machine copy_machine(config);
  Probe probe(config.n_pes, false);
  const IsOut copy = is_kernel(copy_machine, ic, 0, probe);
  if (lib.cycles != copy.cycles || lib.verified != copy.verified ||
      !copy.bad_iterations.empty()) {
    return "IS parity: copy " + std::to_string(copy.cycles) + " cycles, " +
           (copy.verified ? "verified" : "unverified") + ", " +
           std::to_string(copy.bad_iterations.size()) +
           " bad iterations; run_is " + std::to_string(lib.cycles) +
           " cycles, " + (lib.verified ? "verified" : "unverified");
  }
  return "";
}

// --- coll-mix-64pe ----------------------------------------------------------

constexpr int kMixPes = 64;
constexpr std::size_t kLarge = 8192;  // 64 KiB of int64
constexpr int kMixRounds = 6;
constexpr std::uint64_t kMixOpsPerRound = 7;

RepResult run_collmix_rep(std::uint64_t seed, int workers, bool traced,
                          const std::string& spans_path) {
  MachineConfig config = default_machine_config(kMixPes, workers, traced);
  config.topology_name = "cluster4x8_16x64";
  // 64 KiB payloads need far less than the 64 MiB default segment.
  config.layout.shared_bytes = std::size_t{2} << 20;
  config.layout.private_bytes = std::size_t{256} << 10;

  return run_rep(config, traced, spans_path,
                 [&](Machine& machine, Probe& probe, RepResult& r) {
    r.ops = kMixRounds * kMixOpsPerRound;
    // Inputs from the seed: every PE's 64 KiB payload, and a broadcast
    // root per round. Round k adds k to every element, so no result can be
    // left over from an earlier round.
    std::vector<std::vector<std::int64_t>> base(kMixPes,
                                                std::vector<std::int64_t>(kLarge));
    SplitMix64 rng(seed ^ 0x636f6c6c6d6978ull);
    for (auto& v : base) {
      for (auto& x : v) x = static_cast<std::int64_t>(rng.next() >> 8);
    }
    std::vector<int> roots(kMixRounds);
    for (int& root : roots) root = static_cast<int>(rng.next() % kMixPes);
    std::vector<std::int64_t> sum(kLarge, 0);
    for (const auto& v : base) {
      for (std::size_t i = 0; i < kLarge; ++i) sum[i] += v[i];
    }
    // One flag per (round, PE, op); a call fails when any PE's result is
    // wrong. Op 6, the barrier, has no result to check.
    std::vector<std::uint8_t> bad(static_cast<std::size_t>(kMixPes * kMixRounds) *
                                  kMixOpsPerRound, 0);

    std::uint64_t cycles = 0;
    machine.reset_time_and_stats();
    machine.run([&](PeContext& pe) {
      xbrtime_init();
      const int me = pe.rank();
      PeTrace* tr = probe.trace(me);
      const auto sym = [&](std::size_t elems) {
        Scope s(tr, kMalloc, kStatName[kMalloc]);
        auto* p = static_cast<std::int64_t*>(xbrtime_malloc(elems * sizeof(std::int64_t)));
        XBGAS_CHECK(p != nullptr, "coll-mix allocation failed");
        return p;
      };
      std::int64_t* src_l = sym(kLarge);
      std::int64_t* src_s = sym(1);
      std::int64_t* bcast_s = sym(1);
      std::int64_t* bcast_l = sym(kLarge);
      std::int64_t* ar_s = sym(1);
      std::int64_t* ar_l = sym(kLarge);
      std::int64_t* nbi_l = sym(kLarge);
      std::int64_t* fc = sym(kMixPes);
      const std::vector<std::int64_t>& mine = base[static_cast<std::size_t>(me)];

      xbrtime_barrier();
      probe.mark_begin(me);
      const std::uint64_t t0 = pe.clock().cycles();
      for (int round = 0; round < kMixRounds; ++round) {
        if (me == 0) phase("timed round " + std::to_string(round));
        const auto call = static_cast<std::uint32_t>(round);
        const std::int64_t salt = round;
        const int root = roots[static_cast<std::size_t>(round)];
        const std::vector<std::int64_t>& from_root =
            base[static_cast<std::size_t>(root)];
        Scope round_span(tr, kPhase, "collmix.round", call);
        std::uint8_t* fail =
            &bad[(static_cast<std::size_t>(round) * kMixPes +
                  static_cast<std::size_t>(me)) * kMixOpsPerRound];
        const auto check_large = [&](const std::int64_t* got, const auto& want) {
          for (std::size_t i = 0; i < kLarge; ++i) {
            if (got[i] != want(i)) return std::uint8_t{1};
          }
          return std::uint8_t{0};
        };

        {
          Scope s(tr, kBarrier, kStatName[kBarrier], call);
          xbrtime_barrier();
        }
        src_s[0] = mine[0] + salt;
        for (std::size_t i = 0; i < kLarge; ++i) src_l[i] = mine[i] + salt;

        probe.coll(pe, kBcastSmall, call,
                   [&] { dispatch_broadcast(bcast_s, src_s, 1, 1, root); });
        fail[0] = bcast_s[0] != from_root[0] + salt;
        probe.coll(pe, kBcastLarge, call,
                   [&] { dispatch_broadcast(bcast_l, src_l, kLarge, 1, root); });
        fail[1] = check_large(bcast_l, [&](std::size_t i) { return from_root[i] + salt; });
        probe.coll(pe, kAllreduceSmall, call,
                   [&] { reduce_all<OpSum>(ar_s, src_s, 1, 1); });
        fail[2] = ar_s[0] != sum[0] + kMixPes * salt;
        const auto summed = [&](std::size_t i) { return sum[i] + kMixPes * salt; };
        probe.coll(pe, kAllreduceLarge, call,
                   [&] { reduce_all<OpSum>(ar_l, src_l, kLarge, 1); });
        fail[3] = check_large(ar_l, summed);
        probe.coll(pe, kAllreduceNbiLarge, call, [&] {
          CollReq req = xbr_reduce_all_nbi<OpSum>(nbi_l, src_l, kLarge, 1);
          req.wait();
        });
        fail[4] = check_large(nbi_l, summed);
        probe.coll(pe, kFcollectSmall, call, [&] { fcollect(fc, src_s, 1); });
        for (std::size_t p = 0; p < kMixPes; ++p) {
          if (fc[p] != base[p][0] + salt) fail[5] = 1;
        }
      }
      xbrtime_barrier();
      probe.mark_end(me);
      if (me == 0) {
        cycles = pe.clock().cycles() - t0;
        phase("teardown");
      }
      for (std::int64_t* p : {fc, nbi_l, ar_l, ar_s, bcast_l, bcast_s, src_s, src_l}) {
        xbrtime_free(p);
      }
      xbrtime_close();
    });

    for (int round = 0; round < kMixRounds; ++round) {
      for (std::size_t op = 0; op < kMixOpsPerRound; ++op) {
        bool any = false;
        for (int p = 0; p < kMixPes; ++p) {
          any = any || bad[(static_cast<std::size_t>(round) * kMixPes +
                            static_cast<std::size_t>(p)) * kMixOpsPerRound + op] != 0;
        }
        if (any) {
          ++r.failed;
          r.failures.push_back("coll-mix round " + std::to_string(round) +
                               " op " + std::to_string(op) +
                               " differs from the host golden");
        }
      }
    }
    r.modeled["cycles"] = static_cast<double>(cycles);
    r.modeled["modeled_mops"] = mops(r.ops, cycles);
  });
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list = {
      {"fig4-gups-8pe", 8, 1, run_gups_rep, parity_gups, "14.345"},
      {"fig5-is-b-8pe", 8, 2, run_is_rep, parity_is, "246.776"},
      {"coll-mix-64pe", kMixPes, 4, run_collmix_rep, nullptr, ""},
  };
  return list;
}

}  // namespace perfbench
