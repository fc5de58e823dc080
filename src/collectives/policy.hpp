#pragma once

// Cost-model-driven collective algorithm selection — the layer the paper's
// §7 future work asks for once "algorithms optimized for larger message
// sizes" exist alongside the binomial tree. The repo now carries three
// algorithm families (k-nomial tree in collectives.hpp, segmented ring in
// ring.hpp, locality-aware hierarchical in hierarchy.hpp); CollectivePolicy
// is the analytic latency–bandwidth model that picks between them per
// collective and per (n_pes, payload bytes) point. detail::run_collective
// below is the one (kind x family) switch that runs the pick — for the
// blocking dispatch_* templates, the xbr_*_nbi entry points (nbi.hpp) and
// the tuner's measurements alike.
//
// The model is the classic alpha–beta decomposition parameterized from the
// machine's own NetCostParams (docs/COLLECTIVES.md derives the formulas):
//
//   message(b) = alpha + b * beta
//     alpha = OLB lookup + injection + mean_hops * per_hop + remote memory
//             + fabric per-message cost + header serialization
//     beta  = 1 / link_bytes_per_cycle
//   barrier(n) = NetCostParams::barrier_cycles(n)   (modeled exchange)
//   gamma      = cycles per reduced element (detail::kReduceOpCycles)
//
//   tree      ceil(log_k n) stages, the WHOLE payload per stage
//   ring      pipelined: (n-2)+S steps of B/S bytes (bcast/reduce) or
//             2(n-1) steps of B/n bytes (allreduce), n-1 steps (allgather)
//   hier      multi-level k-nomial stack over the cluster topology's
//             grouping levels; only modeled when there is locality to
//             exploit (hier_eligible)
//
// On top of the analytic model sits a measurement-driven auto-tuner
// (XHC-style, src/collectives/tuner.hpp): a TuneTable maps
// (kind, n_pes, bytes) to a measured-best (family, radix, chunk) triple,
// persists to a text file, and loads via --coll-tune-table. decide()
// consults the table first and falls back to the alpha-beta argmin on a
// miss; coll.tuner.* counters account for both paths.
//
// Selection: MachineConfig::coll_algo ("auto" | "tree" | "ring" | "hier")
// forces a family or leaves the decision in charge; benches expose it as
// --coll-algo (plus --coll-radix / --coll-tune-table). Every dispatch
// bumps the process-wide coll.algo.<name> counters and records a
// kCollDispatch trace event.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "collectives/hierarchy.hpp"
#include "collectives/ring.hpp"

namespace xbgas {

/// Algorithm family. kAuto is only a *request* (forced() value); choose()
/// and the dispatchers always resolve to a concrete family.
enum class CollAlgo : std::uint8_t { kAuto = 0, kTree, kRing, kHier };
inline constexpr int kCollAlgoCount = 4;

/// The collective shapes the policy distinguishes.
enum class CollKind : std::uint8_t {
  kBroadcast = 0,
  kReduce,
  kAllreduce,
  kAllgather,
};
inline constexpr int kCollKindCount = 4;

const char* coll_algo_name(CollAlgo algo);
const char* coll_kind_name(CollKind kind);

/// Parse "auto" | "tree" | "ring" | "hier"; throws xbgas::Error otherwise.
CollAlgo parse_coll_algo(const std::string& name);

/// Parse a coll_kind_name back; throws xbgas::Error otherwise.
CollKind parse_coll_kind(const std::string& name);

/// A fully-resolved dispatch decision: the family plus the schedule knobs
/// the tuner sweeps (k-nomial radix, pipelined chunk size in elements;
/// chunk 0 keeps the built-in heuristics).
struct CollDecision {
  CollAlgo algo = CollAlgo::kTree;
  int radix = 2;
  std::size_t chunk = 0;
  bool tuned = false;  ///< true when a tune-table entry decided it
};

/// One persisted tuner measurement: the winning (algo, radix, chunk) for a
/// (kind, n_pes, bytes) point.
struct TuneEntry {
  CollKind kind = CollKind::kBroadcast;
  int n_pes = 0;
  std::size_t bytes = 0;
  CollAlgo algo = CollAlgo::kTree;
  int radix = 2;
  std::size_t chunk = 0;
};

/// The tuner's lookup table. Entries are exact on (kind, n_pes); payload
/// size matches the nearest measured point in log-scale (OSU sweeps are
/// geometric, so nearest-log is the natural interpolation).
class TuneTable {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  /// Insert or replace the entry at (kind, n_pes, bytes).
  void insert(const TuneEntry& entry);

  /// Every entry in save() order (sorted by key, then bytes). The OSU
  /// bench uses this to merge per-PE-count sweeps into one table.
  std::vector<TuneEntry> entries() const;

  /// Best match for the point, or nullptr when no (kind, n_pes) entry
  /// exists at any payload size.
  const TuneEntry* lookup(CollKind kind, int n_pes, std::size_t bytes) const;

  /// Persist as the versioned text format docs/COLLECTIVES.md specifies
  /// (sorted, so saves are deterministic). Throws xbgas::Error on I/O error.
  void save(const std::string& path) const;

  /// Load a table persisted by save(). Throws xbgas::Error on I/O or
  /// format errors.
  static TuneTable load(const std::string& path);

 private:
  // (kind, n_pes) -> entries sorted by bytes ascending.
  std::map<std::pair<int, int>, std::vector<TuneEntry>> by_key_;
  std::size_t count_ = 0;
};

class CollectivePolicy {
 public:
  /// Default NetCostParams on a flat fabric, auto selection.
  CollectivePolicy();

  /// Parameterize from a machine configuration: wire costs from config.net,
  /// hop distances (and cluster grouping levels, when present) from
  /// config.topology_name, forced algorithm from config.coll_algo unless
  /// `forced` overrides it, default radix from config.coll_radix, and the
  /// tune table from config.coll_tune_table (throws if the file is set but
  /// unreadable).
  explicit CollectivePolicy(const MachineConfig& config,
                            CollAlgo forced = CollAlgo::kAuto);

  CollAlgo forced() const { return forced_; }
  void set_forced(CollAlgo algo) { forced_ = algo; }

  /// Innermost cluster group size from the topology (0 on non-cluster
  /// fabrics).
  int cluster_group() const {
    return cluster_groups_.empty() ? 0 : cluster_groups_.front();
  }

  /// Apply the scripted link plan's currently-down pairs to the model:
  /// mean hops re-derive from the degraded reachability view
  /// (DegradedTopologyView), hierarchy levels with an intra-group dead link
  /// drop out of hier_groups()/hier_cost(), and families whose fixed
  /// schedules cross a dead link are excluded from choose() (unless every
  /// family is blocked, in which case costs stand and the escalation
  /// machinery handles the crossing). active_collective_policy() calls this
  /// on every LinkFaults version change.
  void apply_link_faults(std::vector<std::pair<int, int>> down_pairs,
                         const MachineConfig& config);

  /// The down pairs currently applied (normalized a < b, sorted).
  const std::vector<std::pair<int, int>>& down_pairs() const {
    return down_pairs_;
  }

  /// True when `algo`'s fixed schedule over ranks [0, n_pes) crosses a down
  /// pair: the ring's consecutive cycle, or the k-nomial tree's parent
  /// edges (root 0, default radix). Hier is never blocked here — its level
  /// stack is filtered per group instead.
  bool family_blocked(CollAlgo algo, int n_pes) const;

  /// The topology's grouping widths usable as a hierarchy over n_pes:
  /// cluster levels that divide n_pes and are smaller than it, ascending.
  /// Empty on non-cluster fabrics (or when nothing divides).
  std::vector<int> hier_groups(int n_pes) const;

  /// The level stack dispatch hands to the hierarchy engine.
  HierShape hier_shape(int n_pes, int radix, std::size_t chunk) const;

  /// Default k-nomial radix (config.coll_radix, or 2).
  int default_radix() const { return default_radix_; }

  const TuneTable& tune_table() const { return tune_table_; }
  void set_tune_table(TuneTable table);

  // -- Analytic cost model (cycles; exposed for tests and the bench) --

  double message_cost(std::size_t bytes) const;
  double barrier_cost(int n_pes) const;
  double tree_cost(CollKind kind, int n_pes, std::size_t nelems,
                   std::size_t elem_size) const;
  double ring_cost(CollKind kind, int n_pes, std::size_t nelems,
                   std::size_t elem_size) const;
  /// +infinity unless `hier_eligible(kind, n_pes)`.
  double hier_cost(CollKind kind, int n_pes, std::size_t nelems,
                   std::size_t elem_size) const;

  /// The hierarchical family covers every collective kind; it needs the
  /// world communicator, a cluster topology, and at least one grouping
  /// level that divides n_pes.
  bool hier_eligible(CollKind kind, int n_pes) const;

  /// Resolve the algorithm for one call site: the forced family when set
  /// (with ineligible choices degrading to tree), else the model argmin.
  /// `world` tells the policy whether the communicator spans the machine
  /// (hierarchical needs it). Never returns kAuto.
  CollAlgo choose(CollKind kind, int n_pes, std::size_t nelems,
                  std::size_t elem_size, bool world = true) const;

  /// Full decision for one call site: forced family first, then the tune
  /// table (counted as coll.tuner.hits / .misses), then the analytic
  /// argmin. Never returns kAuto.
  CollDecision decide(CollKind kind, int n_pes, std::size_t nelems,
                      std::size_t elem_size, bool world = true) const;

  /// Smallest element count at which the model prefers the ring over the
  /// tree for this collective (the crossover the bench plots), or SIZE_MAX
  /// when the ring never wins below the search cap (2^24 elements).
  std::size_t crossover_nelems(CollKind kind, int n_pes,
                               std::size_t elem_size) const;

 private:
  /// True when a down pair falls inside one width-`g` group of [0, n_pes).
  bool level_cut(int g, int n_pes) const;

  NetCostParams net_{};
  double mean_hops_ = 1.0;
  std::vector<int> cluster_groups_;  ///< ascending widths (empty: no cluster)
  std::vector<int> cluster_hops_;    ///< boundary costs, parallel to groups
  std::vector<std::pair<int, int>> down_pairs_;  ///< normalized, sorted
  int default_radix_ = 2;
  CollAlgo forced_ = CollAlgo::kAuto;
  TuneTable tune_table_;
};

/// Snapshot of the process-wide dispatch counters (every PE's dispatch
/// counts once). Reset between benchmark repetitions with
/// reset_coll_dispatch_counts(); benchlib's emit_observability folds these
/// into the counter registry as coll.algo.<name> / coll.<kind>.<algo>.
struct CollDispatchCounts {
  std::uint64_t total = 0;
  std::uint64_t auto_resolved = 0;  ///< dispatches decided by the model
  std::uint64_t by_algo[kCollAlgoCount] = {};
  std::uint64_t by_kind_algo[kCollKindCount][kCollAlgoCount] = {};
};

CollDispatchCounts coll_dispatch_counts();
void reset_coll_dispatch_counts();

/// Process-wide auto-tuner counters (observability: coll.tuner.*).
/// `entries` is the size of the most recently loaded table; hits/misses
/// count decide() consultations that found / missed a usable entry.
struct CollTunerCounters {
  std::uint64_t entries = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

CollTunerCounters coll_tuner_counters();
void reset_coll_tuner_counters();

/// The policy in force for the calling PE (built from its machine's config
/// and cached per thread). Requires an initialized runtime.
const CollectivePolicy& active_collective_policy();

namespace detail {

/// Consult the active policy, bump the dispatch counters, and record the
/// kCollDispatch trace event (a = (kind << 8) | algo, b = payload bytes).
/// Returns the concrete decision to run.
CollDecision resolve_and_record(CollKind kind, int n_pes, std::size_t nelems,
                                std::size_t elem_size, bool world);

/// Map the tuner's chunk-elements knob to the ring family's segment count
/// (0 keeps the ring heuristic).
inline std::size_t ring_segments_hint(std::size_t nelems, std::size_t chunk) {
  return chunk == 0 ? 0 : std::clamp<std::size_t>(nelems / chunk, 1, 64);
}

/// Stand-in reduction for the data-movement kinds: the one switch below
/// instantiates its reduce branches for every element type, and they never
/// run for broadcast or allgather.
struct OpNone {
  template <class T>
  static constexpr T apply(T a, T /*b*/) {
    return a;
  }
};

/// The one (kind x family) switch: run collective `kind` as decided by `d`
/// in completion mode `mode`. For kAllgather `nelems` is the per-PE count
/// (stride 1, root 0); kAllreduce ignores `root`. Every dispatch_*,
/// xbr_*_nbi and tuner measurement runs through here. Returns true when the
/// final fence was left to the caller (kNbi only).
template <class Op, class T>
bool run_collective(CollKind kind, const CollDecision& d, CollMode mode,
                    T* dest, const T* src, std::size_t nelems, int stride,
                    int root, Communicator& comm) {
  switch (d.algo) {
    case CollAlgo::kRing: {
      const std::size_t seg = ring_segments_hint(nelems, d.chunk);
      switch (kind) {
        case CollKind::kBroadcast:
          return ring_broadcast(dest, src, nelems, stride, root, comm, seg,
                                mode);
        case CollKind::kReduce:
          // Already a fully pipelined schedule (double-buffered landing,
          // deferred combine); complete at return in both modes.
          ring_reduce<Op>(dest, src, nelems, stride, root, comm, seg);
          return false;
        case CollKind::kAllreduce:
          ring_allreduce<Op>(dest, src, nelems, stride, comm, mode);
          return false;
        case CollKind::kAllgather:
          return ring_allgather(dest, src, nelems, comm, mode);
      }
      break;
    }
    case CollAlgo::kHier: {
      const HierShape shape =
          active_collective_policy().hier_shape(comm.n_pes(), d.radix, d.chunk);
      switch (kind) {
        case CollKind::kBroadcast:
          return hier_broadcast(dest, src, nelems, stride, root, shape, mode);
        case CollKind::kReduce:
          hier_reduce<Op>(dest, src, nelems, stride, root, shape, mode);
          return false;
        case CollKind::kAllreduce:
          return hier_reduce_all<Op>(dest, src, nelems, stride, shape, mode);
        case CollKind::kAllgather:
          return hier_fcollect(dest, src, nelems, shape, mode);
      }
      break;
    }
    default:  // kTree: the k-nomial executor at the decided radix
      switch (kind) {
        case CollKind::kBroadcast:
          return knomial_broadcast(dest, src, nelems, stride, root, d.radix,
                                   comm, mode, d.chunk);
        case CollKind::kReduce:
          knomial_reduce<Op>(dest, src, nelems, stride, root, d.radix, comm,
                             mode, d.chunk);
          return false;
        case CollKind::kAllreduce:
          knomial_reduce<Op>(dest, src, nelems, stride, /*root=*/0, d.radix,
                             comm, mode, d.chunk);
          return knomial_broadcast(dest, dest, nelems, stride, /*root=*/0,
                                   d.radix, comm, mode, d.chunk);
        case CollKind::kAllgather:
          return knomial_fcollect(dest, src, nelems, d.radix, comm, mode,
                                  d.chunk);
      }
      break;
  }
  return false;
}

/// Resolve the family for one call site (policy, counters, trace event)
/// and run it. The policy sees an allgather's whole concatenation.
template <class Op, class T>
bool dispatch(CollKind kind, CollMode mode, T* dest, const T* src,
              std::size_t nelems, int stride, int root, Communicator& comm) {
  const int n = comm.n_pes();
  const std::size_t payload =
      kind == CollKind::kAllgather ? nelems * static_cast<std::size_t>(n)
                                   : nelems;
  const CollDecision d = resolve_and_record(kind, n, payload, sizeof(T),
                                            &comm == &world_comm());
  return run_collective<Op>(kind, d, mode, dest, src, nelems, stride, root,
                            comm);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Dispatching entry points (same contracts as the tree primitives)
// ---------------------------------------------------------------------------

template <class T>
void dispatch_broadcast(T* dest, const T* src, std::size_t nelems, int stride,
                        int root, Communicator& comm = world_comm()) {
  detail::dispatch<detail::OpNone>(CollKind::kBroadcast, CollMode::kBlocking,
                                   dest, src, nelems, stride, root, comm);
}

template <class Op, class T>
void dispatch_reduce(T* dest, const T* src, std::size_t nelems, int stride,
                     int root, Communicator& comm = world_comm()) {
  detail::dispatch<Op>(CollKind::kReduce, CollMode::kBlocking, dest, src,
                       nelems, stride, root, comm);
}

template <class Op, class T>
void dispatch_reduce_all(T* dest, const T* src, std::size_t nelems,
                         int stride, Communicator& comm = world_comm()) {
  detail::dispatch<Op>(CollKind::kAllreduce, CollMode::kBlocking, dest, src,
                       nelems, stride, /*root=*/0, comm);
}

/// Fixed-count allgather; the tree family runs the k-nomial block gather
/// plus broadcast at every radix (collect() keeps the paper's gather +
/// broadcast composition).
template <class T>
void dispatch_fcollect(T* dest, const T* src, std::size_t nelems_per_pe,
                       Communicator& comm = world_comm()) {
  detail::dispatch<detail::OpNone>(CollKind::kAllgather, CollMode::kBlocking,
                                   dest, src, nelems_per_pe, /*stride=*/1,
                                   /*root=*/0, comm);
}

}  // namespace xbgas
