#pragma once

// NetworkModel — first-order cost model for xBGAS remote transactions.
//
// Two mechanisms, both deterministic:
//
//  1. Per-operation latency, charged to the issuing PE's SimClock:
//       put:  OLB lookup + injection + hops x per_hop + bytes/link_bw + mem
//       get:  the same plus the return traversal (request/response)
//     This reflects xBGAS's pitch (§3.1): user-space remote load/store with
//     no kernel crossing, socket setup, or handshaking — so these costs are
//     small constants, not protocol stacks.
//
//  2. Shared-fabric serialization, accounted per *phase* (the interval
//     between runtime barriers). Every remote transaction also deposits its
//     bytes into the issuing PE's traffic shard; when the world barrier
//     reconciles clocks, the phase may not end before
//     phase_anchor + phase_bytes/fabric_bw. This is what produces the
//     aggregate-bandwidth saturation that bends the per-PE curves downward
//     at 8 PEs in Figures 4 and 5.
//
// Traffic accounting is sharded per PE: each shard sits on its own cache
// line and has exactly one writer, the issuing PE's fiber, which bumps it
// with a relaxed load + store (no locked read-modify-write). Readers sum the
// shards. The open phase is the difference between the current sums and the
// snapshot taken at the last reconcile, which runs while every participant
// is parked in the world barrier, so the drained integers are exact.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "fault/config.hpp"
#include "net/topology.hpp"

namespace xbgas {

/// Instantaneous health of the pair path between two PEs (LinkFaults).
enum class LinkStatus : std::uint8_t {
  kUp,        ///< healthy: normal cost, transfers land
  kDown,      ///< scripted down: every transfer across it is dropped
  kDegraded,  ///< scripted degraded: transfers land but pay extra cycles
};

/// Scripted persistent link/partition faults (FaultConfig::links/partitions),
/// evaluated against the *issuing PE's modeled clock* — never host time — so
/// fault placement is bit-identical across runs and thread schedules.
///
/// Activation is sticky and global: the first consult that observes a spec
/// past its activation (heal) cycle atomically claims the transition, bumps
/// the version counter, and fires the down (heal) callback once per affected
/// pair. The Machine wires those callbacks into RecoveryState so the quorum
/// rule of xbr_agree sees the same reachability graph the transport does.
class LinkFaults {
 public:
  /// Callback invoked once per (a, b) pair, a < b, when a down-mode spec
  /// activates or heals. May be invoked from any PE's context; must be
  /// thread-safe and must not call back into LinkFaults.
  using PairCallback = std::function<void(int a, int b)>;

  /// Install the scripted plan. Called once, before any PE runs.
  void configure(const FaultConfig& config, int n_pes);

  /// True when no link/partition fault is scripted (the transport's fast
  /// path consults this before anything else).
  bool empty() const { return links_.empty() && partitions_.empty(); }

  /// Health of the pair path (src, dst) at modeled cycle `now` of the
  /// consulting PE. Down takes precedence over degraded when specs overlap.
  /// Also performs sticky activation/heal bookkeeping (callbacks, version).
  LinkStatus status(int src_pe, int dst_pe, std::uint64_t now);

  /// Monotone counter bumped on every activation/heal transition; policy
  /// caches key on it to rebuild their reachability view when it changes.
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  void set_down_callback(PairCallback cb) { down_cb_ = std::move(cb); }
  void set_heal_callback(PairCallback cb) { heal_cb_ = std::move(cb); }

  /// Pairs (a < b) whose direct path is down right now, according to the
  /// transitions observed so far. Cold path (policy rebuilds).
  std::vector<std::pair<int, int>> down_pairs() const;

  // -- Observation counters (collect_counters: net.link.*) --
  std::uint64_t down_observed() const {
    return down_observed_.load(std::memory_order_relaxed);
  }
  std::uint64_t degraded_observed() const {
    return degraded_observed_.load(std::memory_order_relaxed);
  }
  std::uint64_t heals() const {
    return heals_.load(std::memory_order_relaxed);
  }

  double degraded_beta_factor() const { return degraded_beta_factor_; }
  std::uint64_t degraded_alpha_cycles() const { return degraded_alpha_cycles_; }

 private:
  struct LinkEntry {
    LinkSpec spec;  // normalized a < b
    std::atomic<bool> activated{false};
    std::atomic<bool> healed{false};
  };
  struct PartitionEntry {
    PartitionSpec spec;
    std::atomic<bool> activated{false};
    std::atomic<bool> healed{false};
  };

  static bool window_active(std::uint64_t at, std::uint64_t heal_at,
                            std::uint64_t now) {
    return now >= at && (heal_at == 0 || now < heal_at);
  }
  bool partition_covers(const PartitionSpec& p, int a, int b) const {
    const bool a_in = a >= p.lo && a <= p.hi;
    const bool b_in = b >= p.lo && b <= p.hi;
    return a_in != b_in;
  }
  void fire_link(LinkEntry& e, std::uint64_t now);
  void fire_partition(PartitionEntry& e, std::uint64_t now);

  int n_pes_ = 0;
  double degraded_beta_factor_ = 4.0;
  std::uint64_t degraded_alpha_cycles_ = 0;
  std::vector<std::unique_ptr<LinkEntry>> links_;
  std::vector<std::unique_ptr<PartitionEntry>> partitions_;
  PairCallback down_cb_;
  PairCallback heal_cb_;
  std::atomic<std::uint64_t> version_{0};
  std::atomic<std::uint64_t> down_observed_{0};
  std::atomic<std::uint64_t> degraded_observed_{0};
  std::atomic<std::uint64_t> heals_{0};
};

/// Modeled barrier algorithm (ablation A4). The thread rendezvous is always
/// the same; this selects the *cost model* for the message exchange the
/// hardware barrier would perform.
enum class BarrierAlgorithm {
  kDissemination,  ///< ceil(log2 n) rounds, all PEs active (default)
  kCentral,        ///< gather-to-root + release: 2(n-1) serialized messages
  kTournament,     ///< log2 n up the tree + log2 n release
};

struct NetCostParams {
  std::uint64_t olb_lookup_cycles = 2;    ///< OLB translation
  std::uint64_t injection_cycles = 10;    ///< endpoint overhead per message
  std::uint64_t per_hop_cycles = 5;       ///< per link traversal
  double link_bytes_per_cycle = 8.0;      ///< per-message serialization
  double fabric_bytes_per_cycle = 4.0;    ///< aggregate byte bandwidth
  /// Aggregate per-message processing cost: the fabric is message-RATE
  /// limited as well as byte limited. Fine-grained traffic (GUPs' 8-byte
  /// AMOs) saturates on this term; bulk traffic (IS' key exchange)
  /// saturates on bytes.
  std::uint64_t fabric_message_cycles = 30;
  std::uint64_t remote_mem_cycles = 30;   ///< memory access at the target PE
  std::size_t message_header_bytes = 32;  ///< per-message protocol overhead

  // Endpoint issue costs for multi-element RMA (paper §3.3: the runtime's
  // underlying assembly unrolls its remote load/store loop once nelems
  // exceeds a threshold, cutting per-element loop overhead).
  std::uint64_t issue_per_element_cycles = 4;
  std::uint64_t issue_per_element_cycles_unrolled = 1;
  std::size_t unroll_threshold = 8;

  BarrierAlgorithm barrier_algorithm = BarrierAlgorithm::kDissemination;

  /// Cycles for one barrier over n participants: a dissemination-style
  /// O(ceil(log2 n)) exchange of zero-payload messages.
  std::uint64_t barrier_cycles(int n_participants) const;
};

struct NetTotals {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t hops = 0;          ///< sum of topology hop counts per message
  std::uint64_t phases = 0;        ///< barriers reconciled (phase count)
  std::uint64_t stall_cycles = 0;  ///< cycles phases ended late because the
                                   ///< shared fabric was still serializing
};

/// Kind of one remote transfer attempt charged through NetworkModel::charge.
enum class NetOp : std::uint8_t {
  kPut,  ///< one-way put: one message
  kGet,  ///< round-trip get: one message
  kAmo,  ///< remote read-modify-write: a get + put pair, two messages
};

class NetworkModel {
 public:
  NetworkModel(std::unique_ptr<Topology> topology, const NetCostParams& params);

  const Topology& topology() const { return *topology_; }
  const NetCostParams& params() const { return params_; }

  /// Latency charged to the issuing PE for a one-way put of `bytes`.
  std::uint64_t put_cost(int src_pe, int dst_pe, std::size_t bytes) const;

  /// Latency charged to the issuing PE for a round-trip get of `bytes`.
  std::uint64_t get_cost(int src_pe, int dst_pe, std::size_t bytes) const;

  /// One attempt of a remote transfer: looks the hop count up once, records
  /// the attempt's messages, bytes and hops into `src_pe`'s shard, and
  /// returns its latency (put_cost, get_cost, or for kAmo their sum).
  /// `src_pe` must be the calling PE: its shard has no other writer.
  /// Commutative, so phase and lifetime totals are deterministic under any
  /// interleaving.
  std::uint64_t charge(NetOp op, int src_pe, int dst_pe, std::size_t bytes);

  /// Phase reconciliation — called by exactly one PE while all participants
  /// are parked inside the world barrier rendezvous.
  /// `max_participant_cycles` is the max SimClock over participants. Returns
  /// the post-barrier clock value every participant must adopt, then starts
  /// the next phase.
  std::uint64_t reconcile_phase(std::uint64_t max_participant_cycles,
                                int n_participants);

  /// Lifetime traffic totals (not reset by phases).
  NetTotals totals() const;

  /// Bytes recorded in the current (open) phase.
  std::uint64_t phase_bytes() const;

  /// Zero the lifetime totals; traffic of the open phase stays in it.
  void reset_totals();

  /// Drop any recorded-but-unreconciled phase traffic and restart phase
  /// accounting at clock 0 (between benchmark repetitions).
  void reset_phase();

  /// Install the scripted link/partition fault plan (Machine construction).
  void configure_link_faults(const FaultConfig& config, int n_pes) {
    link_faults_.configure(config, n_pes);
  }

  /// Scripted link/partition fault state (LinkFaults::empty() when none).
  LinkFaults& link_faults() { return link_faults_; }
  const LinkFaults& link_faults() const { return link_faults_; }

  /// Extra cycles one attempt across a *degraded* link pays: the
  /// serialization term re-charged at the degraded beta factor, plus the
  /// configured degraded alpha.
  std::uint64_t degraded_penalty_cycles(std::size_t bytes) const;

 private:
  /// One PE's cumulative traffic. Single writer (that PE), any reader.
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> messages{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> puts{0};
    std::atomic<std::uint64_t> gets{0};
    std::atomic<std::uint64_t> hops{0};
  };

  /// Latency of one message exchange crossing the fabric `legs` times (1 for
  /// a put, 2 for a get's request + response) over `hops` hops, with `ser`
  /// cycles of payload serialization.
  std::uint64_t latency(std::uint64_t legs, int hops, std::uint64_t ser) const;

  /// Serialization cycles of one message carrying `bytes` of payload.
  std::uint64_t message_serialization(std::size_t bytes) const;

  /// Shard sums: messages, bytes, puts, gets and hops since construction.
  NetTotals sum_shards() const;

  std::unique_ptr<Topology> topology_;
  NetCostParams params_;
  std::vector<Shard> shards_;

  // Reader-side state, written only by reconcile_phase and the resets.
  std::uint64_t phase_anchor_ = 0;  // clock value when the phase opened
  std::uint64_t phase_base_bytes_ = 0;     // shard sums when it opened
  std::uint64_t phase_base_messages_ = 0;
  NetTotals totals_base_{};  // shard sums at the last reset_totals
  std::uint64_t phases_ = 0;
  std::uint64_t stall_cycles_ = 0;

  LinkFaults link_faults_;
};

}  // namespace xbgas
