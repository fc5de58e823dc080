#include "net/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace xbgas {

std::uint64_t NetCostParams::barrier_cycles(int n_participants) const {
  XBGAS_CHECK(n_participants >= 1, "barrier needs >= 1 participant");
  if (n_participants == 1) return 0;
  const std::uint64_t hop = injection_cycles + per_hop_cycles;
  const auto n = static_cast<std::uint64_t>(n_participants);
  const std::uint64_t rounds = ceil_log2(n);
  switch (barrier_algorithm) {
    case BarrierAlgorithm::kDissemination:
      // All PEs exchange in parallel each round.
      return rounds * hop;
    case BarrierAlgorithm::kCentral:
      // Root serializes n-1 arrivals, then one broadcast-style release.
      return (n - 1) * hop + hop;
    case BarrierAlgorithm::kTournament:
      // log2 n up the winners' bracket plus a tree release.
      return 2 * rounds * hop;
  }
  return rounds * hop;
}

NetworkModel::NetworkModel(std::unique_ptr<Topology> topology,
                           const NetCostParams& params)
    : topology_(std::move(topology)), params_(params) {
  XBGAS_CHECK(topology_ != nullptr, "NetworkModel requires a topology");
  XBGAS_CHECK(params_.link_bytes_per_cycle > 0 &&
                  params_.fabric_bytes_per_cycle > 0,
              "bandwidths must be positive");
  shards_ = std::vector<Shard>(static_cast<std::size_t>(topology_->size()));
}

namespace {
std::uint64_t serialization_cycles(std::size_t bytes, double bytes_per_cycle) {
  return static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(bytes) / bytes_per_cycle));
}

/// Single-writer increment: only the owning PE stores to its shard, so a
/// relaxed load + store replaces a locked read-modify-write.
void bump(std::atomic<std::uint64_t>& counter, std::uint64_t delta) {
  counter.store(counter.load(std::memory_order_relaxed) + delta,
                std::memory_order_relaxed);
}
}  // namespace

void LinkFaults::configure(const FaultConfig& config, int n_pes) {
  n_pes_ = n_pes;
  degraded_beta_factor_ = config.degraded_beta_factor;
  degraded_alpha_cycles_ = config.degraded_alpha_cycles;
  links_.clear();
  partitions_.clear();
  for (const LinkSpec& l : config.links) {
    auto e = std::make_unique<LinkEntry>();
    e->spec = l;
    if (e->spec.a > e->spec.b) std::swap(e->spec.a, e->spec.b);
    links_.push_back(std::move(e));
  }
  for (const PartitionSpec& p : config.partitions) {
    auto e = std::make_unique<PartitionEntry>();
    e->spec = p;
    partitions_.push_back(std::move(e));
  }
}

void LinkFaults::fire_link(LinkEntry& e, std::uint64_t now) {
  bool expected = false;
  if (now >= e.spec.at &&
      e.activated.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
    version_.fetch_add(1, std::memory_order_acq_rel);
    if (e.spec.mode == LinkFaultMode::kDown && down_cb_) {
      down_cb_(e.spec.a, e.spec.b);
    }
  }
  expected = false;
  if (e.spec.heal_at != 0 && now >= e.spec.heal_at &&
      e.healed.compare_exchange_strong(expected, true,
                                       std::memory_order_acq_rel)) {
    version_.fetch_add(1, std::memory_order_acq_rel);
    heals_.fetch_add(1, std::memory_order_relaxed);
    if (e.spec.mode == LinkFaultMode::kDown && heal_cb_) {
      heal_cb_(e.spec.a, e.spec.b);
    }
  }
}

void LinkFaults::fire_partition(PartitionEntry& e, std::uint64_t now) {
  bool expected = false;
  if (now >= e.spec.at &&
      e.activated.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
    version_.fetch_add(1, std::memory_order_acq_rel);
    if (down_cb_) {
      for (int a = e.spec.lo; a <= e.spec.hi; ++a) {
        for (int b = 0; b < n_pes_; ++b) {
          if (b >= e.spec.lo && b <= e.spec.hi) continue;
          down_cb_(a < b ? a : b, a < b ? b : a);
        }
      }
    }
  }
  expected = false;
  if (e.spec.heal_at != 0 && now >= e.spec.heal_at &&
      e.healed.compare_exchange_strong(expected, true,
                                       std::memory_order_acq_rel)) {
    version_.fetch_add(1, std::memory_order_acq_rel);
    heals_.fetch_add(1, std::memory_order_relaxed);
    if (heal_cb_) {
      for (int a = e.spec.lo; a <= e.spec.hi; ++a) {
        for (int b = 0; b < n_pes_; ++b) {
          if (b >= e.spec.lo && b <= e.spec.hi) continue;
          heal_cb_(a < b ? a : b, a < b ? b : a);
        }
      }
    }
  }
}

LinkStatus LinkFaults::status(int src_pe, int dst_pe, std::uint64_t now) {
  if (empty() || src_pe == dst_pe) return LinkStatus::kUp;
  const int a = src_pe < dst_pe ? src_pe : dst_pe;
  const int b = src_pe < dst_pe ? dst_pe : src_pe;
  LinkStatus result = LinkStatus::kUp;
  for (auto& e : links_) {
    if (e->spec.a != a || e->spec.b != b) continue;
    fire_link(*e, now);
    if (!window_active(e->spec.at, e->spec.heal_at, now)) continue;
    if (e->spec.mode == LinkFaultMode::kDown) {
      result = LinkStatus::kDown;
    } else if (result == LinkStatus::kUp) {
      result = LinkStatus::kDegraded;
    }
  }
  for (auto& e : partitions_) {
    if (!partition_covers(e->spec, a, b)) continue;
    fire_partition(*e, now);
    if (window_active(e->spec.at, e->spec.heal_at, now)) {
      result = LinkStatus::kDown;
    }
  }
  if (result == LinkStatus::kDown) {
    down_observed_.fetch_add(1, std::memory_order_relaxed);
  } else if (result == LinkStatus::kDegraded) {
    degraded_observed_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

std::vector<std::pair<int, int>> LinkFaults::down_pairs() const {
  std::vector<std::pair<int, int>> out;
  for (const auto& e : links_) {
    if (e->spec.mode != LinkFaultMode::kDown) continue;
    if (!e->activated.load(std::memory_order_acquire)) continue;
    if (e->spec.heal_at != 0 && e->healed.load(std::memory_order_acquire)) {
      continue;
    }
    out.emplace_back(e->spec.a, e->spec.b);
  }
  for (const auto& e : partitions_) {
    if (!e->activated.load(std::memory_order_acquire)) continue;
    if (e->spec.heal_at != 0 && e->healed.load(std::memory_order_acquire)) {
      continue;
    }
    for (int a = e->spec.lo; a <= e->spec.hi; ++a) {
      for (int b = 0; b < n_pes_; ++b) {
        if (b >= e->spec.lo && b <= e->spec.hi) continue;
        out.emplace_back(a < b ? a : b, a < b ? b : a);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::uint64_t NetworkModel::message_serialization(std::size_t bytes) const {
  return serialization_cycles(bytes + params_.message_header_bytes,
                              params_.link_bytes_per_cycle);
}

std::uint64_t NetworkModel::degraded_penalty_cycles(std::size_t bytes) const {
  const std::uint64_t ser = message_serialization(bytes);
  const double factor = link_faults_.degraded_beta_factor();
  const auto extra = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(ser) * (factor - 1.0)));
  return extra + link_faults_.degraded_alpha_cycles();
}

std::uint64_t NetworkModel::latency(std::uint64_t legs, int hops,
                                    std::uint64_t ser) const {
  // A get is request traversal + remote access + response traversal
  // carrying the payload: two injections and two walks of the hop path.
  return params_.olb_lookup_cycles + legs * params_.injection_cycles +
         legs * static_cast<std::uint64_t>(hops) * params_.per_hop_cycles +
         ser + params_.remote_mem_cycles;
}

std::uint64_t NetworkModel::put_cost(int src_pe, int dst_pe,
                                     std::size_t bytes) const {
  return latency(1, topology_->hops(src_pe, dst_pe),
                 message_serialization(bytes));
}

std::uint64_t NetworkModel::get_cost(int src_pe, int dst_pe,
                                     std::size_t bytes) const {
  return latency(2, topology_->hops(src_pe, dst_pe),
                 message_serialization(bytes));
}

std::uint64_t NetworkModel::charge(NetOp op, int src_pe, int dst_pe,
                                   std::size_t bytes) {
  // hops() validates both endpoints before the shard is indexed.
  const int h = topology_->hops(src_pe, dst_pe);
  const std::uint64_t ser = message_serialization(bytes);
  const bool get = op != NetOp::kPut;  // a get, or the AMO's read
  const bool put = op != NetOp::kGet;  // a put, or the AMO's write-back
  const std::uint64_t messages = std::uint64_t{get} + std::uint64_t{put};
  Shard& shard = shards_[static_cast<std::size_t>(src_pe)];
  bump(shard.messages, messages);
  // Fabric occupancy counts payload plus per-message protocol overhead.
  bump(shard.bytes, messages * (bytes + params_.message_header_bytes));
  bump(shard.gets, std::uint64_t{get});
  bump(shard.puts, std::uint64_t{put});
  bump(shard.hops, messages * static_cast<std::uint64_t>(h));
  return (get ? latency(2, h, ser) : 0) + (put ? latency(1, h, ser) : 0);
}

NetTotals NetworkModel::sum_shards() const {
  NetTotals sum;
  for (const Shard& s : shards_) {
    sum.messages += s.messages.load(std::memory_order_relaxed);
    sum.bytes += s.bytes.load(std::memory_order_relaxed);
    sum.puts += s.puts.load(std::memory_order_relaxed);
    sum.gets += s.gets.load(std::memory_order_relaxed);
    sum.hops += s.hops.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t NetworkModel::reconcile_phase(
    std::uint64_t max_participant_cycles, int n_participants) {
  // Every writer is parked in the barrier, so the sums are the phase's
  // exact traffic on top of the snapshot taken when it opened.
  const NetTotals now = sum_shards();
  const std::uint64_t drained = now.bytes - phase_base_bytes_;
  const std::uint64_t drained_msgs = now.messages - phase_base_messages_;
  phase_base_bytes_ = now.bytes;
  phase_base_messages_ = now.messages;
  const std::uint64_t fabric_done =
      phase_anchor_ +
      serialization_cycles(drained, params_.fabric_bytes_per_cycle) +
      drained_msgs * params_.fabric_message_cycles;
  if (fabric_done > max_participant_cycles) {
    // The phase could not end when the slowest PE arrived: the shared fabric
    // was still draining. This is the §5 saturation signal the counters
    // surface as net.stall_cycles.
    stall_cycles_ += fabric_done - max_participant_cycles;
  }
  ++phases_;
  const std::uint64_t t =
      std::max(max_participant_cycles, fabric_done) +
      params_.barrier_cycles(n_participants);
  phase_anchor_ = t;
  return t;
}

NetTotals NetworkModel::totals() const {
  // Unsigned wrap-around keeps the difference exact across any base.
  const NetTotals now = sum_shards();
  return NetTotals{
      .messages = now.messages - totals_base_.messages,
      .bytes = now.bytes - totals_base_.bytes,
      .puts = now.puts - totals_base_.puts,
      .gets = now.gets - totals_base_.gets,
      .hops = now.hops - totals_base_.hops,
      .phases = phases_,
      .stall_cycles = stall_cycles_,
  };
}

std::uint64_t NetworkModel::phase_bytes() const {
  return sum_shards().bytes - phase_base_bytes_;
}

void NetworkModel::reset_phase() {
  const NetTotals now = sum_shards();
  phase_base_bytes_ = now.bytes;
  phase_base_messages_ = now.messages;
  phase_anchor_ = 0;
}

void NetworkModel::reset_totals() {
  // The phase bases are untouched, so open-phase traffic survives.
  totals_base_ = sum_shards();
  phases_ = 0;
  stall_cycles_ = 0;
}

}  // namespace xbgas
