#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "net/sim_clock.hpp"

namespace xbgas {
namespace {

NetworkModel make_model(const NetCostParams& p = NetCostParams{},
                        const std::string& topo = "flat", int n = 4) {
  return NetworkModel(make_topology(topo, n), p);
}

TEST(SimClockTest, AdvanceAndConvert) {
  SimClock clock;
  EXPECT_EQ(clock.cycles(), 0u);
  clock.advance(100);
  clock.advance(23);
  EXPECT_EQ(clock.cycles(), 123u);
  EXPECT_DOUBLE_EQ(clock.seconds(1e9), 123e-9);
  clock.set(5);
  EXPECT_EQ(clock.cycles(), 5u);
  clock.reset();
  EXPECT_EQ(clock.cycles(), 0u);
}

TEST(BarrierCyclesTest, LogarithmicRounds) {
  NetCostParams p;
  EXPECT_EQ(p.barrier_cycles(1), 0u);
  const std::uint64_t round = p.injection_cycles + p.per_hop_cycles;
  EXPECT_EQ(p.barrier_cycles(2), 1 * round);
  EXPECT_EQ(p.barrier_cycles(4), 2 * round);
  EXPECT_EQ(p.barrier_cycles(5), 3 * round);
  EXPECT_EQ(p.barrier_cycles(8), 3 * round);
}

TEST(NetworkModelTest, PutCostComponents) {
  NetCostParams p;
  p.olb_lookup_cycles = 2;
  p.injection_cycles = 10;
  p.per_hop_cycles = 5;
  p.link_bytes_per_cycle = 8.0;
  p.remote_mem_cycles = 40;
  p.message_header_bytes = 32;
  auto model = make_model(p);
  // flat: 1 hop. serialization = ceil((8+32)/8) = 5.
  EXPECT_EQ(model.put_cost(0, 1, 8), 2u + 10u + 5u + 5u + 40u);
}

TEST(NetworkModelTest, GetCostsMoreThanPut) {
  auto model = make_model();
  // A get is a round trip; it must strictly exceed the one-way put.
  EXPECT_GT(model.get_cost(0, 1, 64), model.put_cost(0, 1, 64));
}

TEST(NetworkModelTest, CostGrowsWithSizeAndDistance) {
  auto model = make_model(NetCostParams{}, "ring", 8);
  EXPECT_LT(model.put_cost(0, 1, 8), model.put_cost(0, 1, 4096));
  EXPECT_LT(model.put_cost(0, 1, 8), model.put_cost(0, 4, 8));
}

TEST(NetworkModelTest, RecordAccumulatesTotals) {
  auto model = make_model();
  model.charge(NetOp::kPut, 0, 1, 100);
  model.charge(NetOp::kGet, 0, 1, 50);
  model.charge(NetOp::kPut, 0, 1, 1);
  const NetTotals t = model.totals();
  EXPECT_EQ(t.messages, 3u);
  EXPECT_EQ(t.puts, 2u);
  EXPECT_EQ(t.gets, 1u);
  // Bytes include the per-message header overhead.
  EXPECT_EQ(t.bytes, 151u + 3 * NetCostParams{}.message_header_bytes);
}

TEST(NetworkModelTest, PhaseReconcileTakesMaxOfComputeAndFabric) {
  NetCostParams p;
  p.fabric_bytes_per_cycle = 1.0;
  p.fabric_message_cycles = 0;
  p.message_header_bytes = 0;
  p.injection_cycles = 0;
  p.per_hop_cycles = 0;
  auto model = make_model(p);

  // Fabric-bound phase: 10k bytes at 1 B/cycle from anchor 0 -> ends at
  // 10000 even though PEs were computing for only 500 cycles.
  model.charge(NetOp::kPut, 0, 1, 10'000);
  EXPECT_EQ(model.reconcile_phase(500, 4), 10'000u);

  // Compute-bound phase: little traffic, max clock dominates.
  model.charge(NetOp::kPut, 0, 1, 10);
  EXPECT_EQ(model.reconcile_phase(50'000, 4), 50'000u);
}

TEST(NetworkModelTest, PhaseAnchorAdvances) {
  NetCostParams p;
  p.fabric_bytes_per_cycle = 1.0;
  p.fabric_message_cycles = 0;
  p.message_header_bytes = 0;
  p.injection_cycles = 0;
  p.per_hop_cycles = 0;
  auto model = make_model(p);

  const std::uint64_t t1 = model.reconcile_phase(100, 2);
  EXPECT_EQ(t1, 100u);
  // Next phase's fabric time is measured from t1, not from zero.
  model.charge(NetOp::kPut, 0, 1, 1000);
  EXPECT_EQ(model.reconcile_phase(t1 + 10, 2), t1 + 1000);
}

TEST(NetworkModelTest, BarrierCostAppliedAfterReconcile) {
  NetCostParams p;
  p.injection_cycles = 10;
  p.per_hop_cycles = 5;
  auto model = make_model(p);
  // No traffic: result = max clock + barrier cost for 4 PEs (2 rounds).
  EXPECT_EQ(model.reconcile_phase(1000, 4), 1000u + 2 * 15u);
}

TEST(NetworkModelTest, ResetPhaseDropsTraffic) {
  auto model = make_model();
  model.charge(NetOp::kPut, 0, 1, 1 << 20);
  model.reset_phase();
  EXPECT_EQ(model.phase_bytes(), 0u);
  NetCostParams p = model.params();
  EXPECT_EQ(model.reconcile_phase(7, 1), 7 + p.barrier_cycles(1));
}

TEST(NetworkModelTest, ResetTotals) {
  auto model = make_model();
  model.charge(NetOp::kPut, 0, 1, 10);
  model.reset_totals();
  const NetTotals t = model.totals();
  EXPECT_EQ(t.messages, 0u);
  EXPECT_EQ(t.bytes, 0u);
}

TEST(NetworkModelTest, ResetTotalsKeepsOpenPhaseTraffic) {
  NetCostParams p;
  p.fabric_bytes_per_cycle = 1.0;
  p.fabric_message_cycles = 100;
  p.message_header_bytes = 0;
  p.injection_cycles = 0;
  p.per_hop_cycles = 0;
  auto model = make_model(p);
  model.charge(NetOp::kPut, 0, 1, 5000);
  model.charge(NetOp::kGet, 1, 2, 3000);
  model.reset_totals();
  EXPECT_EQ(model.totals().messages, 0u);
  EXPECT_EQ(model.totals().bytes, 0u);
  // The open phase still holds both messages and all 8000 bytes.
  EXPECT_EQ(model.phase_bytes(), 8000u);
  EXPECT_EQ(model.reconcile_phase(0, 1), 8000u + 2 * 100u);
  EXPECT_EQ(model.phase_bytes(), 0u);
  // Traffic after the reset counts from zero.
  model.charge(NetOp::kAmo, 2, 3, 8);
  EXPECT_EQ(model.totals().messages, 2u);
  EXPECT_EQ(model.totals().bytes, 16u);
  EXPECT_EQ(model.totals().phases, 1u);
}

TEST(NetworkModelTest, ChargeEqualsCostQueriesOnEveryTopology) {
  for (const std::string topo :
       {"flat", "ring", "torus", "hypercube", "cluster2x4", "cluster2x2_4x6"}) {
    auto model = make_model(NetCostParams{}, topo, 8);
    const Topology& t = model.topology();
    for (int s = 0; s < 8; ++s) {
      for (int d = 0; d < 8; ++d) {
        if (s == d) continue;
        const auto h = static_cast<std::uint64_t>(t.hops(s, d));
        for (const std::size_t bytes : {1u, 8u, 4096u}) {
          const std::string where = topo + " " + std::to_string(s) + "->" +
                                    std::to_string(d) + " " +
                                    std::to_string(bytes) + " B";
          const NetTotals before = model.totals();
          EXPECT_EQ(model.charge(NetOp::kPut, s, d, bytes),
                    model.put_cost(s, d, bytes)) << where;
          EXPECT_EQ(model.charge(NetOp::kGet, s, d, bytes),
                    model.get_cost(s, d, bytes)) << where;
          EXPECT_EQ(model.charge(NetOp::kAmo, s, d, bytes),
                    model.get_cost(s, d, bytes) + model.put_cost(s, d, bytes))
              << where;
          // put + get + the AMO's get/put pair: four messages.
          const NetTotals after = model.totals();
          EXPECT_EQ(after.messages - before.messages, 4u) << where;
          EXPECT_EQ(after.puts - before.puts, 2u) << where;
          EXPECT_EQ(after.gets - before.gets, 2u) << where;
          EXPECT_EQ(after.hops - before.hops, 4 * h) << where;
          EXPECT_EQ(after.bytes - before.bytes,
                    4 * (bytes + NetCostParams{}.message_header_bytes))
              << where;
        }
      }
    }
  }
}

TEST(NetworkModelTest, PerPeShardsSumExactlyAcrossThreads) {
  constexpr int kPes = 8;
  constexpr std::uint64_t kOps = 20'000;
  NetCostParams p;
  p.fabric_bytes_per_cycle = 1.0;
  p.fabric_message_cycles = 3;
  p.message_header_bytes = 32;
  auto model = make_model(p, "ring", kPes);
  // Each thread is one PE and writes only its own shard, as PE fibers do.
  // Every message carries 8 + 32 bytes; an AMO is two messages.
  std::vector<std::thread> pes;
  for (int pe = 0; pe < kPes; ++pe) {
    pes.emplace_back([&model, pe] {
      const int peer = (pe + 1) % kPes;
      for (std::uint64_t i = 0; i < kOps; ++i) {
        model.charge(i % 2 == 0 ? NetOp::kPut : NetOp::kAmo, pe, peer, 8);
      }
    });
  }
  for (std::thread& t : pes) t.join();
  const std::uint64_t msgs = kPes * (kOps / 2) * 3;
  const NetTotals t = model.totals();
  EXPECT_EQ(t.messages, msgs);
  EXPECT_EQ(t.bytes, msgs * 40);
  EXPECT_EQ(t.puts, kPes * kOps);
  EXPECT_EQ(t.gets, kPes * (kOps / 2));
  EXPECT_EQ(t.hops, msgs);  // ring neighbours: one hop each
  EXPECT_EQ(model.phase_bytes(), msgs * 40);
  // The phase drains exactly: fabric time from anchor 0 covers every byte
  // and every message, then the next phase starts empty.
  const std::uint64_t want = msgs * 40 + msgs * 3 + p.barrier_cycles(kPes);
  EXPECT_EQ(model.reconcile_phase(0, kPes), want);
  EXPECT_EQ(model.phase_bytes(), 0u);
  EXPECT_EQ(model.reconcile_phase(want, kPes), want + p.barrier_cycles(kPes));
}

TEST(NetworkModelTest, InvalidBandwidthRejected) {
  NetCostParams p;
  p.fabric_bytes_per_cycle = 0.0;
  EXPECT_THROW(make_model(p), Error);
}

}  // namespace
}  // namespace xbgas
