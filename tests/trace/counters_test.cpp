// CounterRegistry semantics plus the collect_counters aggregation contract:
// every registry value equals the sum (or max) of the raw stat fields it
// claims to aggregate, on a real machine doing real RMA.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "json_checker.hpp"
#include "trace/collect.hpp"
#include "trace/counters.hpp"
#include "xbrtime/rma.hpp"

namespace xbgas {
namespace {

TEST(CounterRegistryTest, SetAddGetRoundTrip) {
  CounterRegistry reg;
  EXPECT_FALSE(reg.get("missing").has_value());
  reg.set("a.b", 7);
  reg.add("a.b", 3);
  reg.add("fresh", 4);
  EXPECT_EQ(reg.get("a.b"), 10u);
  EXPECT_EQ(reg.get("fresh"), 4u);
  reg.set("a.b", 1);
  EXPECT_EQ(reg.get("a.b"), 1u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(CounterRegistryTest, PreservesInsertionOrder) {
  CounterRegistry reg;
  reg.set("zulu", 1);
  reg.set("alpha", 2);
  reg.add("mike", 3);
  const auto names = reg.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "zulu");
  EXPECT_EQ(names[1], "alpha");
  EXPECT_EQ(names[2], "mike");
}

TEST(CounterRegistryTest, JsonIsStrictlyValid) {
  CounterRegistry reg;
  reg.set("olb.hits", 12);
  reg.set("net.bytes", 345678);
  std::string error;
  const auto doc = testjson::parse(reg.json(), &error);
  ASSERT_NE(doc, nullptr) << error;
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->get("olb.hits")->number(), 12.0);
  EXPECT_EQ(doc->get("net.bytes")->number(), 345678.0);
}

TEST(CounterRegistryTest, EmptyJsonIsValid) {
  const auto doc = testjson::parse(CounterRegistry{}.json());
  ASSERT_NE(doc, nullptr);
  EXPECT_TRUE(doc->object().empty());
}

TEST(CounterRegistryTest, ClassedJsonKeepsOnlyThatClassInOrder) {
  CounterRegistry reg;
  reg.set("net.bytes", 9);
  reg.set("sched.naps", 5, CounterClass::kHost);
  reg.add("olb.hits", 2);
  const auto modeled = testjson::parse(reg.json(CounterClass::kModeled));
  ASSERT_NE(modeled, nullptr);
  EXPECT_EQ(modeled->object().size(), 2u);
  EXPECT_EQ(modeled->get("sched.naps"), nullptr);
  EXPECT_EQ(reg.json(CounterClass::kModeled),
            "{\n  \"net.bytes\": 9,\n  \"olb.hits\": 2\n}\n");
  EXPECT_EQ(reg.json(CounterClass::kHost), "{\n  \"sched.naps\": 5\n}\n");
  // The unfiltered dump is unchanged by classes.
  EXPECT_EQ(testjson::parse(reg.json())->object().size(), 3u);
}

class CollectCountersTest : public ::testing::Test {
 protected:
  // 4 PEs in a ring so hop counts are nontrivial; tracing on so the
  // trace.* counters are live too.
  MachineConfig config() {
    MachineConfig c;
    c.n_pes = 4;
    c.topology_name = "ring";
    c.trace.enabled = true;
    return c;
  }

  void run_workload(Machine& machine) {
    machine.run([](PeContext& pe) {
      xbrtime_init();
      auto* buf = static_cast<std::uint64_t*>(
          xbrtime_malloc(64 * sizeof(std::uint64_t)));
      std::uint64_t local[64] = {};
      const int me = pe.rank();
      const int right = (me + 1) % pe.n_pes();
      for (int rep = 0; rep < 3; ++rep) {
        xbr_put(buf, local, 64, 1, right);
        xbr_get(local, buf, 16, 1, right);
        xbrtime_barrier();
      }
      xbrtime_free(buf);
      xbrtime_close();
    });
  }
};

TEST_F(CollectCountersTest, AggregatesMatchRawStatFields) {
  Machine machine(config());
  run_workload(machine);
  const CounterRegistry reg = collect_counters(machine);

  std::uint64_t olb_lookups = 0, olb_hits = 0, olb_misses = 0, olb_local = 0;
  std::uint64_t l1_hits = 0, l1_misses = 0, l1_evictions = 0;
  std::uint64_t tlb_accesses = 0;
  for (int r = 0; r < machine.n_pes(); ++r) {
    const auto& olb = machine.pe(r).olb().stats();
    olb_lookups += olb.lookups;
    olb_hits += olb.hits;
    olb_misses += olb.misses;
    olb_local += olb.local_shortcuts;
    const auto& l1 = machine.pe(r).cache().l1().stats();
    l1_hits += l1.hits;
    l1_misses += l1.misses;
    l1_evictions += l1.evictions;
    tlb_accesses += machine.pe(r).cache().tlb().stats().accesses;
  }
  EXPECT_EQ(reg.get("olb.lookups"), olb_lookups);
  EXPECT_EQ(reg.get("olb.hits"), olb_hits);
  EXPECT_EQ(reg.get("olb.misses"), olb_misses);
  EXPECT_EQ(reg.get("olb.local_shortcuts"), olb_local);
  EXPECT_EQ(reg.get("cache.l1.hits"), l1_hits);
  EXPECT_EQ(reg.get("cache.l1.misses"), l1_misses);
  EXPECT_EQ(reg.get("cache.l1.evictions"), l1_evictions);
  EXPECT_EQ(reg.get("cache.tlb.accesses"), tlb_accesses);

  const NetTotals net = machine.network().totals();
  EXPECT_EQ(reg.get("net.messages"), net.messages);
  EXPECT_EQ(reg.get("net.bytes"), net.bytes);
  EXPECT_EQ(reg.get("net.puts"), net.puts);
  EXPECT_EQ(reg.get("net.gets"), net.gets);
  EXPECT_EQ(reg.get("net.hops"), net.hops);
  EXPECT_EQ(reg.get("net.phases"), net.phases);
  EXPECT_EQ(reg.get("net.stall_cycles"), net.stall_cycles);

  EXPECT_EQ(reg.get("cycles.max"), machine.max_cycles());
  EXPECT_EQ(reg.get("machine.pes"), 4u);
  EXPECT_EQ(reg.get("trace.enabled"), 1u);
  EXPECT_EQ(reg.get("trace.recorded"), machine.tracer().total_recorded());
}

TEST_F(CollectCountersTest, OlbHitsPlusMissesEqualRemoteRmaCount) {
  // The acceptance invariant: every remote RMA performs exactly one OLB
  // translation, so OLB hits + misses == network messages from RMA.
  Machine machine(config());
  run_workload(machine);
  const CounterRegistry reg = collect_counters(machine);
  EXPECT_EQ(*reg.get("olb.hits") + *reg.get("olb.misses"),
            *reg.get("net.messages"));
  // This workload never misses: every peer segment is OLB-resident.
  EXPECT_EQ(*reg.get("olb.misses"), 0u);
  // 4 PEs x 3 reps x (1 put + 1 get).
  EXPECT_EQ(*reg.get("net.messages"), 24u);
  EXPECT_EQ(*reg.get("net.puts"), 12u);
  EXPECT_EQ(*reg.get("net.gets"), 12u);
}

TEST_F(CollectCountersTest, HopTotalsFollowRingTopology) {
  Machine machine(config());
  run_workload(machine);
  const CounterRegistry reg = collect_counters(machine);
  // Right-neighbour traffic on a 4-ring is always 1 hop per message.
  EXPECT_EQ(*reg.get("net.hops"), *reg.get("net.messages"));
}

TEST_F(CollectCountersTest, TracingOffStillCollectsCounters) {
  MachineConfig c = config();
  c.trace.enabled = false;
  Machine machine(c);
  run_workload(machine);
  const CounterRegistry reg = collect_counters(machine);
  EXPECT_EQ(reg.get("trace.enabled"), 0u);
  EXPECT_EQ(reg.get("trace.recorded"), 0u);
  EXPECT_EQ(*reg.get("net.messages"), 24u);
}

TEST_F(CollectCountersTest, ModeledSnapshotIsEverythingButHostScheduler) {
  // Replay checks compare json(CounterClass::kModeled); pin its contents so
  // a counter cannot drop out of them unnoticed. Exactly the four host
  // scheduler counters are excluded.
  Machine machine(config());
  run_workload(machine);
  const CounterRegistry reg = collect_counters(machine);
  const std::set<std::string> host{"sched.workers", "sched.switches",
                                   "sched.yields_waiting", "sched.naps"};
  std::vector<std::string> expect;
  for (const std::string& name : reg.names()) {
    if (host.count(name) == 0) expect.push_back(name);
  }
  EXPECT_EQ(expect.size() + host.size(), reg.size());

  std::string error;
  const auto doc = testjson::parse(reg.json(CounterClass::kModeled), &error);
  ASSERT_NE(doc, nullptr) << error;
  std::vector<std::string> got;
  for (const auto& [name, value] : doc->object()) got.push_back(name);
  std::sort(expect.begin(), expect.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect);
}

}  // namespace
}  // namespace xbgas
