// CollectivePolicy unit tests: parsing, cost-model shape, crossover search,
// forced-family fallback rules, and the dispatch bookkeeping (process-wide
// counters + kCollDispatch trace events).

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "collectives/composed.hpp"
#include "collectives/policy.hpp"
#include "common/error.hpp"
#include "helpers.hpp"

namespace xbgas {
namespace {

MachineConfig policy_config(int n, const std::string& topology = "flat",
                            const std::string& algo = "auto") {
  MachineConfig config = testing::test_config(n);
  config.topology_name = topology;
  config.coll_algo = algo;
  return config;
}

TEST(PolicyTest, ParseAndNameRoundTrip) {
  for (const auto algo : {CollAlgo::kAuto, CollAlgo::kTree, CollAlgo::kRing,
                          CollAlgo::kHier}) {
    EXPECT_EQ(parse_coll_algo(coll_algo_name(algo)), algo);
  }
  EXPECT_THROW(parse_coll_algo("binomial"), Error);
  EXPECT_THROW(parse_coll_algo(""), Error);
  EXPECT_STREQ(coll_kind_name(CollKind::kAllreduce), "allreduce");
}

TEST(PolicyTest, CostsGrowWithPayloadAndPes) {
  const CollectivePolicy policy(policy_config(8));
  for (const auto kind : {CollKind::kBroadcast, CollKind::kReduce,
                          CollKind::kAllreduce, CollKind::kAllgather}) {
    EXPECT_LT(policy.tree_cost(kind, 8, 64, 8),
              policy.tree_cost(kind, 8, 4096, 8));
    EXPECT_LT(policy.ring_cost(kind, 8, 64, 8),
              policy.ring_cost(kind, 8, 4096, 8));
    EXPECT_LT(policy.tree_cost(kind, 4, 256, 8),
              policy.tree_cost(kind, 16, 256, 8));
    // Single PE: every family is free.
    EXPECT_EQ(policy.tree_cost(kind, 1, 4096, 8), 0.0);
    EXPECT_EQ(policy.ring_cost(kind, 1, 4096, 8), 0.0);
  }
}

TEST(PolicyTest, TreeWinsSmallRingWinsLarge) {
  const CollectivePolicy policy(policy_config(8));
  // Latency-bound: log2(8)=3 stages beat 14 ring steps on one element.
  EXPECT_LT(policy.tree_cost(CollKind::kAllreduce, 8, 1, 8),
            policy.ring_cost(CollKind::kAllreduce, 8, 1, 8));
  // Bandwidth-bound: 2(n-1) chunks of B/n beat 2*log2(n) full payloads.
  EXPECT_GT(policy.tree_cost(CollKind::kAllreduce, 8, 1 << 16, 8),
            policy.ring_cost(CollKind::kAllreduce, 8, 1 << 16, 8));
  const std::size_t cross = policy.crossover_nelems(CollKind::kAllreduce, 8, 8);
  ASSERT_NE(cross, std::numeric_limits<std::size_t>::max());
  EXPECT_GT(cross, std::size_t{1});
  EXPECT_LT(cross, std::size_t{1} << 16);
  // choose() agrees with the crossover on both sides.
  EXPECT_EQ(policy.choose(CollKind::kAllreduce, 8, cross / 2, 8),
            CollAlgo::kTree);
  EXPECT_EQ(policy.choose(CollKind::kAllreduce, 8, cross * 2, 8),
            CollAlgo::kRing);
}

TEST(PolicyTest, ForcedFamilyHonoredWithEligibilityFallback) {
  const CollectivePolicy tree(policy_config(8, "flat", "tree"));
  const CollectivePolicy ring(policy_config(8, "flat", "ring"));
  EXPECT_EQ(tree.forced(), CollAlgo::kTree);
  EXPECT_EQ(tree.choose(CollKind::kAllreduce, 8, 1 << 20, 8),
            CollAlgo::kTree);
  EXPECT_EQ(ring.choose(CollKind::kBroadcast, 8, 1, 8), CollAlgo::kRing);
  // Ring degenerates to tree on a single PE.
  EXPECT_EQ(ring.choose(CollKind::kBroadcast, 1, 1024, 8), CollAlgo::kTree);
  // Hier on a non-cluster fabric falls back to tree.
  const CollectivePolicy hier_flat(policy_config(8, "flat", "hier"));
  EXPECT_FALSE(hier_flat.hier_eligible(CollKind::kBroadcast, 8));
  EXPECT_EQ(hier_flat.choose(CollKind::kBroadcast, 8, 1024, 8),
            CollAlgo::kTree);
}

TEST(PolicyTest, HierEligibleOnlyOnMatchingCluster) {
  const CollectivePolicy policy(policy_config(8, "cluster4x8", "hier"));
  EXPECT_EQ(policy.cluster_group(), 4);
  // The arbitrary-depth engine covers every collective kind.
  EXPECT_TRUE(policy.hier_eligible(CollKind::kBroadcast, 8));
  EXPECT_TRUE(policy.hier_eligible(CollKind::kAllreduce, 8));
  EXPECT_TRUE(policy.hier_eligible(CollKind::kReduce, 8));
  EXPECT_TRUE(policy.hier_eligible(CollKind::kAllgather, 8));
  // Group must strictly divide the PE count.
  EXPECT_FALSE(policy.hier_eligible(CollKind::kBroadcast, 6));
  EXPECT_FALSE(policy.hier_eligible(CollKind::kBroadcast, 4));
  EXPECT_EQ(policy.choose(CollKind::kBroadcast, 8, 1024, 8), CollAlgo::kHier);
  // ...but never off the world communicator.
  EXPECT_EQ(policy.choose(CollKind::kBroadcast, 8, 1024, 8, /*world=*/false),
            CollAlgo::kTree);
}

TEST(PolicyTest, CostsMonotoneInPayload) {
  // Regression for the allgather model: `bytes / n` truncated sub-n_pes
  // payloads to zero bytes per stage (and a dead min(sub, n) clamp hid it),
  // making the cost non-monotone around nelems == n_pes. Every family must
  // now be monotone non-decreasing in the element count for every kind.
  const CollectivePolicy flat(policy_config(8));
  const CollectivePolicy clustered(policy_config(8, "cluster4x8", "auto"));
  const std::size_t sizes[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17,
                               64, 256, 1000, 4096, 1 << 16};
  for (const auto kind : {CollKind::kBroadcast, CollKind::kReduce,
                          CollKind::kAllreduce, CollKind::kAllgather}) {
    double prev_tree = 0.0, prev_ring = 0.0, prev_hier = 0.0;
    for (const std::size_t nelems : sizes) {
      const double tree = flat.tree_cost(kind, 8, nelems, 8);
      const double ring = flat.ring_cost(kind, 8, nelems, 8);
      const double hier = clustered.hier_cost(kind, 8, nelems, 8);
      EXPECT_GE(tree, prev_tree) << coll_kind_name(kind) << " n=" << nelems;
      EXPECT_GE(ring, prev_ring) << coll_kind_name(kind) << " n=" << nelems;
      EXPECT_GE(hier, prev_hier) << coll_kind_name(kind) << " n=" << nelems;
      prev_tree = tree;
      prev_ring = ring;
      prev_hier = hier;
    }
  }
  // The specific broken point: fewer elements than PEs still moves bytes.
  EXPECT_GT(flat.tree_cost(CollKind::kAllgather, 8, 3, 8),
            flat.tree_cost(CollKind::kAllgather, 8, 0, 8));
}

TEST(PolicyTest, PolicyCacheFollowsMachineInstance) {
  // Regression: active_collective_policy() used to key its thread-local
  // cache on the raw Machine*. Worker threads (and their thread_locals)
  // outlive Machines since fiber pooling, so a second Machine reusing the
  // first one's address dispatched with the FIRST machine's policy. The
  // two scoped blocks below put both Machines in the same stack slot to
  // force address reuse; the cache is now keyed by Machine::instance_id().
  reset_coll_dispatch_counts();
  {
    Machine machine(policy_config(8, "cluster4x8", "hier"));
    machine.run([&](PeContext&) {
      xbrtime_init();
      auto* dest = static_cast<long*>(xbrtime_malloc(64 * sizeof(long)));
      long src[64] = {};
      xbrtime_barrier();
      dispatch_broadcast(dest, src, 64, 1, 0);
      xbrtime_barrier();
      xbrtime_free(dest);
      xbrtime_close();
    });
  }
  const CollDispatchCounts first = coll_dispatch_counts();
  EXPECT_EQ(first.by_algo[static_cast<int>(CollAlgo::kHier)], 8u);

  reset_coll_dispatch_counts();
  {
    Machine machine(policy_config(8, "flat", "tree"));
    machine.run([&](PeContext&) {
      xbrtime_init();
      auto* dest = static_cast<long*>(xbrtime_malloc(64 * sizeof(long)));
      long src[64] = {};
      xbrtime_barrier();
      dispatch_broadcast(dest, src, 64, 1, 0);
      xbrtime_barrier();
      xbrtime_free(dest);
      xbrtime_close();
    });
  }
  const CollDispatchCounts second = coll_dispatch_counts();
  // Dispatch must follow the SECOND machine's config, not a stale cache.
  EXPECT_EQ(second.total, 8u);
  EXPECT_EQ(second.by_algo[static_cast<int>(CollAlgo::kHier)], 0u);
  EXPECT_EQ(second.by_algo[static_cast<int>(CollAlgo::kTree)], 8u);
}

TEST(PolicyTest, DispatchCountersAndTraceEvents) {
  MachineConfig config = policy_config(4, "flat", "ring");
  config.trace.enabled = true;
  Machine machine(config);
  reset_coll_dispatch_counts();
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* dest = static_cast<long*>(xbrtime_malloc(8 * sizeof(long)));
    long src[8] = {1, 2, 3, 4, 5, 6, 7, static_cast<long>(pe.rank())};
    xbrtime_barrier();
    reduce_all<OpSum>(dest, src, 8, 1);
    xbrtime_barrier();
    xbrtime_free(dest);
    xbrtime_close();
  });
  const CollDispatchCounts counts = coll_dispatch_counts();
  EXPECT_EQ(counts.total, 4u);  // one dispatch per PE
  EXPECT_EQ(counts.auto_resolved, 0u);  // family was forced
  EXPECT_EQ(counts.by_algo[static_cast<int>(CollAlgo::kRing)], 4u);
  EXPECT_EQ(counts.by_kind_algo[static_cast<int>(CollKind::kAllreduce)]
                               [static_cast<int>(CollAlgo::kRing)],
            4u);
  // Every PE recorded a coll_dispatch event encoding (kind, algo, bytes).
  int dispatch_events = 0;
  for (int r = 0; r < 4; ++r) {
    const EventRing* ring = machine.tracer().ring(r);
    ASSERT_NE(ring, nullptr);
    for (const TraceEvent& ev : ring->snapshot()) {
      if (ev.kind != EventKind::kCollDispatch) continue;
      ++dispatch_events;
      EXPECT_EQ(ev.a >> 8, static_cast<std::uint64_t>(CollKind::kAllreduce));
      EXPECT_EQ(ev.a & 0xFF, static_cast<std::uint64_t>(CollAlgo::kRing));
      EXPECT_EQ(ev.b, 8u * sizeof(long));
    }
  }
  EXPECT_EQ(dispatch_events, 4);

  reset_coll_dispatch_counts();
  EXPECT_EQ(coll_dispatch_counts().total, 0u);
}

TEST(PolicyTest, AutoDispatchCountsResolvedDecisions) {
  Machine machine(policy_config(4));
  reset_coll_dispatch_counts();
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* dest = static_cast<long*>(xbrtime_malloc(sizeof(long)));
    long mine = pe.rank();
    xbrtime_barrier();
    reduce_all<OpSum>(dest, &mine, 1, 1);  // tiny payload: model picks tree
    xbrtime_barrier();
    xbrtime_free(dest);
    xbrtime_close();
  });
  const CollDispatchCounts counts = coll_dispatch_counts();
  EXPECT_EQ(counts.total, 4u);
  EXPECT_EQ(counts.auto_resolved, 4u);
  EXPECT_EQ(counts.by_algo[static_cast<int>(CollAlgo::kTree)], 4u);
}

}  // namespace
}  // namespace xbgas
