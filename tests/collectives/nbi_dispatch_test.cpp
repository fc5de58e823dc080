// Regressions for the dispatched nbi collectives: the request accounting
// (one coll.pipeline.waits per issued collective per PE) and the tuned
// chunk knob reaching the pipelined ring schedule.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "collectives/nbi.hpp"
#include "helpers.hpp"

namespace xbgas {
namespace {

TEST(NbiDispatchTest, TreeReduceAllCountsOneWaitPerPe) {
  constexpr int kPes = 8;
  MachineConfig config = testing::test_config(kPes);
  config.coll_algo = "tree";
  config.coll_radix = 2;
  Machine machine(config);
  reset_coll_pipeline_counters();
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* dest = static_cast<long*>(xbrtime_malloc(64 * sizeof(long)));
    std::vector<long> src(64, pe.rank() + 1);
    xbrtime_barrier();
    xbr_reduce_all_nbi<OpSum>(dest, src.data(), 64, 1).wait();
    for (std::size_t i = 0; i < 64; ++i) {
      EXPECT_EQ(dest[i], kPes * (kPes + 1) / 2) << "pe=" << pe.rank();
    }
    xbrtime_barrier();
    xbrtime_free(dest);
    xbrtime_close();
  });
  const CollPipelineCounters after = coll_pipeline_counters();
  EXPECT_EQ(after.collectives, static_cast<std::uint64_t>(kPes));
  EXPECT_EQ(after.waits, static_cast<std::uint64_t>(kPes));
}

TEST(NbiDispatchTest, RingBroadcastHonorsTunedChunk) {
  constexpr int kPes = 8;
  constexpr std::size_t kElems = 8192;
  const std::string path = "nbi_dispatch_ring_chunk.table";
  TuneTable table;
  table.insert(TuneEntry{CollKind::kBroadcast, kPes, kElems * sizeof(long),
                         CollAlgo::kRing, 2, /*chunk=*/2048});
  table.save(path);

  MachineConfig config = testing::test_config(kPes);
  config.coll_tune_table = path;
  Machine machine(config);
  reset_coll_pipeline_counters();
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* dest = static_cast<long*>(xbrtime_malloc(kElems * sizeof(long)));
    std::vector<long> src(kElems);
    for (std::size_t i = 0; i < kElems; ++i) src[i] = static_cast<long>(i) * 3;
    xbrtime_barrier();
    xbr_broadcast_nbi(dest, src.data(), kElems, 1, /*root=*/2).wait();
    for (std::size_t i = 0; i < kElems; ++i) {
      ASSERT_EQ(dest[i], static_cast<long>(i) * 3) << "pe=" << pe.rank();
    }
    xbrtime_barrier();
    xbrtime_free(dest);
    xbrtime_close();
  });
  std::remove(path.c_str());
  // 2048-element chunks split 8192 elements into 4 segments; every PE but
  // the chain's tail forwards each segment once.
  EXPECT_EQ(coll_pipeline_counters().chunks,
            static_cast<std::uint64_t>((kPes - 1) * 4));
}

}  // namespace
}  // namespace xbgas
