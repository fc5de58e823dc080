// Randomized stress: a long, seeded sequence of mixed collectives, RMA and
// staging traffic. Every PE derives the same operation sequence from the
// shared seed (SPMD discipline) and every operand value is a pure function
// of (op index, rank, position), so each PE can check every result exactly.
// Catches cross-collective interference: staging reuse, barrier pairing,
// clock reconciliation and buffer lifetime bugs that single-op tests miss.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "collectives/collectives.hpp"
#include "collectives/composed.hpp"
#include "common/strfmt.hpp"
#include "collectives/ring.hpp"
#include "common/rng.hpp"
#include "xbrtime/rma.hpp"

namespace xbgas {
namespace {

MachineConfig config(int n_pes) {
  MachineConfig c;
  c.n_pes = n_pes;
  c.layout =
      MemoryLayout{.private_bytes = 128 * 1024, .shared_bytes = 2 << 20};
  return c;
}

long value_of(int op_index, int rank, std::size_t i) {
  return op_index * 10000 + rank * 100 + static_cast<long>(i);
}

class StressTest : public ::testing::TestWithParam<int> {};

TEST_P(StressTest, LongMixedCollectiveSequence) {
  const int n = GetParam();
  constexpr int kOps = 60;
  Machine machine(config(n));
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    const int me = pe.rank();
    const auto un = static_cast<std::size_t>(n);
    constexpr std::size_t kMax = 64;

    auto* shared = static_cast<long*>(xbrtime_malloc(kMax * sizeof(long)));
    auto* aux = static_cast<long*>(xbrtime_malloc(kMax * sizeof(long)));
    Xoshiro256ss rng(2026);  // identical stream on every PE

    for (int op = 0; op < kOps; ++op) {
      const int kind = static_cast<int>(rng.next_below(6));
      const int root = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      const auto nelems = 1 + rng.next_below(kMax - 1);
      xbrtime_barrier();  // buffer-reuse fence between operations

      switch (kind) {
        case 0: {  // broadcast
          std::vector<long> src(nelems);
          for (std::size_t i = 0; i < nelems; ++i) {
            src[i] = value_of(op, root, i);
          }
          broadcast(shared, src.data(), nelems, 1, root);
          for (std::size_t i = 0; i < nelems; ++i) {
            ASSERT_EQ(shared[i], value_of(op, root, i)) << "op " << op;
          }
          break;
        }
        case 1: {  // reduce
          for (std::size_t i = 0; i < nelems; ++i) {
            shared[i] = value_of(op, me, i);
          }
          xbrtime_barrier();
          std::vector<long> out(nelems, -1);
          reduce<OpSum>(out.data(), shared, nelems, 1, root);
          if (me == root) {
            for (std::size_t i = 0; i < nelems; ++i) {
              long expected = 0;
              for (int r = 0; r < n; ++r) expected += value_of(op, r, i);
              ASSERT_EQ(out[i], expected) << "op " << op;
            }
          }
          break;
        }
        case 2: {  // scatter + gather round trip
          std::vector<int> msgs(un), disp(un);
          for (int r = 0; r < n; ++r) {
            msgs[static_cast<std::size_t>(r)] =
                static_cast<int>((nelems + static_cast<std::size_t>(r)) % 4);
          }
          std::exclusive_scan(msgs.begin(), msgs.end(), disp.begin(), 0);
          const auto total = static_cast<std::size_t>(
              std::accumulate(msgs.begin(), msgs.end(), 0));
          std::vector<long> src(std::max<std::size_t>(total, 1));
          for (std::size_t i = 0; i < total; ++i) src[i] = value_of(op, 0, i);
          const auto mine =
              static_cast<std::size_t>(msgs[static_cast<std::size_t>(me)]);
          std::vector<long> slice(std::max<std::size_t>(mine, 1));
          std::vector<long> back(std::max<std::size_t>(total, 1), 0);
          scatter(slice.data(), src.data(), msgs.data(), disp.data(), total,
                  root);
          gather(back.data(), slice.data(), msgs.data(), disp.data(), total,
                 root);
          if (me == root) {
            for (std::size_t i = 0; i < total; ++i) {
              ASSERT_EQ(back[i], value_of(op, 0, i)) << "op " << op;
            }
          }
          break;
        }
        case 3: {  // reduce_all over aux
          for (std::size_t i = 0; i < nelems; ++i) {
            aux[i] = static_cast<long>(me) + static_cast<long>(i);
          }
          xbrtime_barrier();
          reduce_all<OpMax>(shared, aux, nelems, 1);
          for (std::size_t i = 0; i < nelems; ++i) {
            ASSERT_EQ(shared[i], n - 1 + static_cast<long>(i)) << "op " << op;
          }
          break;
        }
        case 4: {  // ring broadcast
          std::vector<long> src(nelems);
          for (std::size_t i = 0; i < nelems; ++i) {
            src[i] = value_of(op, root, i) + 1;
          }
          ring_broadcast(shared, src.data(), nelems, 1, root);
          for (std::size_t i = 0; i < nelems; ++i) {
            ASSERT_EQ(shared[i], value_of(op, root, i) + 1) << "op " << op;
          }
          break;
        }
        case 5: {  // raw RMA ring: pass a token around via put
          shared[0] = -1;
          xbrtime_barrier();  // sentinels in place before any put lands
          const long token = value_of(op, me, 0);
          xbr_put(shared, &token, 1, 1, (me + 1) % n);
          xbrtime_barrier();
          ASSERT_EQ(shared[0], value_of(op, (me - 1 + n) % n, 0))
              << "op " << op;
          break;
        }
        default:
          break;
      }
    }

    xbrtime_barrier();
    xbrtime_free(aux);
    xbrtime_free(shared);
    xbrtime_close();
  });
}

INSTANTIATE_TEST_SUITE_P(PeCounts, StressTest, ::testing::Values(1, 2, 3, 5, 8),
                         [](const ::testing::TestParamInfo<int>& tpi) {
                           return strfmt("n%d", tpi.param);
                         });

TEST(StressTest, DeterministicSimulatedTime) {
  // The stress sequence must produce identical simulated makespans across
  // two fresh machines — the determinism guarantee the whole evaluation
  // rests on.
  auto run_once = [] {
    Machine machine(config(4));
    machine.run([&](PeContext&) {
      xbrtime_init();
      auto* buf = static_cast<long*>(xbrtime_malloc(32 * sizeof(long)));
      Xoshiro256ss rng(7);
      for (int op = 0; op < 20; ++op) {
        std::vector<long> src(32, static_cast<long>(rng.next_below(100)));
        broadcast(buf, src.data(), 32, 1, static_cast<int>(rng.next_below(4)));
        reduce_all<OpSum>(buf, buf, 32, 1);
      }
      xbrtime_barrier();
      xbrtime_free(buf);
      xbrtime_close();
    });
    return machine.max_cycles();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace xbgas
