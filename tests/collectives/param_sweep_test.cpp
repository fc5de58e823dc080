// Parameterized property sweeps: every collective, every (n_pes, root)
// combination up to 9 PEs, as TEST_P suites so each combination reports as
// its own test case. These complement the scenario tests by checking the
// *joint* behaviour of all four collectives plus composition under a single
// configuration.

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>
#include <vector>

#include "collectives/collectives.hpp"
#include "collectives/composed.hpp"
#include "collectives/ring.hpp"
#include "common/strfmt.hpp"
#include "helpers.hpp"

namespace xbgas {
namespace {

using PeRoot = std::tuple<int, int>;

std::vector<PeRoot> all_pe_root_pairs() {
  std::vector<PeRoot> out;
  for (int n = 1; n <= 9; ++n) {
    for (int root = 0; root < n; ++root) out.emplace_back(n, root);
  }
  return out;
}

std::string pe_root_name(const ::testing::TestParamInfo<PeRoot>& info) {
  return strfmt("n%d_root%d", std::get<0>(info.param),
                std::get<1>(info.param));
}

class CollectiveSweep : public ::testing::TestWithParam<PeRoot> {};

TEST_P(CollectiveSweep, AllFourCollectivesCompose) {
  const auto [n, root] = GetParam();
  testing::run_spmd(n, [&, n = n, root = root](PeContext& pe) {
    const int me = pe.rank();
    const auto un = static_cast<std::size_t>(n);

    // --- broadcast: every PE learns the root's vector -------------------
    constexpr std::size_t kElems = 5;
    auto* bcast = static_cast<long*>(xbrtime_malloc(kElems * sizeof(long)));
    std::vector<long> seed(kElems);
    for (std::size_t i = 0; i < kElems; ++i) {
      seed[i] = root * 100 + static_cast<long>(i);
    }
    broadcast(bcast, seed.data(), kElems, 1, root);
    for (std::size_t i = 0; i < kElems; ++i) {
      ASSERT_EQ(bcast[i], root * 100 + static_cast<long>(i));
    }

    // --- reduce: fold a value derived from the broadcast ----------------
    auto* contrib = static_cast<long*>(xbrtime_malloc(sizeof(long)));
    *contrib = bcast[0] + me;  // root*100 + rank
    long folded = -1;
    reduce<OpSum>(&folded, contrib, 1, 1, root);
    if (me == root) {
      ASSERT_EQ(folded, n * root * 100 + n * (n - 1) / 2);
    }

    // --- scatter/gather round trip with uneven counts -------------------
    std::vector<int> msgs(un), disp(un);
    for (int r = 0; r < n; ++r) {
      msgs[static_cast<std::size_t>(r)] = 1 + (r + root) % 3;
    }
    std::exclusive_scan(msgs.begin(), msgs.end(), disp.begin(), 0);
    const auto total = static_cast<std::size_t>(
        std::accumulate(msgs.begin(), msgs.end(), 0));
    std::vector<long> source(total);
    std::iota(source.begin(), source.end(), 7000);
    const auto mine = static_cast<std::size_t>(msgs[static_cast<std::size_t>(me)]);
    std::vector<long> slice(mine);
    std::vector<long> rebuilt(total, 0);

    scatter(slice.data(), source.data(), msgs.data(), disp.data(), total,
            root);
    for (std::size_t i = 0; i < mine; ++i) {
      ASSERT_EQ(slice[i],
                7000 + disp[static_cast<std::size_t>(me)] + static_cast<long>(i));
    }
    gather(rebuilt.data(), slice.data(), msgs.data(), disp.data(), total,
           root);
    if (me == root) {
      ASSERT_EQ(rebuilt, source);
    }

    xbrtime_barrier();
    xbrtime_free(contrib);
    xbrtime_free(bcast);
  });
}

INSTANTIATE_TEST_SUITE_P(AllPeRootPairs, CollectiveSweep,
                         ::testing::ValuesIn(all_pe_root_pairs()),
                         pe_root_name);

// ---------------------------------------------------------------------------
// Reduction-operator sweep: every op against a serial reference fold.
// ---------------------------------------------------------------------------

class ReduceOpSweep : public ::testing::TestWithParam<int> {};

template <class Op>
void check_against_serial(int n) {
  testing::run_spmd(n, [&](PeContext& pe) {
    auto* src = static_cast<std::uint32_t*>(
        xbrtime_malloc(4 * sizeof(std::uint32_t)));
    for (int i = 0; i < 4; ++i) {
      src[i] = static_cast<std::uint32_t>((pe.rank() * 7 + i * 3) % 13 + 1);
    }
    std::uint32_t out[4] = {};
    reduce<Op>(out, src, 4, 1, 0);
    if (pe.rank() == 0) {
      for (int i = 0; i < 4; ++i) {
        std::uint32_t expected =
            static_cast<std::uint32_t>((0 * 7 + i * 3) % 13 + 1);
        for (int r = 1; r < n; ++r) {
          expected = Op::apply(
              expected, static_cast<std::uint32_t>((r * 7 + i * 3) % 13 + 1));
        }
        EXPECT_EQ(out[i], expected) << "n=" << n << " i=" << i;
      }
    }
    xbrtime_barrier();
    xbrtime_free(src);
  });
}

TEST_P(ReduceOpSweep, EveryOperatorMatchesSerialFold) {
  const int n = GetParam();
  check_against_serial<OpSum>(n);
  check_against_serial<OpProd>(n);
  check_against_serial<OpMin>(n);
  check_against_serial<OpMax>(n);
  check_against_serial<OpBand>(n);
  check_against_serial<OpBor>(n);
  check_against_serial<OpBxor>(n);
}

INSTANTIATE_TEST_SUITE_P(PeCounts, ReduceOpSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 9),
                         [](const ::testing::TestParamInfo<int>& tpi) {
                           return strfmt("n%d", tpi.param);
                         });

// ---------------------------------------------------------------------------
// Stride sweep: broadcast and reduce over (stride, nelems) pairs.
// ---------------------------------------------------------------------------

using StrideCase = std::tuple<int, int>;  // (stride, nelems)

class StrideSweep : public ::testing::TestWithParam<StrideCase> {};

TEST_P(StrideSweep, BroadcastAndReduceHonourStride) {
  const auto [stride, nelems] = GetParam();
  testing::run_spmd(6, [&, stride = stride, nelems = nelems](PeContext& pe) {
    const auto un_elems = static_cast<std::size_t>(nelems);
    const std::size_t span =
        un_elems == 0 ? 1 : (un_elems - 1) * static_cast<std::size_t>(stride) + 1;
    auto* buf = static_cast<long*>(xbrtime_malloc(span * sizeof(long)));
    std::fill(buf, buf + span, -1);
    std::vector<long> src(span, 0);
    for (std::size_t i = 0; i < un_elems; ++i) {
      src[i * static_cast<std::size_t>(stride)] = static_cast<long>(i) + 1;
    }
    xbrtime_barrier();

    broadcast(buf, src.data(), un_elems, stride, 2);
    for (std::size_t i = 0; i < span; ++i) {
      if (i % static_cast<std::size_t>(stride) == 0 &&
          i / static_cast<std::size_t>(stride) < un_elems) {
        ASSERT_EQ(buf[i],
                  static_cast<long>(i / static_cast<std::size_t>(stride)) + 1);
      } else {
        ASSERT_EQ(buf[i], -1) << "gap clobbered";
      }
    }

    long out_span[64];
    std::fill(out_span, out_span + 64, -9);
    reduce<OpSum>(out_span, buf, un_elems, stride, 0);
    if (pe.rank() == 0) {
      for (std::size_t i = 0; i < un_elems; ++i) {
        ASSERT_EQ(out_span[i * static_cast<std::size_t>(stride)],
                  6 * (static_cast<long>(i) + 1));
      }
    }
    xbrtime_barrier();
    xbrtime_free(buf);
  });
}

INSTANTIATE_TEST_SUITE_P(
    StrideByElems, StrideSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values(0, 1, 4, 12)),
    [](const ::testing::TestParamInfo<StrideCase>& tpi) {
      return "stride" + std::to_string(std::get<0>(tpi.param)) + "_elems" +
             std::to_string(std::get<1>(tpi.param));
    });

// ---------------------------------------------------------------------------
// Algorithm-equivalence sweep: binomial, linear and ring broadcast must be
// observationally identical for every PE count.
// ---------------------------------------------------------------------------

class AlgorithmEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(AlgorithmEquivalence, TreeRingDeliverIdenticalResults) {
  const int n = GetParam();
  testing::run_spmd(n, [&](PeContext&) {
    auto* via_tree = static_cast<int*>(xbrtime_malloc(32 * sizeof(int)));
    auto* via_ring = static_cast<int*>(xbrtime_malloc(32 * sizeof(int)));
    std::vector<int> src(32);
    std::iota(src.begin(), src.end(), 100);
    xbrtime_barrier();
    const int root = (n > 1) ? 1 : 0;
    broadcast(via_tree, src.data(), 32, 1, root);
    ring_broadcast(via_ring, src.data(), 32, 1, root);
    for (int i = 0; i < 32; ++i) {
      ASSERT_EQ(via_tree[i], via_ring[i]);
      ASSERT_EQ(via_tree[i], 100 + i);
    }
    xbrtime_barrier();
    xbrtime_free(via_ring);
    xbrtime_free(via_tree);
  });
}

INSTANTIATE_TEST_SUITE_P(PeCounts, AlgorithmEquivalence,
                         ::testing::Range(1, 10),
                         [](const ::testing::TestParamInfo<int>& tpi) {
                           return strfmt("n%d", tpi.param);
                         });

}  // namespace
}  // namespace xbgas
