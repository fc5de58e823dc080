// Modeled-cycle pins for the dispatched collectives.
//
// Every row is one (kind, family, completion mode, stride, root, size) point
// measured warm-then-measure on a 16-PE cluster4x32 machine: the call runs
// once to settle forwarding sets and staging high-water, then again between
// bracketing barriers; the rank-0 clock delta is the makespan. The modeled
// machine is deterministic, so the table is compared exactly: a schedule
// refactor that moves any number here changed the model, not the code shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "collectives/composed.hpp"
#include "collectives/nbi.hpp"
#include "helpers.hpp"

namespace xbgas {
namespace {

struct Row {
  std::string kind;    ///< broadcast | reduce | reduce_all | fcollect
  std::string family;  ///< tree_r2 | tree_r4 | ring | hier
  std::string mode;    ///< blocking | nbi
  int stride;
  int root;
  std::size_t nelems;  ///< fcollect: per-PE elements
  std::uint64_t cycles;

  bool same_point(const Row& o) const {
    return kind == o.kind && family == o.family && mode == o.mode &&
           stride == o.stride && root == o.root && nelems == o.nelems;
  }
};

std::string format_row(const Row& r) {
  std::ostringstream out;
  out << "{\"" << r.kind << "\", \"" << r.family << "\", \"" << r.mode
      << "\", " << r.stride << ", " << r.root << ", " << r.nelems << ", "
      << r.cycles << "},";
  return out.str();
}

constexpr int kPes = 16;
constexpr int kRoots[] = {0, 5};
constexpr int kStrides[] = {1, 3};
constexpr std::size_t kSizes[] = {8, 1024};

/// Measure every row of one family on a fresh machine.
std::vector<Row> measure_family(const std::string& family) {
  MachineConfig config = testing::test_config(kPes);
  config.topology_name = "cluster4x32";
  config.coll_algo = family.substr(0, 4) == "tree" ? "tree" : family;
  config.coll_radix = family == "tree_r4" ? 4 : 0;

  const std::size_t max_span = 3 * kSizes[1];
  std::vector<Row> rows;
  Machine machine(config);
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* dest = static_cast<long*>(
        xbrtime_malloc(max_span * kPes * sizeof(long)));
    std::vector<long> src(max_span);
    for (std::size_t i = 0; i < max_span; ++i) {
      src[i] = pe.rank() * 7 + static_cast<long>(i);
    }
    const auto measure = [&](Row row, const auto& call) {
      call();
      xbrtime_barrier();
      const std::uint64_t t0 = pe.clock().cycles();
      call();
      xbrtime_barrier();
      const std::uint64_t t1 = pe.clock().cycles();
      if (pe.rank() == 0) {
        row.family = family;
        row.cycles = t1 - t0;
        rows.push_back(row);
      }
    };
    for (const std::size_t n : kSizes) {
      for (const int stride : kStrides) {
        for (const int root : kRoots) {
          measure(Row{"broadcast", "", "blocking", stride, root, n, 0}, [&] {
            dispatch_broadcast(dest, src.data(), n, stride, root);
          });
          measure(Row{"broadcast", "", "nbi", stride, root, n, 0}, [&] {
            xbr_broadcast_nbi(dest, src.data(), n, stride, root).wait();
          });
          measure(Row{"reduce", "", "blocking", stride, root, n, 0}, [&] {
            dispatch_reduce<OpSum>(dest, src.data(), n, stride, root);
          });
          measure(Row{"reduce", "", "nbi", stride, root, n, 0}, [&] {
            xbr_reduce_nbi<OpSum>(dest, src.data(), n, stride, root).wait();
          });
        }
        measure(Row{"reduce_all", "", "blocking", stride, 0, n, 0}, [&] {
          dispatch_reduce_all<OpSum>(dest, src.data(), n, stride);
        });
        measure(Row{"reduce_all", "", "nbi", stride, 0, n, 0}, [&] {
          xbr_reduce_all_nbi<OpSum>(dest, src.data(), n, stride).wait();
        });
      }
      const std::size_t per = std::max<std::size_t>(n / kPes, 1);
      measure(Row{"fcollect", "", "blocking", 1, 0, per, 0},
              [&] { dispatch_fcollect(dest, src.data(), per); });
      measure(Row{"fcollect", "", "nbi", 1, 0, per, 0},
              [&] { xbr_fcollect_nbi(dest, src.data(), per).wait(); });
    }
    xbrtime_barrier();
    xbrtime_free(dest);
    xbrtime_close();
  });
  return rows;
}

const std::vector<Row> kGolden = {
    {"broadcast", "tree_r2", "blocking", 1, 0, 8, 1480},
    {"broadcast", "tree_r2", "nbi", 1, 0, 8, 1480},
    {"reduce", "tree_r2", "blocking", 1, 0, 8, 1912},
    {"reduce", "tree_r2", "nbi", 1, 0, 8, 1864},
    {"broadcast", "tree_r2", "blocking", 1, 5, 8, 1480},
    {"broadcast", "tree_r2", "nbi", 1, 5, 8, 1480},
    {"reduce", "tree_r2", "blocking", 1, 5, 8, 1922},
    {"reduce", "tree_r2", "nbi", 1, 5, 8, 1864},
    {"reduce_all", "tree_r2", "blocking", 1, 0, 8, 3296},
    {"reduce_all", "tree_r2", "nbi", 1, 0, 8, 3248},
    {"broadcast", "tree_r2", "blocking", 3, 0, 8, 1488},
    {"broadcast", "tree_r2", "nbi", 3, 0, 8, 1488},
    {"reduce", "tree_r2", "blocking", 3, 0, 8, 1912},
    {"reduce", "tree_r2", "nbi", 3, 0, 8, 1864},
    {"broadcast", "tree_r2", "blocking", 3, 5, 8, 1488},
    {"broadcast", "tree_r2", "nbi", 3, 5, 8, 1488},
    {"reduce", "tree_r2", "blocking", 3, 5, 8, 1922},
    {"reduce", "tree_r2", "nbi", 3, 5, 8, 1864},
    {"reduce_all", "tree_r2", "blocking", 3, 0, 8, 3304},
    {"reduce_all", "tree_r2", "nbi", 3, 0, 8, 3256},
    {"fcollect", "tree_r2", "blocking", 1, 0, 1, 3236},
    {"fcollect", "tree_r2", "nbi", 1, 0, 1, 3236},
    {"broadcast", "tree_r2", "blocking", 1, 0, 1024, 33042},
    {"broadcast", "tree_r2", "nbi", 1, 0, 1024, 32560},
    {"reduce", "tree_r2", "blocking", 1, 0, 1024, 36408},
    {"reduce", "tree_r2", "nbi", 1, 0, 1024, 33208},
    {"broadcast", "tree_r2", "blocking", 1, 5, 1024, 33042},
    {"broadcast", "tree_r2", "nbi", 1, 5, 1024, 32560},
    {"reduce", "tree_r2", "blocking", 1, 5, 1024, 36408},
    {"reduce", "tree_r2", "nbi", 1, 5, 1024, 33208},
    {"reduce_all", "tree_r2", "blocking", 1, 0, 1024, 68362},
    {"reduce_all", "tree_r2", "nbi", 1, 0, 1024, 65298},
    {"broadcast", "tree_r2", "blocking", 3, 0, 1024, 40084},
    {"broadcast", "tree_r2", "nbi", 3, 0, 1024, 36912},
    {"reduce", "tree_r2", "blocking", 3, 0, 1024, 36408},
    {"reduce", "tree_r2", "nbi", 3, 0, 1024, 33208},
    {"broadcast", "tree_r2", "blocking", 3, 5, 1024, 40084},
    {"broadcast", "tree_r2", "nbi", 3, 5, 1024, 36912},
    {"reduce", "tree_r2", "blocking", 3, 5, 1024, 36408},
    {"reduce", "tree_r2", "nbi", 3, 5, 1024, 33208},
    {"reduce_all", "tree_r2", "blocking", 3, 0, 1024, 75404},
    {"reduce_all", "tree_r2", "nbi", 3, 0, 1024, 66728},
    {"fcollect", "tree_r2", "blocking", 1, 0, 64, 37528},
    {"fcollect", "tree_r2", "nbi", 1, 0, 64, 37674},
    {"broadcast", "tree_r4", "blocking", 1, 0, 8, 1608},
    {"broadcast", "tree_r4", "nbi", 1, 0, 8, 1132},
    {"reduce", "tree_r4", "blocking", 1, 0, 8, 2234},
    {"reduce", "tree_r4", "nbi", 1, 0, 8, 1394},
    {"broadcast", "tree_r4", "blocking", 1, 5, 8, 1608},
    {"broadcast", "tree_r4", "nbi", 1, 5, 8, 1132},
    {"reduce", "tree_r4", "blocking", 1, 5, 8, 2292},
    {"reduce", "tree_r4", "nbi", 1, 5, 8, 1394},
    {"reduce_all", "tree_r4", "blocking", 1, 0, 8, 3746},
    {"reduce_all", "tree_r4", "nbi", 1, 0, 8, 2430},
    {"broadcast", "tree_r4", "blocking", 3, 0, 8, 1612},
    {"broadcast", "tree_r4", "nbi", 3, 0, 8, 1136},
    {"reduce", "tree_r4", "blocking", 3, 0, 8, 2234},
    {"reduce", "tree_r4", "nbi", 3, 0, 8, 1394},
    {"broadcast", "tree_r4", "blocking", 3, 5, 8, 1612},
    {"broadcast", "tree_r4", "nbi", 3, 5, 8, 1136},
    {"reduce", "tree_r4", "blocking", 3, 5, 8, 2292},
    {"reduce", "tree_r4", "nbi", 3, 5, 8, 1394},
    {"reduce_all", "tree_r4", "blocking", 3, 0, 8, 3758},
    {"reduce_all", "tree_r4", "nbi", 3, 0, 8, 2434},
    {"fcollect", "tree_r4", "blocking", 1, 0, 1, 3608},
    {"fcollect", "tree_r4", "nbi", 1, 0, 1, 3144},
    {"broadcast", "tree_r4", "blocking", 1, 0, 1024, 33262},
    {"broadcast", "tree_r4", "nbi", 1, 0, 1024, 32040},
    {"reduce", "tree_r4", "blocking", 1, 0, 1024, 41786},
    {"reduce", "tree_r4", "nbi", 1, 0, 1024, 35024},
    {"broadcast", "tree_r4", "blocking", 1, 5, 1024, 33262},
    {"broadcast", "tree_r4", "nbi", 1, 5, 1024, 32040},
    {"reduce", "tree_r4", "blocking", 1, 5, 1024, 41786},
    {"reduce", "tree_r4", "nbi", 1, 5, 1024, 35024},
    {"reduce_all", "tree_r4", "blocking", 1, 0, 1024, 74468},
    {"reduce_all", "tree_r4", "nbi", 1, 0, 1024, 66994},
    {"broadcast", "tree_r4", "blocking", 3, 0, 1024, 37614},
    {"broadcast", "tree_r4", "nbi", 3, 0, 1024, 32584},
    {"reduce", "tree_r4", "blocking", 3, 0, 1024, 41786},
    {"reduce", "tree_r4", "nbi", 3, 0, 1024, 35024},
    {"broadcast", "tree_r4", "blocking", 3, 5, 1024, 37614},
    {"broadcast", "tree_r4", "nbi", 3, 5, 1024, 32584},
    {"reduce", "tree_r4", "blocking", 3, 5, 1024, 41786},
    {"reduce", "tree_r4", "nbi", 3, 5, 1024, 35024},
    {"reduce_all", "tree_r4", "blocking", 3, 0, 1024, 87524},
    {"reduce_all", "tree_r4", "nbi", 3, 0, 1024, 66994},
    {"fcollect", "tree_r4", "blocking", 1, 0, 64, 37852},
    {"fcollect", "tree_r4", "nbi", 1, 0, 64, 37150},
    {"broadcast", "ring", "blocking", 1, 0, 8, 2916},
    {"broadcast", "ring", "nbi", 1, 0, 8, 2916},
    {"reduce", "ring", "blocking", 1, 0, 8, 3280},
    {"reduce", "ring", "nbi", 1, 0, 8, 3280},
    {"broadcast", "ring", "blocking", 1, 5, 8, 3071},
    {"broadcast", "ring", "nbi", 1, 5, 8, 3071},
    {"reduce", "ring", "blocking", 1, 5, 8, 3435},
    {"reduce", "ring", "nbi", 1, 5, 8, 3435},
    {"reduce_all", "ring", "blocking", 1, 0, 8, 12509},
    {"reduce_all", "ring", "nbi", 1, 0, 8, 12485},
    {"broadcast", "ring", "blocking", 3, 0, 8, 2980},
    {"broadcast", "ring", "nbi", 3, 0, 8, 2980},
    {"reduce", "ring", "blocking", 3, 0, 8, 3280},
    {"reduce", "ring", "nbi", 3, 0, 8, 3280},
    {"broadcast", "ring", "blocking", 3, 5, 8, 3135},
    {"broadcast", "ring", "nbi", 3, 5, 8, 3135},
    {"reduce", "ring", "blocking", 3, 5, 8, 3435},
    {"reduce", "ring", "nbi", 3, 5, 8, 3435},
    {"reduce_all", "ring", "blocking", 3, 0, 8, 12509},
    {"reduce_all", "ring", "nbi", 3, 0, 8, 12485},
    {"fcollect", "ring", "blocking", 1, 0, 1, 10628},
    {"fcollect", "ring", "nbi", 1, 0, 1, 10628},
    {"broadcast", "ring", "blocking", 1, 0, 1024, 35636},
    {"broadcast", "ring", "nbi", 1, 0, 1024, 35636},
    {"reduce", "ring", "blocking", 1, 0, 1024, 36520},
    {"reduce", "ring", "nbi", 1, 0, 1024, 36520},
    {"broadcast", "ring", "blocking", 1, 5, 1024, 35791},
    {"broadcast", "ring", "nbi", 1, 5, 1024, 35791},
    {"reduce", "ring", "blocking", 1, 5, 1024, 36675},
    {"reduce", "ring", "nbi", 1, 5, 1024, 36675},
    {"reduce_all", "ring", "blocking", 1, 0, 1024, 81620},
    {"reduce_all", "ring", "nbi", 1, 0, 1024, 81620},
    {"broadcast", "ring", "blocking", 3, 0, 1024, 43524},
    {"broadcast", "ring", "nbi", 3, 0, 1024, 43524},
    {"reduce", "ring", "blocking", 3, 0, 1024, 36520},
    {"reduce", "ring", "nbi", 3, 0, 1024, 36520},
    {"broadcast", "ring", "blocking", 3, 5, 1024, 44144},
    {"broadcast", "ring", "nbi", 3, 5, 1024, 44144},
    {"reduce", "ring", "blocking", 3, 5, 1024, 36675},
    {"reduce", "ring", "nbi", 3, 5, 1024, 36675},
    {"reduce_all", "ring", "blocking", 3, 0, 1024, 81620},
    {"reduce_all", "ring", "nbi", 3, 0, 1024, 81620},
    {"fcollect", "ring", "blocking", 1, 0, 64, 40942},
    {"fcollect", "ring", "nbi", 1, 0, 64, 40942},
    {"broadcast", "hier", "blocking", 1, 0, 8, 958},
    {"broadcast", "hier", "nbi", 1, 0, 8, 988},
    {"reduce", "hier", "blocking", 1, 0, 8, 1468},
    {"reduce", "hier", "nbi", 1, 0, 8, 1372},
    {"broadcast", "hier", "blocking", 1, 5, 8, 1045},
    {"broadcast", "hier", "nbi", 1, 5, 8, 1075},
    {"reduce", "hier", "blocking", 1, 5, 8, 1591},
    {"reduce", "hier", "nbi", 1, 5, 8, 1495},
    {"reduce_all", "hier", "blocking", 1, 0, 8, 2330},
    {"reduce_all", "hier", "nbi", 1, 0, 8, 2264},
    {"broadcast", "hier", "blocking", 3, 0, 8, 978},
    {"broadcast", "hier", "nbi", 3, 0, 8, 1008},
    {"reduce", "hier", "blocking", 3, 0, 8, 1468},
    {"reduce", "hier", "nbi", 3, 0, 8, 1372},
    {"broadcast", "hier", "blocking", 3, 5, 8, 1061},
    {"broadcast", "hier", "nbi", 3, 5, 8, 1091},
    {"reduce", "hier", "blocking", 3, 5, 8, 1591},
    {"reduce", "hier", "nbi", 3, 5, 8, 1495},
    {"reduce_all", "hier", "blocking", 3, 0, 8, 2346},
    {"reduce_all", "hier", "nbi", 3, 0, 8, 2280},
    {"fcollect", "hier", "blocking", 1, 0, 1, 2113},
    {"fcollect", "hier", "nbi", 1, 0, 1, 2143},
    {"broadcast", "hier", "blocking", 1, 0, 1024, 31350},
    {"broadcast", "hier", "nbi", 1, 0, 1024, 31980},
    {"reduce", "hier", "blocking", 1, 0, 1024, 31350},
    {"reduce", "hier", "nbi", 1, 0, 1024, 31920},
    {"broadcast", "hier", "blocking", 1, 5, 1024, 33436},
    {"broadcast", "hier", "nbi", 1, 5, 1024, 34066},
    {"reduce", "hier", "blocking", 1, 5, 1024, 33436},
    {"reduce", "hier", "nbi", 1, 5, 1024, 34006},
    {"reduce_all", "hier", "blocking", 1, 0, 1024, 62640},
    {"reduce_all", "hier", "nbi", 1, 0, 1024, 63840},
    {"broadcast", "hier", "blocking", 3, 0, 1024, 33012},
    {"broadcast", "hier", "nbi", 3, 0, 1024, 31980},
    {"reduce", "hier", "blocking", 3, 0, 1024, 31350},
    {"reduce", "hier", "nbi", 3, 0, 1024, 31920},
    {"broadcast", "hier", "blocking", 3, 5, 1024, 33436},
    {"broadcast", "hier", "nbi", 3, 5, 1024, 34066},
    {"reduce", "hier", "blocking", 3, 5, 1024, 33436},
    {"reduce", "hier", "nbi", 3, 5, 1024, 34006},
    {"reduce_all", "hier", "blocking", 3, 0, 1024, 62640},
    {"reduce_all", "hier", "nbi", 3, 0, 1024, 63840},
    {"fcollect", "hier", "blocking", 1, 0, 64, 36016},
    {"fcollect", "hier", "nbi", 1, 0, 64, 36646},
};

TEST(KnomialGoldenCyclesTest, DispatchedCollectivesMatchPinnedCycles) {
  std::vector<Row> actual;
  for (const char* family : {"tree_r2", "tree_r4", "ring", "hier"}) {
    const std::vector<Row> rows = measure_family(family);
    actual.insert(actual.end(), rows.begin(), rows.end());
  }
  ASSERT_EQ(actual.size(), kGolden.size()) << [&] {
    std::string dump = "measured table:\n";
    for (const Row& r : actual) dump += "    " + format_row(r) + "\n";
    return dump;
  }();
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_TRUE(actual[i].same_point(kGolden[i])) << format_row(actual[i]);
    EXPECT_EQ(actual[i].cycles, kGolden[i].cycles)
        << "measured " << format_row(actual[i]) << " pinned "
        << format_row(kGolden[i]);
  }
}

}  // namespace
}  // namespace xbgas
