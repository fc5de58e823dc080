#include "collectives/tuner.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/strfmt.hpp"
#include "helpers.hpp"

namespace xbgas {
namespace {

MachineConfig tuner_base() {
  MachineConfig config = testing::test_config(8);
  config.topology_name = "cluster4x16";
  config.net.per_hop_cycles = 50;
  return config;
}

const std::vector<std::size_t> kSizes = {64, 2048};

/// A table file named for this process and test, removed when it goes out
/// of scope, so concurrent copies of the binary never touch each other's
/// files.
class TableFile {
 public:
  explicit TableFile(const std::string& tag)
      : path_(strfmt("tuner_%s_%s_%d.table",
                     ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name(),
                     tag.c_str(), static_cast<int>(::getpid()))) {}
  ~TableFile() { std::remove(path_.c_str()); }
  TableFile(const TableFile&) = delete;
  TableFile& operator=(const TableFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TunerTest, SweepsEveryCandidateAndPicksWinners) {
  std::vector<TuneMeasurement> measurements;
  const MachineConfig base = tuner_base();
  const std::vector<TuneCandidate> cands = default_tune_candidates(base);
  // tree r{2,4,8} + ring chunk{0,256,2048} + hier r{2,4,8} on a cluster
  ASSERT_EQ(cands.size(), 9u);
  const TuneTable table = build_tune_table(base, kSizes, cands, &measurements);
  // One winner per (kind, size) point, one sample per (point, candidate).
  EXPECT_EQ(table.size(), 4u * kSizes.size());
  EXPECT_EQ(measurements.size(), cands.size() * 4u * kSizes.size());
  for (const TuneMeasurement& m : measurements) {
    EXPECT_GT(m.cycles, 0u) << "unmeasured candidate";
  }
  // Every point resolves, and the winner really is the measured argmin.
  for (const TuneMeasurement& m : measurements) {
    const TuneEntry* e = table.lookup(m.kind, base.n_pes, m.bytes);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->n_pes, base.n_pes);
  }
}

TEST(TunerTest, RoundTripPreservesDecisions) {
  const MachineConfig base = tuner_base();
  const TuneTable table = build_tune_table(base, kSizes);
  const TableFile file("a");
  const std::string& path = file.path();
  table.save(path);

  // Reload through the config surface, exactly as --coll-tune-table does.
  MachineConfig loaded_config = base;
  loaded_config.coll_tune_table = path;
  const CollectivePolicy direct = [&] {
    CollectivePolicy p(base);
    p.set_tune_table(table);
    return p;
  }();
  const CollectivePolicy reloaded(loaded_config);
  EXPECT_EQ(reloaded.tune_table().size(), table.size());

  for (const CollKind kind :
       {CollKind::kBroadcast, CollKind::kReduce, CollKind::kAllreduce,
        CollKind::kAllgather}) {
    for (const std::size_t nelems : {8u, 64u, 500u, 2048u, 100000u}) {
      const CollDecision a =
          direct.decide(kind, base.n_pes, nelems, sizeof(long));
      const CollDecision b =
          reloaded.decide(kind, base.n_pes, nelems, sizeof(long));
      EXPECT_EQ(a.algo, b.algo) << "nelems=" << nelems;
      EXPECT_EQ(a.radix, b.radix) << "nelems=" << nelems;
      EXPECT_EQ(a.chunk, b.chunk) << "nelems=" << nelems;
      EXPECT_EQ(a.tuned, b.tuned) << "nelems=" << nelems;
      EXPECT_TRUE(a.tuned) << "nelems=" << nelems;
    }
  }

  // save(load(save(x))) is bytewise stable.
  const TableFile file2("b");
  TuneTable::load(path).save(file2.path());
  EXPECT_EQ(slurp(path), slurp(file2.path()));
}

TEST(TunerTest, RunTwiceIsDeterministic) {
  const MachineConfig base = tuner_base();
  const TuneTable a = build_tune_table(base, kSizes);
  const TuneTable b = build_tune_table(base, kSizes);
  const TableFile fa("a");
  const TableFile fb("b");
  a.save(fa.path());
  b.save(fb.path());
  EXPECT_EQ(slurp(fa.path()), slurp(fb.path()));
}

TEST(TunerTest, MissFallsBackToModel) {
  const MachineConfig base = tuner_base();
  CollectivePolicy policy(base);
  policy.set_tune_table(build_tune_table(base, kSizes));
  reset_coll_tuner_counters();

  // Same machine shape: the table answers (nearest-log size match).
  const CollDecision hit =
      policy.decide(CollKind::kBroadcast, base.n_pes, 64, sizeof(long));
  EXPECT_TRUE(hit.tuned);

  // Different PE count: exact (kind, n_pes) key misses -> analytic model.
  const CollDecision miss =
      policy.decide(CollKind::kBroadcast, 5, 64, sizeof(long));
  EXPECT_FALSE(miss.tuned);
  EXPECT_NE(miss.algo, CollAlgo::kAuto);

  // Non-world communicators never consult the table.
  const CollDecision sub = policy.decide(CollKind::kBroadcast, base.n_pes, 64,
                                         sizeof(long), /*world=*/false);
  EXPECT_FALSE(sub.tuned);

  const CollTunerCounters counters = coll_tuner_counters();
  EXPECT_EQ(counters.hits, 1u);
  // Only the n_pes mismatch is a consultation that missed; non-world
  // dispatches never consult the table at all.
  EXPECT_EQ(counters.misses, 1u);
}

TEST(TunerTest, TreeAllgatherMeasuresWhatDispatchRuns) {
  // The tuner must time the schedule dispatch actually runs: a forced-tree
  // fcollect under the tuner's own warm-then-measure protocol (same
  // buffers, same rank-0 makespan) costs exactly the tuner's sample.
  const MachineConfig base = tuner_base();
  const std::size_t nelems = 2048;
  std::vector<TuneMeasurement> measurements;
  build_tune_table(base, {nelems}, {TuneCandidate{CollAlgo::kTree, 2, 0}},
                   &measurements);
  std::uint64_t tuned = 0;
  for (const TuneMeasurement& m : measurements) {
    if (m.kind == CollKind::kAllgather) tuned = m.cycles;
  }
  ASSERT_GT(tuned, 0u);

  MachineConfig config = base;
  config.coll_algo = "tree";
  Machine machine(config);
  std::uint64_t dispatched = 0;
  machine.run([&](PeContext& pe) {
    xbrtime_init();
    auto* dest = static_cast<long*>(xbrtime_malloc(nelems * sizeof(long)));
    auto* src = static_cast<long*>(xbrtime_malloc(nelems * sizeof(long)));
    for (std::size_t i = 0; i < nelems; ++i) src[i] = static_cast<long>(i + 1);
    const std::size_t per = nelems / static_cast<std::size_t>(base.n_pes);
    dispatch_fcollect(dest, src, per);
    xbrtime_barrier();
    const std::uint64_t t0 = pe.clock().cycles();
    dispatch_fcollect(dest, src, per);
    xbrtime_barrier();
    if (pe.rank() == 0) dispatched = pe.clock().cycles() - t0;
    xbrtime_free(src);
    xbrtime_free(dest);
    xbrtime_close();
  });
  EXPECT_EQ(dispatched, tuned);
}

TEST(TunerTest, LoadRejectsMalformedTables) {
  const TableFile file("bad");
  {
    std::ofstream out(file.path());
    out << "not a tune table\n";
  }
  EXPECT_THROW(TuneTable::load(file.path()), Error);
  EXPECT_THROW(TuneTable::load("does_not_exist.table"), Error);
}

}  // namespace
}  // namespace xbgas
