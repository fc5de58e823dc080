#include "collectives/team.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "collectives/collectives.hpp"
#include "collectives/composed.hpp"
#include "common/error.hpp"
#include "helpers.hpp"

namespace xbgas {
namespace {

using testing::run_spmd;

TEST(TeamTest, ActiveSetMembershipAndRanks) {
  run_spmd(8, [&](PeContext& pe) {
    // Even PEs form one team, odd PEs another.
    Team team(pe.rank() % 2, 2, 4);
    EXPECT_EQ(team.n_pes(), 4);
    EXPECT_EQ(team.rank(), pe.rank() / 2);
    EXPECT_EQ(team.world_rank(team.rank()), pe.rank());
    EXPECT_TRUE(team.contains_world_rank(pe.rank()));
    EXPECT_FALSE(team.contains_world_rank((pe.rank() + 1) % 8));
  });
}

TEST(TeamTest, NonMemberConstructionThrows) {
  Machine machine(testing::test_config(4));
  EXPECT_THROW(machine.run([&](PeContext&) {
                 xbrtime_init();
                 Team team(0, 2, 2);  // PEs 0 and 2 only; 1 and 3 must throw
               }),
               Error);
}

TEST(TeamTest, ActiveSetMustFitWorld) {
  run_spmd(4, [&](PeContext&) {
    EXPECT_THROW(Team(2, 2, 3), Error);  // 2,4,6 but world is 4
    EXPECT_THROW(Team(0, 1, 5), Error);
    EXPECT_THROW(Team(0, 0, 2), Error);  // zero stride
  });
}

TEST(TeamTest, TeamBarrierOnlySynchronizesMembers) {
  run_spmd(6, [&](PeContext& pe) {
    if (pe.rank() < 3) {
      Team team(0, 1, 3);
      pe.clock().advance(static_cast<std::uint64_t>(pe.rank()) * 100);
      team.barrier();
      // Team members leave with the member max (+ barrier cost); PEs 3-5
      // never participate.
      EXPECT_GE(pe.clock().cycles(), 200u);
    }
    xbrtime_barrier();
  });
}

TEST(TeamTest, BroadcastWithinTeam) {
  run_spmd(8, [&](PeContext& pe) {
    auto* dest = static_cast<int*>(xbrtime_malloc(4 * sizeof(int)));
    std::fill(dest, dest + 4, -1);
    xbrtime_barrier();

    if (pe.rank() % 2 == 0) {  // team of even world ranks
      Team team(0, 2, 4);
      int src[4] = {11, 22, 33, 44};
      broadcast(dest, src, 4, 1, /*team root=*/1, team);  // world rank 2
    }
    xbrtime_barrier();

    if (pe.rank() % 2 == 0) {
      for (int i = 0; i < 4; ++i) EXPECT_EQ(dest[i], 11 * (i + 1));
    } else {
      for (int i = 0; i < 4; ++i) EXPECT_EQ(dest[i], -1);  // untouched
    }
    xbrtime_barrier();
    xbrtime_free(dest);
  });
}

TEST(TeamTest, ReduceWithinTeam) {
  run_spmd(6, [&](PeContext& pe) {
    auto* src = static_cast<int*>(xbrtime_malloc(sizeof(int)));
    *src = pe.rank();
    int out = -1;
    xbrtime_barrier();

    if (pe.rank() >= 2) {  // team = world ranks 2..5
      Team team(2, 1, 4);
      reduce<OpSum>(&out, src, 1, 1, /*team root=*/0, team);
      if (team.rank() == 0) {
        EXPECT_EQ(out, 2 + 3 + 4 + 5);
      } else {
        EXPECT_EQ(out, -1);
      }
    }
    xbrtime_barrier();
    xbrtime_free(src);
  });
}

TEST(TeamTest, DisjointTeamsRunConcurrently) {
  run_spmd(8, [&](PeContext& pe) {
    auto* dest = static_cast<int*>(xbrtime_malloc(sizeof(int)));
    auto* src = static_cast<int*>(xbrtime_malloc(sizeof(int)));
    *src = pe.rank() + 1;
    xbrtime_barrier();

    // Two disjoint halves each run their own reduction simultaneously.
    const int base = pe.rank() < 4 ? 0 : 4;
    Team team(base, 1, 4);
    reduce_all<OpSum>(dest, src, 1, 1, team);
    const int expected = base == 0 ? (1 + 2 + 3 + 4) : (5 + 6 + 7 + 8);
    EXPECT_EQ(*dest, expected);
    xbrtime_barrier();
    xbrtime_free(src);
    xbrtime_free(dest);
  });
}

TEST(TeamTest, GatherWithinTeamUsingStridedMembers) {
  run_spmd(8, [&](PeContext& pe) {
    if (pe.rank() % 2 != 0) {
      xbrtime_barrier();
      return;
    }
    Team team(0, 2, 4);
    const int msgs[4] = {1, 2, 1, 2};
    const int disp[4] = {0, 1, 3, 4};
    std::vector<long> src(2, pe.rank() * 10);
    if (msgs[team.rank()] == 2) src[1] = pe.rank() * 10 + 1;
    std::vector<long> dest(6, -5);
    gather(dest.data(), src.data(), msgs, disp, 6, 0, team);
    if (team.rank() == 0) {
      const std::vector<long> expected{0, 20, 21, 40, 60, 61};
      EXPECT_EQ(dest, expected);
    }
    xbrtime_barrier();
  });
}

TEST(TeamTest, SingletonTeam) {
  run_spmd(3, [&](PeContext& pe) {
    Team team(pe.rank(), 1, 1);
    EXPECT_EQ(team.n_pes(), 1);
    EXPECT_EQ(team.rank(), 0);
    auto* buf = static_cast<int*>(xbrtime_malloc(sizeof(int)));
    int v = pe.rank() * 7;
    broadcast(buf, &v, 1, 1, 0, team);
    EXPECT_EQ(*buf, pe.rank() * 7);
    xbrtime_barrier();
    xbrtime_free(buf);
  });
}

TEST(TeamTest, SequentialTeamsReuseCleanly) {
  run_spmd(4, [&](PeContext& pe) {
    for (int round = 0; round < 3; ++round) {
      Team team(0, 1, 4);
      auto* buf = static_cast<int*>(xbrtime_malloc(sizeof(int)));
      int v = round * 100 + 5;  // broadcast from team rank `round`
      broadcast(buf, &v, 1, 1, round, team);
      EXPECT_EQ(*buf, round * 100 + 5);
      xbrtime_barrier();
      xbrtime_free(buf);
      (void)pe;
    }
  });
}

// Same-key Teams back to back on several workers: the last member to drop
// one team's barrier races the first member building the next (as
// hier_reduce_all's reduce-then-broadcast over the same level teams does).
// A deleter that evicted the successor's registry entry split the members
// across two barriers; the watchdog turns that lost rendezvous into a
// failure here instead of a hang. Each PE also holds many live singleton
// teams, which lengthens the deleter's unregister step and so the window.
TEST(TeamTest, BackToBackSameKeyTeamsShareOneRendezvous) {
  constexpr int kPes = 8;
  for (const int workers : {2, 4}) {
    MachineConfig config = testing::test_config(kPes);
    config.sched.workers = workers;
    config.fault.barrier_timeout_ms = 5'000;
    Machine machine(config);
    EXPECT_NO_THROW(machine.run([&](PeContext& pe) {
      xbrtime_init();
      std::vector<std::unique_ptr<Team>> held;
      for (int stride = 1; stride <= 500; ++stride) {
        held.push_back(std::make_unique<Team>(pe.rank(), stride, 1));
      }
      for (int round = 0; round < 3000; ++round) {
        { const Team team(0, 1, kPes); }
        // Let the other members drop theirs before anyone re-acquires, so
        // the last release and the next acquire run on different workers.
        FiberScheduler::yield();
      }
      held.clear();
      xbrtime_close();
    })) << workers << " workers";
  }
}

}  // namespace
}  // namespace xbgas
