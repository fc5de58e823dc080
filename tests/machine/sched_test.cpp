// FiberScheduler unit suite: the N:M execution substrate under Machine::run
// (docs/SCALING.md). Locks down the scheduler invariants the rest of the
// stack relies on — single-worker determinism (round-robin fairness), no
// lost wakeups for poll-based waiters, exception capture across context
// switches, and that seeded yield injection perturbs the host schedule
// without perturbing simulated time.

#include "machine/fiber.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <stdexcept>
#include <vector>

#include "common/error.hpp"
#include "machine/machine.hpp"
#include "xbrtime/rma.hpp"
#include "xbrtime/runtime.hpp"

namespace xbgas {
namespace {

SchedConfig single_worker() {
  SchedConfig c;
  c.workers = 1;
  return c;
}

TEST(SchedTest, RunsEveryFiberToCompletion) {
  FiberScheduler sched(SchedConfig{}, 32);
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i) {
    sched.spawn([&done] { done.fetch_add(1); }, nullptr);
  }
  sched.run();
  EXPECT_EQ(done.load(), 32);
  EXPECT_EQ(sched.stats().fibers, 32u);
  EXPECT_EQ(sched.stats().regions, 1u);
  EXPECT_GE(sched.stats().switches, 32u);
}

TEST(SchedTest, SingleWorkerYieldOrderIsRoundRobin) {
  // One worker + FIFO ready queue = strict round-robin: the interleaving is
  // fully deterministic, which is what makes single-core runs reproducible.
  FiberScheduler sched(single_worker(), 3);
  std::vector<int> order;  // single worker: no concurrent writers
  for (int id = 0; id < 3; ++id) {
    sched.spawn([&order, id] {
      for (int slice = 0; slice < 3; ++slice) {
        order.push_back(id);
        FiberScheduler::yield();
      }
    }, nullptr);
  }
  sched.run();
  const std::vector<int> expect{0, 1, 2, 0, 1, 2, 0, 1, 2};
  EXPECT_EQ(order, expect);
}

TEST(SchedTest, PollWaitersSeeProgressNoLostWakeups) {
  // A dependency chain longer than the worker pool: fiber i may only finish
  // after fiber i-1 bumped the token. Parked fibers are re-run by
  // construction (no wait list, no wakeup to lose), so this must complete
  // even with every fiber multiplexed onto one worker.
  constexpr int kN = 64;
  FiberScheduler sched(single_worker(), kN);
  std::atomic<int> token{0};
  // Spawned in REVERSE dependency order: the first kN-1 fibers all park
  // before the one that can make progress even gets a slice.
  for (int id = kN - 1; id >= 0; --id) {
    sched.spawn([&token, id] {
      while (token.load(std::memory_order_acquire) != id) {
        FiberScheduler::yield_waiting();
      }
      token.store(id + 1, std::memory_order_release);
    }, nullptr);
  }
  sched.run();
  EXPECT_EQ(token.load(), kN);
  EXPECT_GT(sched.stats().yields_waiting, 0u);
}

TEST(SchedTest, ReverseChainCompletesUnderFewWorkers) {
  // Worst case for a blocking implementation: the fiber everyone waits on
  // is spawned LAST, behind kN-1 already-parked waiters. If any waiter held
  // its worker while waiting, the releasing fiber could never run.
  constexpr int kN = 48;
  SchedConfig cfg;
  cfg.workers = 2;
  FiberScheduler sched(cfg, kN);
  std::atomic<bool> release{false};
  std::atomic<int> finished{0};
  for (int id = 0; id < kN - 1; ++id) {
    sched.spawn([&] {
      while (!release.load(std::memory_order_acquire)) {
        FiberScheduler::yield_waiting();
      }
      finished.fetch_add(1);
    }, nullptr);
  }
  sched.spawn([&] { release.store(true, std::memory_order_release); },
              nullptr);
  sched.run();
  EXPECT_EQ(finished.load(), kN - 1);
}

TEST(SchedTest, UserDataAndOnFiberReflectTheCallingFiber) {
  EXPECT_FALSE(FiberScheduler::on_fiber());
  EXPECT_EQ(FiberScheduler::current_user_data(), nullptr);
  int a = 0, b = 0;
  FiberScheduler sched(single_worker(), 2);
  void* seen_a = nullptr;
  void* seen_b = nullptr;
  sched.spawn([&] {
    EXPECT_TRUE(FiberScheduler::on_fiber());
    FiberScheduler::yield();
    seen_a = FiberScheduler::current_user_data();  // survives migration
  }, &a);
  sched.spawn([&] { seen_b = FiberScheduler::current_user_data(); }, &b);
  sched.run();
  EXPECT_EQ(seen_a, &a);
  EXPECT_EQ(seen_b, &b);
  EXPECT_FALSE(FiberScheduler::on_fiber());
}

TEST(SchedTest, FiberExceptionIsRethrownAfterAllFibersStop) {
  FiberScheduler sched(single_worker(), 3);
  std::atomic<int> completed{0};
  sched.spawn([] { throw std::runtime_error("fiber boom"); }, nullptr);
  sched.spawn([&completed] { completed.fetch_add(1); }, nullptr);
  sched.spawn([&completed] { completed.fetch_add(1); }, nullptr);
  EXPECT_THROW(sched.run(), std::runtime_error);
  // The failure must not strand the other fibers: run() drains everything
  // first, then rethrows.
  EXPECT_EQ(completed.load(), 2);
}

// The C++ runtime keeps the caught-exception stack and the uncaught count
// per thread. Fibers that sit in a handler (or in unwinding) across yields
// must each keep their own: `throw;` rethrows the fiber's exception, and
// std::uncaught_exceptions() sees only the fiber's own throws.
class SchedExceptionStateTest : public ::testing::TestWithParam<int> {};

TEST_P(SchedExceptionStateTest, EachFiberRethrowsItsOwnExceptionAfterYields) {
  constexpr std::size_t kFibers = 4;
  constexpr int kYields = 6;
  SchedConfig cfg;
  cfg.workers = GetParam();
  FiberScheduler sched(cfg, static_cast<int>(kFibers));
  std::vector<std::size_t> rethrown(kFibers, kFibers);
  std::vector<int> uncaught_unwinding(kFibers, -1);
  std::vector<int> uncaught_in_handler(kFibers, -1);

  struct YieldWhileUnwinding {
    int* seen;
    ~YieldWhileUnwinding() {
      for (int y = 0; y < kYields; ++y) FiberScheduler::yield();
      *seen = std::uncaught_exceptions();
    }
  };

  for (std::size_t i = 0; i < kFibers; ++i) {
    sched.spawn(
        [&, i] {
          try {
            try {
              const YieldWhileUnwinding guard{&uncaught_unwinding[i]};
              throw i;
            } catch (std::size_t) {
              for (int y = 0; y < kYields; ++y) FiberScheduler::yield();
              uncaught_in_handler[i] = std::uncaught_exceptions();
              throw;
            }
          } catch (std::size_t got) {
            rethrown[i] = got;
          }
        },
        nullptr);
  }
  sched.run();
  for (std::size_t i = 0; i < kFibers; ++i) {
    EXPECT_EQ(rethrown[i], i) << "fiber " << i;
    EXPECT_EQ(uncaught_unwinding[i], 1) << "fiber " << i;
    EXPECT_EQ(uncaught_in_handler[i], 0) << "fiber " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, SchedExceptionStateTest,
                         ::testing::Values(1, 2, 4));

TEST(SchedTest, RejectsUndersizedStacks) {
  SchedConfig cfg;
  cfg.stack_bytes = 4 * 1024;
  EXPECT_THROW(FiberScheduler(cfg, 1), Error);
}

// -- Machine-level behavior of the two execution models --

MachineConfig small_machine(int n_pes) {
  MachineConfig c;
  c.n_pes = n_pes;
  c.layout = MemoryLayout{.private_bytes = 64 * 1024,
                          .shared_bytes = 1024 * 1024};
  return c;
}

/// A workload with RMA traffic (cooperative poll points) and barriers.
/// Returns per-rank neighbor values so callers can assert on data too.
void ring_workload(PeContext& pe, std::vector<std::uint64_t>& out) {
  xbrtime_init();
  auto* slot = static_cast<std::uint64_t*>(
      xbrtime_malloc(sizeof(std::uint64_t)));
  const int n = pe.n_pes();
  const int right = (pe.rank() + 1) % n;
  for (int round = 0; round < 8; ++round) {
    const std::uint64_t v =
        static_cast<std::uint64_t>(pe.rank() * 1000 + round);
    xbr_put(slot, &v, 1, 1, right);
    xbrtime_barrier();
    out[static_cast<std::size_t>(pe.rank())] = *slot;
    xbrtime_barrier();
  }
  xbrtime_free(slot);
  xbrtime_close();
}

TEST(SchedMachineTest, FiberAndThreadModesAgreeOnTimeAndData) {
  std::uint64_t cycles[2];
  std::vector<std::uint64_t> data[2];
  const char* modes[2] = {"fibers", "threads"};
  for (int m = 0; m < 2; ++m) {
    MachineConfig cfg = small_machine(6);
    cfg.sched.mode = modes[m];
    Machine machine(cfg);
    data[m].assign(6, 0);
    machine.run([&](PeContext& pe) { ring_workload(pe, data[m]); });
    cycles[m] = machine.max_cycles();
  }
  EXPECT_EQ(cycles[0], cycles[1]);
  EXPECT_EQ(data[0], data[1]);
}

TEST(SchedMachineTest, YieldInjectionShakesScheduleNotSimulatedTime) {
  // Any schedule a random yield pattern can produce must complete with
  // bit-identical simulated time and data: simulated time depends only on
  // the modeled machine, never on host interleaving.
  std::uint64_t base_cycles = 0;
  std::vector<std::uint64_t> base_data(8, 0);
  {
    Machine machine(small_machine(8));
    machine.run([&](PeContext& pe) { ring_workload(pe, base_data); });
    base_cycles = machine.max_cycles();
  }
  for (const std::uint64_t seed : {1u, 99u}) {
    MachineConfig cfg = small_machine(8);
    cfg.sched.yield_inject_prob = 0.5;
    cfg.sched.yield_inject_seed = seed;
    Machine machine(cfg);
    std::vector<std::uint64_t> data(8, 0);
    machine.run([&](PeContext& pe) { ring_workload(pe, data); });
    EXPECT_EQ(machine.max_cycles(), base_cycles) << "seed " << seed;
    EXPECT_EQ(data, base_data) << "seed " << seed;
    EXPECT_GT(machine.sched_stats().injected_yields, 0u) << "seed " << seed;
  }
}

TEST(SchedMachineTest, StatsAccumulateAcrossRegions) {
  Machine machine(small_machine(4));
  machine.run([](PeContext&) {});
  machine.run([](PeContext&) {});
  const SchedStats s = machine.sched_stats();
  EXPECT_EQ(s.regions, 2u);
  EXPECT_EQ(s.fibers, 8u);
  EXPECT_GE(s.workers, 1u);
  EXPECT_GE(s.switches, 8u);
}

TEST(SchedMachineTest, RejectsUnknownMode) {
  MachineConfig cfg = small_machine(2);
  cfg.sched.mode = "green-threads";
  Machine machine(cfg);
  EXPECT_THROW(machine.run([](PeContext&) {}), Error);
}

TEST(SchedMachineTest, CurrentPeContextResolvesThroughFibers) {
  Machine machine(small_machine(4));
  EXPECT_EQ(current_pe_context(), nullptr);
  std::atomic<int> matched{0};
  machine.run([&](PeContext& pe) {
    if (current_pe_context() == &pe) matched.fetch_add(1);
    FiberScheduler::yield();  // survive a scheduling boundary
    if (current_pe_context() == &pe) matched.fetch_add(1);
  });
  EXPECT_EQ(matched.load(), 8);
  EXPECT_EQ(current_pe_context(), nullptr);
}

}  // namespace
}  // namespace xbgas
