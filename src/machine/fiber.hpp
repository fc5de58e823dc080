#pragma once

// FiberScheduler — the N:M cooperative execution substrate under
// Machine::run (docs/SCALING.md).
//
// The original machine dedicated one std::thread to every PE, which caps
// realistic world sizes near the paper's 12 cores: a 1024-PE region would
// ask the host for 1024 kernel threads, all contending for the same few
// cores and the same barrier mutex. Here each PE body runs as a cooperative
// *fiber* (a ucontext stackful coroutine with its own heap-allocated stack)
// and a bounded pool of worker threads — sized to hardware concurrency by
// default — multiplexes the fibers, so a 1024-PE machine runs comfortably
// on a laptop.
//
// Scheduler invariants (the contract every blocking primitive obeys):
//
//  * A fiber may only leave the CPU through yield() / yield_waiting() /
//    finishing its body. There is no preemption: between yield points a
//    fiber owns its worker thread.
//
//  * A fiber must NEVER block its worker thread (mutex wait, condvar wait,
//    sleep, join). With n_fibers > n_workers a blocked worker can strand
//    the very fibers whose progress would satisfy the wait — the classic
//    N:M deadlock. Blocking primitives (ClockSyncBarrier, RecoveryState)
//    instead poll their condition and yield_waiting() between probes; a
//    parked fiber is always re-run, so there is no lost-wakeup window by
//    construction.
//
//  * A fiber must not hold a lock across a yield point. Every mutex in the
//    barrier/roster/registry paths is released before yield_waiting() and
//    re-acquired after.
//
//  * Fibers may migrate between workers; per-PE state therefore lives in
//    PeContext (reached via current_user_data()), never in thread_locals.
//
//  * A fiber may yield inside a catch handler or while unwinding. The C++
//    runtime's per-thread exception state (caught-exception stack and
//    uncaught count) is swapped in and out with the fiber, so `throw;`
//    rethrows the fiber's own exception on whichever worker it resumes.
//
// yield() means "I made progress, give others a turn" (cooperative time
// slice); yield_waiting() means "I am blocked on a condition somebody else
// must change". The distinction drives the idle backoff: when every live
// fiber reports waiting for a full sweep, the workers nap briefly instead
// of spinning — the only actors that can change a condition are other
// fibers (or a rare host-side poison), so an all-waiting sweep means the
// region is momentarily quiescent.
//
// Sanitizer interop: stack switches are invisible to ASan/TSan unless
// announced. Every switch is bracketed with __sanitizer_start_switch_fiber /
// __sanitizer_finish_switch_fiber (ASan: fake-stack handoff) and
// __tsan_switch_to_fiber (TSan: per-fiber shadow state), so the whole fiber
// machine runs clean under -fsanitize=address and -fsanitize=thread
// (scripts/check.sh stages 17/18).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace xbgas {

/// PE execution model configuration (MachineConfig::sched).
struct SchedConfig {
  /// "fibers": N PE contexts over a bounded worker pool (default).
  /// "threads": the legacy 1:1 std::thread-per-PE model.
  std::string mode = "fibers";
  /// Worker threads for fiber mode; 0 = min(hardware_concurrency, n_pes).
  int workers = 0;
  /// Stack bytes per fiber. PE bodies recurse at most O(log n) deep in the
  /// collective tree schedules; 512 KiB leaves generous headroom even under
  /// ASan's enlarged frames.
  std::size_t stack_bytes = std::size_t{512} * 1024;
  /// Test-only: probability that a cooperative poll point injects an extra
  /// yield, drawn from a stream seeded with (yield_inject_seed, fiber).
  /// Shakes out ordering assumptions — any schedule a random yield pattern
  /// can produce must still complete with identical simulated time.
  double yield_inject_prob = 0.0;
  std::uint64_t yield_inject_seed = 0;
};

/// Scheduler statistics for one SPMD region (sched.* counters,
/// docs/OBSERVABILITY.md). Plain integers: read after run() returns.
struct SchedStats {
  std::uint64_t regions = 0;         ///< SPMD regions executed
  std::uint64_t fibers = 0;          ///< fibers spawned
  std::uint64_t workers = 0;         ///< worker threads used
  std::uint64_t switches = 0;        ///< fiber resumes (context switches in)
  std::uint64_t yields_waiting = 0;  ///< blocked-condition yields
  std::uint64_t injected_yields = 0; ///< test-injected extra yields
  std::uint64_t naps = 0;            ///< idle backoff sleeps (all waiting)
};

namespace detail {
struct Fiber;
struct WorkerState;
}  // namespace detail

class FiberScheduler {
 public:
  explicit FiberScheduler(const SchedConfig& config, int n_fibers);
  ~FiberScheduler();

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// Register a fiber. `user_data` is retrievable from inside the fiber via
  /// current_user_data() (Machine::run stores the PeContext*). Must be
  /// called before run().
  void spawn(std::function<void()> body, void* user_data);

  /// Execute every spawned fiber to completion over the worker pool.
  /// Blocks the calling thread. If a fiber body let an exception escape
  /// (Machine::run never does — its bodies catch everything), the first one
  /// is rethrown here after all fibers have stopped.
  void run();

  /// Statistics of the completed run().
  const SchedStats& stats() const { return stats_; }

  // -- Calling-fiber context (static: reachable from any depth) --

  /// True when the calling code runs on a scheduler fiber.
  static bool on_fiber();

  /// The user_data of the currently running fiber, or nullptr when the
  /// caller is not on a fiber. current_pe_context() builds on this.
  static void* current_user_data();

  /// Cooperative time slice: re-queue the calling fiber and run others.
  /// No-op off-fiber.
  static void yield();

  /// Blocked-condition yield: like yield(), but tells the idle backoff
  /// this fiber is waiting on external progress. No-op off-fiber.
  static void yield_waiting();

  /// Cheap cooperative poll point for long compute/RMA loops: yields every
  /// k-th call per fiber (bounding a fiber's time slice) and applies the
  /// seeded test yield injection. No-op off-fiber; one predictable branch
  /// when injection is off.
  static void poll_yield();

 private:
  friend struct detail::WorkerState;

  detail::Fiber* pop_ready();
  void push_ready(detail::Fiber* fiber);
  void worker_loop(detail::WorkerState& worker);

  SchedConfig config_;
  int n_workers_ = 1;
  SchedStats stats_{};

  std::vector<std::unique_ptr<detail::Fiber>> fibers_;

  std::mutex ready_mutex_;
  std::deque<detail::Fiber*> ready_;  // FIFO: single-worker mode is strict
                                      // round-robin, hence deterministic

  std::atomic<int> live_fibers_{0};
  /// Consecutive resumes that ended in yield_waiting with no intervening
  /// progress; drives the all-waiting nap.
  std::atomic<std::uint64_t> waiting_streak_{0};

  std::atomic<std::uint64_t> switches_{0};
  std::atomic<std::uint64_t> yields_waiting_{0};
  std::atomic<std::uint64_t> injected_yields_{0};
  std::atomic<std::uint64_t> naps_{0};
};

}  // namespace xbgas
