#include "machine/fiber.hpp"

#include <cxxabi.h>
#include <ucontext.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <thread>

#include "common/error.hpp"

// Stack switches must be announced to the sanitizers or they misattribute
// frames (ASan) and happens-before edges (TSan). Both interfaces ship with
// the gcc/clang sanitizer runtimes; plain builds compile none of this.
#if !defined(__has_feature)
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
#define XBGAS_FIBER_ASAN 1
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__) || __has_feature(thread_sanitizer)
#define XBGAS_FIBER_TSAN 1
#include <sanitizer/tsan_interface.h>
#endif

namespace xbgas {

namespace detail {

/// A copy of the C++ runtime's per-thread exception state
/// (`__cxa_eh_globals`, Itanium C++ ABI layout): the stack of exceptions
/// currently caught and the count std::uncaught_exceptions() reports. A
/// fiber that yields inside a catch handler, or during unwinding, must take
/// this state with it; left on the worker thread, another fiber's `throw;`
/// or end-of-handler would act on it. The runtime only forward-declares the
/// struct, so the state is moved as bytes.
struct EhState {
  void* caught_exceptions = nullptr;
  unsigned int uncaught_exceptions = 0;
};

struct Fiber {
  FiberScheduler* sched = nullptr;
  std::function<void()> body;
  void* user_data = nullptr;

  ucontext_t ctx{};
  std::unique_ptr<std::byte[]> stack;
  std::size_t stack_size = 0;

  bool finished = false;
  /// Set by yield_waiting() just before switching out; read by the worker
  /// after the switch to drive the all-waiting nap.
  bool waiting_yield = false;
  std::uint64_t poll_count = 0;
  std::uint64_t inject_rng = 0;  ///< splitmix64 state for yield injection
  std::exception_ptr uncaught;
  /// The fiber's exception state while it is switched out.
  EhState eh;

  /// ASan fake-stack handle saved while this fiber is switched out, and the
  /// worker stack to announce when switching back (captured on each landing
  /// because fibers migrate between workers).
  void* asan_fake = nullptr;
  const void* ret_stack_bottom = nullptr;
  std::size_t ret_stack_size = 0;
  void* tsan_fiber = nullptr;
};

struct WorkerState {
  FiberScheduler* sched = nullptr;
  ucontext_t ctx{};
  void* asan_fake = nullptr;
  void* tsan_fiber = nullptr;
  Fiber* current = nullptr;
};

namespace {

thread_local WorkerState* t_worker = nullptr;
thread_local Fiber* t_fiber = nullptr;

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Worker -> fiber. Returns when the fiber yields or finishes.
///
/// The thread's exception state is swapped here, on the worker side of both
/// switch points: the worker context never migrates, so this function runs
/// on one thread before and after swapcontext and the (const-attributed)
/// __cxa_get_globals lookup stays valid across the switch. The fiber's own
/// side could be resumed on another thread.
void switch_worker_to_fiber(WorkerState& w, Fiber& f) {
  w.current = &f;
  t_fiber = &f;
  void* const eh = abi::__cxa_get_globals();
  EhState worker_eh;
  std::memcpy(&worker_eh, eh, sizeof worker_eh);
  std::memcpy(eh, &f.eh, sizeof f.eh);
#if defined(XBGAS_FIBER_ASAN)
  __sanitizer_start_switch_fiber(&w.asan_fake, f.stack.get(), f.stack_size);
#endif
#if defined(XBGAS_FIBER_TSAN)
  __tsan_switch_to_fiber(f.tsan_fiber, 0);
#endif
  swapcontext(&w.ctx, &f.ctx);
#if defined(XBGAS_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(w.asan_fake, nullptr, nullptr);
#endif
  std::memcpy(&f.eh, eh, sizeof f.eh);
  std::memcpy(eh, &worker_eh, sizeof worker_eh);
  t_fiber = nullptr;
  w.current = nullptr;
}

/// Fiber -> its current worker. `dying` releases the ASan fake stack: the
/// fiber never runs again.
void switch_fiber_to_worker(Fiber& f, [[maybe_unused]] bool dying) {
  WorkerState& w = *t_worker;
#if defined(XBGAS_FIBER_ASAN)
  __sanitizer_start_switch_fiber(dying ? nullptr : &f.asan_fake,
                                 f.ret_stack_bottom, f.ret_stack_size);
#endif
#if defined(XBGAS_FIBER_TSAN)
  __tsan_switch_to_fiber(w.tsan_fiber, 0);
#endif
  swapcontext(&f.ctx, &w.ctx);
  // Resumed — possibly on a different worker; only touch `f` from here.
#if defined(XBGAS_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(f.asan_fake, &f.ret_stack_bottom,
                                  &f.ret_stack_size);
#endif
}

/// Entry point of every fiber (runs on the fiber's own stack). makecontext
/// takes no arguments portably; the spawning worker parks the Fiber* in its
/// WorkerState::current, which this (same thread, just switched) reads.
void fiber_trampoline() {
  Fiber* f = t_worker->current;
#if defined(XBGAS_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(nullptr, &f->ret_stack_bottom,
                                  &f->ret_stack_size);
#endif
  try {
    f->body();
  } catch (...) {
    // Machine::run bodies catch everything themselves; this is the
    // scheduler's own guarantee that no exception crosses a context switch.
    f->uncaught = std::current_exception();
  }
  f->finished = true;
  switch_fiber_to_worker(*f, /*dying=*/true);
  // Unreachable: a finished fiber is never resumed.
}

}  // namespace

}  // namespace detail

FiberScheduler::FiberScheduler(const SchedConfig& config, int n_fibers)
    : config_(config) {
  XBGAS_CHECK(n_fibers >= 0, "negative fiber count");
  XBGAS_CHECK(config.stack_bytes >= std::size_t{64} * 1024,
              "fiber stacks below 64 KiB are unsafe for PE bodies");
  fibers_.reserve(static_cast<std::size_t>(n_fibers));
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  const int want = config.workers > 0 ? config.workers : static_cast<int>(hw);
  n_workers_ = std::max(1, std::min(want, std::max(1, n_fibers)));
}

FiberScheduler::~FiberScheduler() = default;

void FiberScheduler::spawn(std::function<void()> body, void* user_data) {
  auto fiber = std::make_unique<detail::Fiber>();
  fiber->sched = this;
  fiber->body = std::move(body);
  fiber->user_data = user_data;
  fiber->stack_size = config_.stack_bytes;
  fiber->stack = std::make_unique<std::byte[]>(fiber->stack_size);
  fiber->inject_rng = config_.yield_inject_seed * 0x9e3779b97f4a7c15ull +
                      (fibers_.size() + 1) * 0xbf58476d1ce4e5b9ull;
  fibers_.push_back(std::move(fiber));
}

detail::Fiber* FiberScheduler::pop_ready() {
  const std::lock_guard<std::mutex> lock(ready_mutex_);
  if (ready_.empty()) return nullptr;
  detail::Fiber* f = ready_.front();
  ready_.pop_front();
  return f;
}

void FiberScheduler::push_ready(detail::Fiber* fiber) {
  const std::lock_guard<std::mutex> lock(ready_mutex_);
  ready_.push_back(fiber);
}

void FiberScheduler::worker_loop(detail::WorkerState& w) {
  detail::t_worker = &w;
#if defined(XBGAS_FIBER_TSAN)
  w.tsan_fiber = __tsan_get_current_fiber();
#endif
  while (live_fibers_.load(std::memory_order_acquire) > 0) {
    detail::Fiber* f = pop_ready();
    if (f == nullptr) {
      // Another worker holds the remaining fibers; don't spin on the queue.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    switches_.fetch_add(1, std::memory_order_relaxed);
    detail::switch_worker_to_fiber(w, *f);
    if (f->finished) {
#if defined(XBGAS_FIBER_TSAN)
      __tsan_destroy_fiber(f->tsan_fiber);
#endif
      waiting_streak_.store(0, std::memory_order_relaxed);
      live_fibers_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    const bool was_waiting = f->waiting_yield;
    f->waiting_yield = false;
    push_ready(f);
    if (was_waiting) {
      // Idle backoff: once every live fiber has reported "blocked" for a
      // couple of consecutive sweeps, nothing can change until an external
      // actor (watchdog deadline, host-side poison) acts — nap instead of
      // burning the host core re-polling.
      const std::uint64_t streak =
          waiting_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
      const auto live = static_cast<std::uint64_t>(
          live_fibers_.load(std::memory_order_relaxed));
      if (streak >= 2 * live + 1) {
        naps_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    } else {
      waiting_streak_.store(0, std::memory_order_relaxed);
    }
  }
}

void FiberScheduler::run() {
  stats_.regions += 1;
  stats_.fibers += fibers_.size();
  if (fibers_.empty()) return;
  XBGAS_CHECK(!detail::t_fiber, "FiberScheduler::run is not fiber-reentrant");

  live_fibers_.store(static_cast<int>(fibers_.size()),
                     std::memory_order_release);
  {
    const std::lock_guard<std::mutex> lock(ready_mutex_);
    for (auto& f : fibers_) {
      getcontext(&f->ctx);
      f->ctx.uc_stack.ss_sp = f->stack.get();
      f->ctx.uc_stack.ss_size = f->stack_size;
      f->ctx.uc_link = nullptr;
      makecontext(&f->ctx, detail::fiber_trampoline, 0);
#if defined(XBGAS_FIBER_TSAN)
      f->tsan_fiber = __tsan_create_fiber(0);
#endif
      ready_.push_back(f.get());
    }
  }

  std::vector<std::unique_ptr<detail::WorkerState>> workers;
  std::vector<std::thread> threads;
  workers.reserve(static_cast<std::size_t>(n_workers_));
  threads.reserve(static_cast<std::size_t>(n_workers_));
  for (int i = 0; i < n_workers_; ++i) {
    workers.push_back(std::make_unique<detail::WorkerState>());
    workers.back()->sched = this;
    detail::WorkerState* w = workers.back().get();
    threads.emplace_back([this, w] { worker_loop(*w); });
  }
  for (auto& t : threads) t.join();

  stats_.workers = static_cast<std::uint64_t>(n_workers_);
  stats_.switches = switches_.load(std::memory_order_relaxed);
  stats_.yields_waiting = yields_waiting_.load(std::memory_order_relaxed);
  stats_.injected_yields = injected_yields_.load(std::memory_order_relaxed);
  stats_.naps = naps_.load(std::memory_order_relaxed);

  for (auto& f : fibers_) {
    if (f->uncaught) std::rethrow_exception(f->uncaught);
  }
}

bool FiberScheduler::on_fiber() { return detail::t_fiber != nullptr; }

void* FiberScheduler::current_user_data() {
  return detail::t_fiber != nullptr ? detail::t_fiber->user_data : nullptr;
}

void FiberScheduler::yield() {
  detail::Fiber* f = detail::t_fiber;
  if (f == nullptr) return;
  f->waiting_yield = false;
  detail::switch_fiber_to_worker(*f, /*dying=*/false);
}

void FiberScheduler::yield_waiting() {
  detail::Fiber* f = detail::t_fiber;
  if (f == nullptr) return;
  f->sched->yields_waiting_.fetch_add(1, std::memory_order_relaxed);
  f->waiting_yield = true;
  detail::switch_fiber_to_worker(*f, /*dying=*/false);
}

void FiberScheduler::poll_yield() {
  detail::Fiber* f = detail::t_fiber;
  if (f == nullptr) return;
  // Bound a fiber's uninterrupted slice through long RMA/compute loops:
  // yield every 1024th poll even without injection.
  constexpr std::uint64_t kSliceMask = 1023;
  ++f->poll_count;
  bool do_yield = (f->poll_count & kSliceMask) == 0;
  FiberScheduler* s = f->sched;
  if (s->config_.yield_inject_prob > 0.0) {
    const double u =
        static_cast<double>(detail::splitmix64(f->inject_rng) >> 11) *
        0x1.0p-53;
    if (u < s->config_.yield_inject_prob) {
      s->injected_yields_.fetch_add(1, std::memory_order_relaxed);
      do_yield = true;
    }
  }
  if (do_yield) yield();
}

}  // namespace xbgas
