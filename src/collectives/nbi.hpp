#pragma once

// Non-blocking collectives: xbr_*_nbi variants of broadcast / reduce /
// allreduce / fcollect that return a CollReq instead of blocking on the
// final fence.
//
// Execution model: like the nbi RMA primitives they are built on, an nbi
// collective moves its bytes host-side during the call — per-stage barriers
// still order the dependent hops of the tree/ring schedules — and defers
// only the tail. Each runs the same schedule as its blocking form, through
// the same (kind x family) switch (detail::run_collective, policy.hpp), in
// completion mode CollMode::kNbi: every hop is issued as chunked
// nonblocking transfers (detail::pipeline_chunks picks the split), so
// within a stage the chunks overlap (the completion horizon is a max, not a
// sum) and a reduction's combine overlaps its transfer; and where the
// schedule allows it the final stage is left unfenced, so the final fence
// is CollReq::wait(). Between issue and wait the caller overlaps
// computation with the modeled in-flight time; XbrSan (full mode) keeps the
// result buffer "open" (kCollInFlight) so a premature RMA touch of it is
// diagnosed, not silently absorbed. Algorithm selection is the blocking
// forms' (kCollDispatch events, coll.algo.* counters), so forced
// --coll-algo, the tune table and the analytic model apply unchanged.
//
// Contract: every participating PE must call wait() on every CollReq, in
// the same order (SPMD discipline; waits may be out of issue order as long
// as they agree across PEs). A collective whose work completes inside the
// call (reduce-family, ring allreduce, n == 1) returns an already-complete
// CollReq whose wait() is a no-op — callers treat every request uniformly.
// Any barrier is a full fence and also completes an in-flight collective;
// wait() stays mandatory for the modeled-time accounting and portability.

#include <cstddef>
#include <cstdint>

#include "collectives/policy.hpp"
#include "xbrtime/nbi.hpp"

namespace xbgas {

/// Process-wide nbi-collective counters (observability: coll.pipeline.*).
struct CollPipelineCounters {
  std::uint64_t collectives = 0;  ///< xbr_*_nbi calls issued
  std::uint64_t chunks = 0;       ///< internal pipelined transfer chunks
  std::uint64_t waits = 0;        ///< CollReq handles retired by wait()
};

CollPipelineCounters coll_pipeline_counters();
void reset_coll_pipeline_counters();

namespace detail {
void note_pipeline_collective();
void note_pipeline_wait();
}  // namespace detail

/// Handle to an in-flight nbi collective. Value-semantic; the default
/// instance is already complete. wait() completes ALL of the calling PE's
/// outstanding nonblocking traffic (it is a quiet) and synchronizes the
/// communicator — after it returns, every PE's result buffer is valid and
/// its XbrSan zone is closed.
class CollReq {
 public:
  CollReq() = default;
  explicit CollReq(Communicator* comm)
      : comm_(comm), done_(comm == nullptr) {}

  bool done() const { return done_; }

  void wait() {
    if (!waited_) {
      // Counted on the first wait() per handle — including already-complete
      // requests, so coll.pipeline.waits tracks the SPMD discipline (one
      // wait per issued collective), not which schedules happen to defer
      // their final fence.
      waited_ = true;
      detail::note_pipeline_wait();
    }
    if (done_) return;
    done_ = true;
    comm_->barrier();  // barriers are full fences: quiet + rendezvous
  }

 private:
  Communicator* comm_ = nullptr;
  bool done_ = true;
  bool waited_ = false;
};

namespace detail {

/// Issue one nbi collective: dispatch it in CollMode::kNbi and, when its
/// final fence was deferred, open the kCollInFlight zone over the result
/// buffer (closed by CollReq::wait or any other fence) and hand back a live
/// request. `nelems` is per-PE for kAllgather, as in run_collective.
template <class Op, class T>
CollReq issue_nbi(const char* fn, CollKind kind, T* dest, const T* src,
                  std::size_t nelems, int stride, int root,
                  Communicator& comm) {
  note_pipeline_collective();
  if (!dispatch<Op>(kind, CollMode::kNbi, dest, src, nelems, stride, root,
                    comm)) {
    return CollReq{};
  }
  const std::size_t zone =
      kind == CollKind::kAllgather
          ? nelems * static_cast<std::size_t>(comm.n_pes())
          : nelems;
  if (zone > 0) {
    PeContext& ctx = xbrtime_ctx();
    ctx.machine().sanitizer().note_coll_dest(
        fn, ctx.rank(), dest, strided_span(zone, stride) * sizeof(T));
  }
  return CollReq{&comm};
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Dispatching nbi entry points (CollectivePolicy-routed)
// ---------------------------------------------------------------------------

template <class T>
CollReq xbr_broadcast_nbi(T* dest, const T* src, std::size_t nelems,
                          int stride, int root,
                          Communicator& comm = world_comm()) {
  return detail::issue_nbi<detail::OpNone>("xbr_broadcast_nbi",
                                           CollKind::kBroadcast, dest, src,
                                           nelems, stride, root, comm);
}

template <class Op, class T>
CollReq xbr_reduce_nbi(T* dest, const T* src, std::size_t nelems, int stride,
                       int root, Communicator& comm = world_comm()) {
  return detail::issue_nbi<Op>("xbr_reduce_nbi", CollKind::kReduce, dest, src,
                               nelems, stride, root, comm);
}

template <class Op, class T>
CollReq xbr_reduce_all_nbi(T* dest, const T* src, std::size_t nelems,
                           int stride, Communicator& comm = world_comm()) {
  return detail::issue_nbi<Op>("xbr_reduce_all_nbi", CollKind::kAllreduce,
                               dest, src, nelems, stride, /*root=*/0, comm);
}

template <class T>
CollReq xbr_fcollect_nbi(T* dest, const T* src, std::size_t nelems_per_pe,
                         Communicator& comm = world_comm()) {
  return detail::issue_nbi<detail::OpNone>("xbr_fcollect_nbi",
                                           CollKind::kAllgather, dest, src,
                                           nelems_per_pe, /*stride=*/1,
                                           /*root=*/0, comm);
}

}  // namespace xbgas
