#pragma once

// The tree collectives (paper §4, Algorithms 1-4) and the one k-nomial
// executor behind every tree broadcast and reduction.
//
// All share the same skeleton: fetch n_pes and the calling PE's rank, remap
// to virtual ranks so the root is virtual rank 0 (vrank.hpp), then run the
// tree's stages with a barrier after every stage. Broadcast and scatter walk
// the tree top-down with put (recursive halving); reduce and gather walk
// bottom-up with get (recursive doubling).
//
// Broadcast and reduce run the k-nomial schedules of schedule.hpp, edge for
// edge: the paper's binomial tree (Fig. 3) is their radix-2 case, which is
// what the public broadcast()/reduce() call. The hierarchy engine
// (hierarchy.hpp) runs the same executor at every level, and the policy's
// tree family runs it at any radix. Scatter and gather keep the paper's mask
// loops: their per-stage message is the partner's whole virtual subtree.
//
// Every executor takes one completion mode (CollMode). Blocking issues plain
// xbr_put/xbr_get and fences every stage. Nbi issues each hop as chunked
// nonblocking transfers (so the chunks of a stage overlap) and, where the
// schedule allows it, leaves the final stage unfenced for the caller — the
// nbi entry points (nbi.hpp) hand that fence back as CollReq::wait.
//
// Symmetry requirements (paper §4.3-§4.6):
//   broadcast: dest symmetric on every PE; src meaningful (and possibly
//              private) only on the root.
//   reduce:    src symmetric on every PE; dest meaningful only on the root
//              and may be private. Internally stages through a symmetric
//              contiguous partial buffer so no user data is overwritten.
//   scatter:   src meaningful only on root; dest private OK. Staged through
//              a symmetric buffer reordered by *virtual* rank so that every
//              subtree's data is contiguous and one put per stage suffices
//              even with a non-zero root (§4.5).
//   gather:    mirror of scatter (§4.6).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "collectives/comm.hpp"
#include "collectives/ops.hpp"
#include "collectives/schedule.hpp"
#include "collectives/vrank.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "xbrtime/rma.hpp"

namespace xbgas {

/// How a collective schedule completes. kBlocking: plain RMA, every stage
/// fenced. kNbi: chunked nonblocking hops, and the final stage left
/// unfenced where the schedule allows it (the executors return whether they
/// did, so the caller owns that fence).
enum class CollMode : std::uint8_t { kBlocking, kNbi };

namespace detail {

/// Cycles charged per element for the reduction combine loop.
inline constexpr std::uint64_t kReduceOpCycles = 3;

/// Allocate a symmetric staging buffer of `count` elements of `elem_size`
/// from the runtime's LIFO staging region (no synchronization; participants
/// perform identical sequences, so offsets stay symmetric). Throws on
/// exhaustion.
void* collective_staging_alloc(std::size_t elem_size, std::size_t count);

/// Release the most recent staging buffer (strict LIFO).
void collective_staging_free(void* p);

/// Buffer span in elements for an (nelems, stride) access pattern.
constexpr std::size_t strided_span(std::size_t nelems, int stride) {
  return nelems == 0 ? 0
                     : (nelems - 1) * static_cast<std::size_t>(stride) + 1;
}

/// Validate common collective arguments; returns this PE's virtual rank.
int collective_prologue(const Communicator& comm, int root, int stride);

/// adj_disp (paper §4.5): element displacement of each virtual rank's
/// segment in the virtually-reordered staging buffer; adj[n] = total.
std::vector<std::size_t> adjusted_displacements(const Communicator& comm,
                                                const int* pe_msgs, int root);

// Defined in nbi.cpp (observability: coll.pipeline.chunks).
void note_pipeline_chunks(std::size_t n);

/// Chunk count for an nbi hop. With no explicit chunk size the heuristic is
/// one chunk per 512 elements capped at 8 (small messages stay one
/// transfer, huge ones don't drown in injection costs); an explicit
/// `chunk_elems` — the tuner's knob — is honored up to 64 chunks.
constexpr std::size_t pipeline_chunks(std::size_t nelems,
                                      std::size_t chunk_elems = 0) {
  return chunk_elems == 0
             ? std::clamp<std::size_t>(nelems / 512, 1, 8)
             : std::clamp<std::size_t>((nelems + chunk_elems - 1) /
                                           chunk_elems,
                                       1, 64);
}

/// One schedule hop of an (nelems, stride) transfer. Blocking: one plain
/// xbr_put/xbr_get. kNbi: pipeline_chunks() nonblocking pieces tracked as
/// NbTrack::kInternal — timing only, the enclosing collective owns the
/// hazard contract, and its next fence settles them.
template <class T>
void hop(CollMode mode, bool remote_is_dest, T* dest, const T* src,
         std::size_t nelems, int stride, int world_pe,
         std::size_t chunk_elems) {
  if (mode == CollMode::kBlocking) {
    if (remote_is_dest) {
      xbr_put(dest, src, nelems, stride, world_pe);
    } else {
      xbr_get(dest, src, nelems, stride, world_pe);
    }
    return;
  }
  const std::size_t nc = pipeline_chunks(nelems, chunk_elems);
  for (std::size_t c = 0; c < nc; ++c) {
    const std::size_t lo = nelems * c / nc;
    const std::size_t hi = nelems * (c + 1) / nc;
    if (hi > lo) {
      const std::size_t at = lo * static_cast<std::size_t>(stride);
      rma_transfer(dest + at, src + at, sizeof(T), hi - lo, stride, world_pe,
                   remote_is_dest, /*nonblocking=*/true,
                   /*atomic_elems=*/false, NbTrack::kInternal);
    }
  }
  note_pipeline_chunks(nc);
}

template <class T>
void hop_put(CollMode mode, T* dest, const T* src, std::size_t nelems,
             int stride, int world_pe, std::size_t chunk_elems = 0) {
  hop(mode, /*remote_is_dest=*/true, dest, src, nelems, stride, world_pe,
      chunk_elems);
}

template <class T>
void hop_get(CollMode mode, T* dest, const T* src, std::size_t nelems,
             int stride, int world_pe, std::size_t chunk_elems = 0) {
  hop(mode, /*remote_is_dest=*/false, dest, src, nelems, stride, world_pe,
      chunk_elems);
}

// -- The k-nomial executor (any Communicator, any radix) --------------------
//
// Stage spans: kStageBegin/kStageEnd with a = stage index, b = radix.

/// Top-down k-nomial broadcast over `comm` with the xbgas::broadcast
/// contract. Returns true when the final stage was left unfenced (kNbi on
/// more than one PE): the caller owns that fence.
template <class T>
bool knomial_broadcast(T* dest, const T* src, std::size_t nelems, int stride,
                       int root, int radix, Communicator& comm,
                       CollMode mode = CollMode::kBlocking,
                       std::size_t chunk = 0) {
  const int vr = collective_prologue(comm, root, stride);
  const int n = comm.n_pes();
  if (vr == 0 && nelems > 0 && dest != src) {
    xbr_put(dest, src, nelems, stride, comm.world_rank(comm.rank()));
  }
  if (n == 1) return false;

  PeContext& ctx = xbrtime_ctx();
  const auto edges = knomial_broadcast_schedule(n, radix);
  const int stages = knomial_stages(n, radix);
  const bool defer_last = mode == CollMode::kNbi;
  std::size_t e = 0;
  for (int s = 0; s < stages; ++s) {
    ctx.trace().record(EventKind::kStageBegin, -1,
                       static_cast<std::uint64_t>(s),
                       static_cast<std::uint64_t>(radix));
    for (; e < edges.size() && edges[e].stage == s; ++e) {
      if (edges[e].from_vrank != vr || nelems == 0) continue;
      const int lpart = logical_rank(edges[e].to_vrank, root, n);
      // Senders past the first stage forward from their own dest; the root
      // sends directly from src.
      const T* from = (vr == 0) ? src : dest;
      hop_put(mode, dest, from, nelems, stride, comm.world_rank(lpart), chunk);
    }
    if (!(defer_last && s == stages - 1)) comm.barrier();
    ctx.trace().record(EventKind::kStageEnd, -1,
                       static_cast<std::uint64_t>(s),
                       static_cast<std::uint64_t>(radix));
  }
  return defer_last;
}

/// Bottom-up k-nomial reduction over a symmetric CONTIGUOUS partial buffer
/// (each PE's `part` holds its packed contribution on entry; the comm's
/// vrank-0 PE holds the combined result on return). Every stage is fenced
/// in both modes. kNbi gets land host-side at issue, so the combine overlaps
/// the modeled flight and each stage settles to max(transfer, combine) at
/// its barrier.
template <class Op, class T>
void knomial_reduce_part(T* part, std::size_t nelems, int root, int radix,
                         Communicator& comm,
                         CollMode mode = CollMode::kBlocking,
                         std::size_t chunk = 0) {
  const int vr = collective_prologue(comm, root, /*stride=*/1);
  const int n = comm.n_pes();
  comm.barrier();  // all parts settled before any parent pulls
  if (n == 1) return;

  PeContext& ctx = xbrtime_ctx();
  std::vector<T> land(nelems);
  const auto edges = knomial_reduce_schedule(n, radix);
  const int stages = knomial_stages(n, radix);
  std::size_t e = 0;
  for (int s = 0; s < stages; ++s) {
    ctx.trace().record(EventKind::kStageBegin, -1,
                       static_cast<std::uint64_t>(s),
                       static_cast<std::uint64_t>(radix));
    for (; e < edges.size() && edges[e].stage == s; ++e) {
      if (edges[e].to_vrank != vr || nelems == 0) continue;
      const int lpart = logical_rank(edges[e].from_vrank, root, n);
      hop_get(mode, land.data(), part, nelems, 1, comm.world_rank(lpart),
              chunk);
      for (std::size_t j = 0; j < nelems; ++j) {
        part[j] = Op::apply(part[j], land[j]);
      }
      ctx.clock().advance(kReduceOpCycles * nelems);
    }
    comm.barrier();  // parent's combined part visible to the next stage
    ctx.trace().record(EventKind::kStageEnd, -1,
                       static_cast<std::uint64_t>(s),
                       static_cast<std::uint64_t>(radix));
  }
}

/// k-nomial reduction with the xbgas::reduce contract (dest meaningful on
/// the comm-rank `root` only, src untouched): pack into a symmetric
/// contiguous partial, climb the tree, unpack at the root. Complete at
/// return in both modes.
template <class Op, class T>
void knomial_reduce(T* dest, const T* src, std::size_t nelems, int stride,
                    int root, int radix, Communicator& comm,
                    CollMode mode = CollMode::kBlocking,
                    std::size_t chunk = 0) {
  (void)collective_prologue(comm, root, stride);
  T* part = static_cast<T*>(
      collective_staging_alloc(sizeof(T), std::max<std::size_t>(nelems, 1)));
  for (std::size_t j = 0; j < nelems; ++j) {
    part[j] = src[j * static_cast<std::size_t>(stride)];
  }
  knomial_reduce_part<Op>(part, nelems, root, radix, comm, mode, chunk);
  if (comm.rank() == root) {
    for (std::size_t j = 0; j < nelems; ++j) {
      dest[j * static_cast<std::size_t>(stride)] = part[j];
    }
  }
  collective_staging_free(part);
}

/// Bottom-up k-nomial block gather for fcollect. Team rank r is world PE
/// `start + r*sub` and enters holding the `sub` world-rank blocks
/// [start + r*sub, start + (r+1)*sub) contiguously in its own dest; team
/// rank 0 exits holding all `size*sub` blocks. Gets are self-symmetric
/// (dest offset == src offset), mirroring gather (Algorithm 4).
template <class T>
void knomial_gather_blocks(T* dest, std::size_t per, int start, int sub,
                           int radix, Communicator& comm) {
  const int m = comm.n_pes();
  const int vr = comm.rank();  // rooted at team rank 0: no vrank remap
  comm.barrier();  // lower-level accumulations settled before pulls
  if (m == 1) return;

  PeContext& ctx = xbrtime_ctx();
  const auto edges = knomial_reduce_schedule(m, radix);
  const int stages = knomial_stages(m, radix);
  std::size_t e = 0;
  long long width = 1;  // accumulated subtree width (team ranks) at stage s
  for (int s = 0; s < stages; ++s) {
    ctx.trace().record(EventKind::kStageBegin, -1,
                       static_cast<std::uint64_t>(s),
                       static_cast<std::uint64_t>(radix));
    for (; e < edges.size() && edges[e].stage == s; ++e) {
      if (edges[e].to_vrank != vr || per == 0) continue;
      const int child = edges[e].from_vrank;
      const long long got = std::min<long long>(width, m - child);
      const std::size_t off =
          (static_cast<std::size_t>(start) +
           static_cast<std::size_t>(child) * static_cast<std::size_t>(sub)) *
          per;
      xbr_get(dest + off, dest + off,
              static_cast<std::size_t>(got) * static_cast<std::size_t>(sub) *
                  per,
              1, comm.world_rank(child));
    }
    comm.barrier();
    width *= radix;
    ctx.trace().record(EventKind::kStageEnd, -1,
                       static_cast<std::uint64_t>(s),
                       static_cast<std::uint64_t>(radix));
  }
}

/// k-nomial allgather (fcollect contract: dest symmetric, n_pes * per
/// elements; src may be private): every PE deposits its own block, the
/// blocks climb the tree to rank 0, and the concatenation broadcasts back
/// down. Returns knomial_broadcast's deferred-fence flag.
template <class T>
bool knomial_fcollect(T* dest, const T* src, std::size_t per, int radix,
                      Communicator& comm,
                      CollMode mode = CollMode::kBlocking,
                      std::size_t chunk = 0) {
  const int me = comm.rank();
  if (per > 0 && dest + static_cast<std::size_t>(me) * per != src) {
    xbr_put(dest + static_cast<std::size_t>(me) * per, src, per, 1,
            comm.world_rank(me));
  }
  knomial_gather_blocks(dest, per, /*start=*/0, /*sub=*/1, radix, comm);
  return knomial_broadcast(dest, dest,
                           per * static_cast<std::size_t>(comm.n_pes()),
                           /*stride=*/1, /*root=*/0, radix, comm, mode, chunk);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Broadcast (Algorithm 1) and reduction (Algorithm 2): the binomial tree,
// i.e. the radix-2 k-nomial schedule
// ---------------------------------------------------------------------------

template <class T>
void broadcast(T* dest, const T* src, std::size_t nelems, int stride, int root,
               Communicator& comm = world_comm()) {
  detail::knomial_broadcast(dest, src, nelems, stride, root, /*radix=*/2,
                            comm);
}

template <class Op, class T>
void reduce(T* dest, const T* src, std::size_t nelems, int stride, int root,
            Communicator& comm = world_comm()) {
  detail::knomial_reduce<Op>(dest, src, nelems, stride, root, /*radix=*/2,
                             comm);
}

template <class T>
void reduce_sum(T* dest, const T* src, std::size_t nelems, int stride,
                int root, Communicator& comm = world_comm()) {
  reduce<OpSum>(dest, src, nelems, stride, root, comm);
}
template <class T>
void reduce_prod(T* dest, const T* src, std::size_t nelems, int stride,
                 int root, Communicator& comm = world_comm()) {
  reduce<OpProd>(dest, src, nelems, stride, root, comm);
}
template <class T>
void reduce_min(T* dest, const T* src, std::size_t nelems, int stride,
                int root, Communicator& comm = world_comm()) {
  reduce<OpMin>(dest, src, nelems, stride, root, comm);
}
template <class T>
void reduce_max(T* dest, const T* src, std::size_t nelems, int stride,
                int root, Communicator& comm = world_comm()) {
  reduce<OpMax>(dest, src, nelems, stride, root, comm);
}

// ---------------------------------------------------------------------------
// Scatter (Algorithm 3)
// ---------------------------------------------------------------------------

template <class T>
void scatter(T* dest, const T* src, const int* pe_msgs, const int* pe_disp,
             std::size_t nelems, int root, Communicator& comm = world_comm()) {
  const int vr = detail::collective_prologue(comm, root, /*stride=*/1);
  const int n = comm.n_pes();
  const int me = comm.rank();
  const int my_world = comm.world_rank(me);

  const auto adj = detail::adjusted_displacements(comm, pe_msgs, root);
  XBGAS_CHECK(adj[static_cast<std::size_t>(n)] == nelems,
              "scatter: sum(pe_msgs) must equal nelems");

  T* s_buff =
      static_cast<T*>(detail::collective_staging_alloc(sizeof(T), nelems));

  if (vr == 0) {
    // Reorder src by *virtual* rank so each subtree's data is contiguous and
    // a single put per stage suffices even for non-zero roots (§4.5).
    for (int v = 0; v < n; ++v) {
      const int lr = logical_rank(v, root, n);
      const auto count = static_cast<std::size_t>(pe_msgs[lr]);
      if (count > 0) {
        xbr_put(s_buff + adj[static_cast<std::size_t>(v)],
                src + pe_disp[lr], count, 1, my_world);
      }
    }
  }
  comm.barrier();

  PeContext& ctx = xbrtime_ctx();
  const auto levels = ceil_log2(static_cast<std::uint64_t>(n));
  unsigned mask = (1u << levels) - 1u;
  const auto uvr = static_cast<unsigned>(vr);
  std::uint64_t stage = 0;
  for (int i = static_cast<int>(levels) - 1; i >= 0; --i) {
    mask ^= (1u << i);
    ctx.trace().record(EventKind::kStageBegin, -1, stage, mask);
    if ((uvr & mask) == 0 && (uvr & (1u << i)) == 0) {
      const int vpart = static_cast<int>(uvr ^ (1u << i)) % n;
      const int lpart = logical_rank(vpart, root, n);
      if (vr < vpart) {
        // Partner's subtree at this stage: virtual ranks
        // [vpart, min(vpart + 2^i, n)).
        const auto hi = std::min<std::size_t>(
            static_cast<std::size_t>(vpart) + (std::size_t{1} << i),
            static_cast<std::size_t>(n));
        const std::size_t msg_size =
            adj[hi] - adj[static_cast<std::size_t>(vpart)];
        if (msg_size > 0) {
          xbr_put(s_buff + adj[static_cast<std::size_t>(vpart)],
                  s_buff + adj[static_cast<std::size_t>(vpart)],
                  msg_size, 1, comm.world_rank(lpart));
        }
      }
    }
    comm.barrier();
    ctx.trace().record(EventKind::kStageEnd, -1, stage, mask);
    ++stage;
  }

  // Relocate this PE's assigned values from the staging buffer to dest.
  const auto mine = static_cast<std::size_t>(pe_msgs[me]);
  if (mine > 0) {
    xbr_put(dest, s_buff + adj[static_cast<std::size_t>(vr)], mine, 1,
            my_world);
  }
  detail::collective_staging_free(s_buff);
}

// ---------------------------------------------------------------------------
// Gather (Algorithm 4)
// ---------------------------------------------------------------------------

template <class T>
void gather(T* dest, const T* src, const int* pe_msgs, const int* pe_disp,
            std::size_t nelems, int root, Communicator& comm = world_comm()) {
  const int vr = detail::collective_prologue(comm, root, /*stride=*/1);
  const int n = comm.n_pes();
  const int me = comm.rank();
  const int my_world = comm.world_rank(me);

  const auto adj = detail::adjusted_displacements(comm, pe_msgs, root);
  XBGAS_CHECK(adj[static_cast<std::size_t>(n)] == nelems,
              "gather: sum(pe_msgs) must equal nelems");

  T* s_buff =
      static_cast<T*>(detail::collective_staging_alloc(sizeof(T), nelems));

  // Load this PE's candidate gather data at its adjusted displacement.
  const auto mine = static_cast<std::size_t>(pe_msgs[me]);
  if (mine > 0) {
    xbr_put(s_buff + adj[static_cast<std::size_t>(vr)], src, mine, 1,
            my_world);
  }
  comm.barrier();

  PeContext& ctx = xbrtime_ctx();
  const auto levels = ceil_log2(static_cast<std::uint64_t>(n));
  unsigned mask = (1u << levels) - 1u;
  const auto uvr = static_cast<unsigned>(vr);
  for (unsigned i = 0; i < levels; ++i) {
    mask ^= (1u << i);
    ctx.trace().record(EventKind::kStageBegin, -1, i, mask);
    if ((uvr | mask) == mask && (uvr & (1u << i)) == 0) {
      const int vpart = static_cast<int>(uvr ^ (1u << i)) % n;
      const int lpart = logical_rank(vpart, root, n);
      if (vr < vpart) {
        // Partner has accumulated its full subtree [vpart, vpart + 2^i)
        // during earlier stages; pull it in one get.
        const auto hi = std::min<std::size_t>(
            static_cast<std::size_t>(vpart) + (std::size_t{1} << i),
            static_cast<std::size_t>(n));
        const std::size_t msg_size =
            adj[hi] - adj[static_cast<std::size_t>(vpart)];
        if (msg_size > 0) {
          xbr_get(s_buff + adj[static_cast<std::size_t>(vpart)],
                  s_buff + adj[static_cast<std::size_t>(vpart)],
                  msg_size, 1, comm.world_rank(lpart));
        }
      }
    }
    comm.barrier();
    ctx.trace().record(EventKind::kStageEnd, -1, i, mask);
  }

  if (vr == 0) {
    // Reorder from virtual-rank order back to logical-rank displacements.
    for (int v = 0; v < n; ++v) {
      const int lr = logical_rank(v, root, n);
      const auto count = static_cast<std::size_t>(pe_msgs[lr]);
      if (count > 0) {
        xbr_put(dest + pe_disp[lr], s_buff + adj[static_cast<std::size_t>(v)],
                count, 1, my_world);
      }
    }
  }
  detail::collective_staging_free(s_buff);
}

}  // namespace xbgas
