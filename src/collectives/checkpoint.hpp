#pragma once

// xbr_checkpoint / xbr_restore — collective heap snapshots that make PE
// deaths survivable with bounded data loss (docs/RESILIENCE.md).
//
// xbr_checkpoint snapshots every live symmetric-heap allocation of every
// member into the machine's CheckpointStore (the simulation's stand-in for
// survivor-replicated remote storage; the modeled cost charges the
// replication traffic). The collective staging scratch is excluded — it is
// runtime-internal and reset on recovery anyway.
//
// xbr_restore, typically run on a shrunken team after a death, does two
// things: (1) every member restores its own latest snapshot in place, and
// (2) the snapshots of *orphans* — ranks a decided agreement excluded
// (acknowledged deaths, partitioned or evicted peers) that checkpointed but
// are not on the team — are re-sharded deterministically across the
// survivors (orphan i, ascending by rank, lands on team rank i % n) and
// handed back in the RestoreReport so the application can fold the lost
// ranks' data into its own structures. The excluded set is fixed by the
// agreement decision and the assignment is pure arithmetic over it, so
// every survivor computes the identical mapping without communication.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "collectives/comm.hpp"
#include "fault/checkpoint_store.hpp"

namespace xbgas {

/// One orphaned snapshot block assigned to the calling PE by xbr_restore.
struct OrphanShard {
  int world_rank = -1;      ///< the failed rank that owned the data
  std::size_t offset = 0;   ///< its shared-segment offset at checkpoint time
  std::vector<std::byte> data;
};

/// What xbr_restore did on the calling PE.
struct RestoreReport {
  std::uint64_t version = 0;        ///< snapshot version restored (0 = none)
  std::uint64_t restored_bytes = 0; ///< own bytes copied back into the heap
  std::uint64_t orphan_bytes = 0;   ///< orphan bytes assigned to this PE
  std::vector<OrphanShard> orphans; ///< this PE's share of orphaned data
};

/// Collective over `comm`: snapshot every member's live symmetric-heap
/// allocations (staging excluded) into the checkpoint store. Returns the
/// new snapshot version (identical on every member).
std::uint64_t xbr_checkpoint(Communicator& comm);
std::uint64_t xbr_checkpoint();

/// Collective over `comm`: restore each member's own latest snapshot in
/// place (blocks whose allocation no longer matches are skipped) and deal
/// out excluded non-members' snapshots round-robin across the team.
RestoreReport xbr_restore(Communicator& comm);
RestoreReport xbr_restore();

}  // namespace xbgas
