#pragma once

// RecoveryState — the machine-global failure roster and agreement board that
// upgrade the PR 2 fail-stop substrate to fail-recover (docs/RESILIENCE.md).
//
// Three responsibilities, all behind one mutex (recovery is a cold path):
//
//  * Failure roster: which world ranks have primarily failed. Machine::run
//    marks a rank failed the moment its exception is caught — *before* the
//    region joins — so survivors executing the recovery protocol can observe
//    the death synchronously instead of waiting for post-mortem state.
//
//  * Acknowledgment epochs: a failure starts *unacknowledged* (every barrier
//    registered while one exists is poisoned at birth — the PR 2 fail-fast
//    behavior). When an agreement's decision excludes a failed rank from the
//    survivor roster, that failure becomes *acknowledged*: the survivors
//    have collectively observed it, and barriers created for the shrunken
//    team (a later recovery epoch) are born clean. A region whose only
//    failures are acknowledged primaries returns normally from Machine::run
//    instead of throwing — the definition of "a PE death no longer kills
//    the job".
//
//  * Agreement board: the rendezvous under xbr_agree. Each participant
//    publishes a seq-stamped contribution (its flag + clock); the decision —
//    a binomial-tree fold over the live contributions, produced exactly once
//    by the smallest-indexed *live* participant — is the bitwise-identical
//    (roster, flag) every survivor returns. Leader takeover is implicit:
//    every waiter re-derives "smallest live expected rank" on each wake, so
//    a leader dying mid-agreement (KillSite::kAgree) just moves the decision
//    duty to the next survivor. The board is host shared memory standing in
//    for the xBGAS implementation, where each fold step is a remote
//    load/flag write into the parent's shared segment; the modeled
//    tree-shaped cost is charged by xbr_agree (src/collectives/agree.cpp).
//
// Sits in src/fault (depends only on common) so both the machine layer and
// the collectives layer can reach it without a dependency cycle.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "fault/errors.hpp"

namespace xbgas {

/// Machine-wide recovery counters (collect_counters folds these in as
/// recovery.*). Event counters (agreements, shrinks, ...) count protocol
/// events once — not once per participant — so their values are
/// deterministic for a scripted failure plan.
struct RecoveryCounters {
  std::atomic<std::uint64_t> agreements{0};
  std::atomic<std::uint64_t> shrinks{0};
  std::atomic<std::uint64_t> revokes{0};
  std::atomic<std::uint64_t> checkpoints{0};
  std::atomic<std::uint64_t> restores{0};
  std::atomic<std::uint64_t> checkpointed_bytes{0};
  std::atomic<std::uint64_t> restored_bytes{0};
  std::atomic<std::uint64_t> orphaned_bytes{0};

  void reset() {
    agreements = 0;
    shrinks = 0;
    revokes = 0;
    checkpoints = 0;
    restores = 0;
    checkpointed_bytes = 0;
    restored_bytes = 0;
    orphaned_bytes = 0;
  }
};

/// The outcome of one agreement: identical on every survivor.
struct AgreeDecision {
  std::uint64_t seq = 0;          ///< agreement sequence number
  std::vector<int> roster;        ///< surviving world ranks, ascending
  std::uint64_t flag = 0;         ///< AND over the survivors' contributions
  std::uint64_t max_cycles = 0;   ///< max contributor SimClock at decision
  /// Live ranks the quorum rule excluded: the minority side of a network
  /// partition plus peers evicted as unreachable over a dead link. These
  /// ranks are pre-acknowledged at decision time and unwind with
  /// PartitionedError (ascending; empty when the reachability graph is whole).
  std::vector<int> partitioned;
};

class RecoveryState {
 public:
  explicit RecoveryState(int n_pes);

  RecoveryState(const RecoveryState&) = delete;
  RecoveryState& operator=(const RecoveryState&) = delete;

  // -- Failure roster --

  /// Record that `rank` primarily failed (idempotent). Wakes agreement
  /// waiters so a mid-agreement death unblocks the decision.
  void mark_failed(int rank);

  bool failed(int rank) const;
  int n_failed() const;
  std::vector<int> failed_ranks() const;  ///< ascending

  /// True when some failed rank has not yet been excluded by an agreement.
  /// Barriers registered while this holds are poisoned at birth.
  bool has_unacknowledged_failure() const;

  /// True when `rank` failed AND an agreement has acknowledged the failure.
  bool acknowledged(int rank) const;

  /// Ranks some decided agreement excluded from its survivor roster: the
  /// failures it acknowledged plus the partitioned and evicted ranks it
  /// pre-acknowledged, whether or not those have unwound yet (ascending).
  /// The decision fixes the set before any survivor returns from the
  /// agreement, so every survivor reads the same one afterwards.
  std::vector<int> excluded_ranks() const;

  // -- Reachability graph (fed by LinkFaults callbacks + escalation) --

  /// Record that the direct pair path (a, b) is scripted down / healed.
  /// Wired to LinkFaults by the Machine so the quorum rule of xbr_agree sees
  /// the same reachability graph the transport enforces.
  void note_link_down(int a, int b);
  void note_link_up(int a, int b);

  /// Record that `reporter` exhausted its retries against `suspect` across a
  /// dead link (PeUnreachableError escalation). The next agreement whose
  /// majority component still contains both endpoints evicts the larger one
  /// into AgreeDecision::partitioned — survivors expel unreachable-but-alive
  /// peers exactly like dead ones.
  void note_unreachable(int reporter, int suspect);

  /// Pairs (a < b) currently noted down (diagnostics/tests).
  std::vector<std::pair<int, int>> down_pairs() const;

  /// Completed agreements on this machine (the recovery epoch).
  std::uint64_t epoch() const;

  // -- Agreement board (driven by xbr_agree) --

  /// The calling rank's next agreement sequence number. Participants of the
  /// same agreement share one participation history (world, then each
  /// shrunken roster in turn), so they compute the same seq.
  std::uint64_t begin_agreement(int rank);

  /// Publish `rank`'s contribution to agreement (`seq`, `expected`).
  void contribute(int rank, std::uint64_t seq, const std::vector<int>& expected,
                  std::uint64_t flag, std::uint64_t cycles);

  /// Block until agreement (`seq`, `expected`) decides, taking over the
  /// decision duty whenever this rank is the smallest member of the majority
  /// component and every live member of that component has contributed.
  ///
  /// Quorum rule (split-brain safety): only the component of the live
  /// expected ranks — connected over full-mesh-minus-down-pairs — holding a
  /// *strict majority* of the live expected set may decide; its decision
  /// needs no contribution from the minority, so the majority side makes
  /// progress while partitioned. Callers the decision lists as partitioned
  /// (minority members, evicted unreachable peers) throw PartitionedError
  /// here instead of returning. When no component holds a quorum (an even
  /// split), the global smallest live rank folds an empty no-quorum decision
  /// once every live rank contributed, and every caller unwinds with
  /// PartitionedError. Throws AgreementTimeoutError after `timeout_ms` host
  /// milliseconds (0 selects the 60 s safety net) naming the ranks that
  /// neither contributed nor failed.
  AgreeDecision await_decision(int rank, std::uint64_t seq,
                               const std::vector<int>& expected,
                               std::uint64_t timeout_ms);

  RecoveryCounters& counters() { return counters_; }
  const RecoveryCounters& counters() const { return counters_; }

 private:
  struct Contribution {
    std::uint64_t flag = 0;
    std::uint64_t cycles = 0;
  };
  struct Round {
    std::map<int, Contribution> contrib;  ///< world rank -> contribution
    AgreeDecision decision;
    bool decided = false;
  };
  /// Disjoint groups can run agreements concurrently with equal seq values;
  /// keying rounds by (seq, expected set) keeps their boards separate.
  using RoundKey = std::pair<std::uint64_t, std::vector<int>>;

  Round& round_locked(std::uint64_t seq, const std::vector<int>& expected);
  /// Majority component of `live` over full-mesh-minus-down_pairs_; empty
  /// when no component holds a strict majority. Requires mutex_ held.
  std::vector<int> majority_component_locked(
      const std::vector<int>& live) const;

  const int n_pes_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<char> failed_;
  std::vector<char> acknowledged_;
  std::vector<std::uint64_t> participations_;  ///< per-rank agreement count
  std::uint64_t epoch_ = 0;
  std::map<RoundKey, Round> rounds_;
  /// Pair paths currently scripted down (normalized a < b).
  std::set<std::pair<int, int>> down_pairs_;
  /// Escalation notes: (a, b) -> times some PE reported the peer across the
  /// pair unreachable after exhausting retries.
  std::map<std::pair<int, int>, int> unreachable_notes_;
  RecoveryCounters counters_;
};

}  // namespace xbgas
