// Waiting-queue container: insertion, removal, and policy-ordered views.
//
// The queue is bound to one OrderingPolicy (the engine's) and keeps its
// entries in that policy's order as it changes, in two disjoint views: the
// batch-eligible entries (the scheduling pass's per-pass input) and the
// partition-only ones. Add inserts an entry at its sorted position in its
// view and Remove erases it there (a binary search on the comparator), so
// no pass copies or sorts the queue; Ordered() merges the two views. The
// order is (boosted first, policy key, first_submit, id): a total order,
// ties ending at the unique job id, so the maintained views are
// bit-identical to a fresh sort. A full sort is left only where no
// maintained order exists yet: when a copy builds its views over its own
// entries, and when a wait-aware policy (not time_invariant(), e.g. WFP3)
// is asked for its order at a clock the views were not sorted at.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sched/policy.h"

namespace hs {

class QueueManager {
 public:
  /// Binds the queue to `policy`, which must outlive it.
  explicit QueueManager(const OrderingPolicy& policy) : policy_(&policy) {}

  /// Copies the entries and the epoch, bound to `policy` (the session-fork
  /// path: a forked engine owns its own policy instance). The views are
  /// rebuilt with one sort over the copy's own entries — bit-identical to
  /// the source's, the comparator being a total order.
  QueueManager(const QueueManager& other, const OrderingPolicy& policy);
  // A plain copy would keep view pointers into the source's entries.
  QueueManager(const QueueManager&) = delete;
  QueueManager& operator=(const QueueManager&) = delete;

  /// Points every entry's `record` at the matching JobRecord in `jobs`
  /// (indexed by id). Used after a fork deep-copies the trace the records
  /// lived in; ordering inputs are unchanged, so the epoch stays put.
  void RebindRecords(const std::vector<JobRecord>& jobs);

  /// Inserts the entry at its ordered position; throws on a duplicate id.
  /// `boosted` and `partition_only` are ordering inputs, so they are set
  /// before the Add and never edited in place.
  void Add(WaitingJob job);
  /// Removes and returns the entry; throws if absent.
  WaitingJob Remove(JobId id);
  bool Contains(JobId id) const;
  const WaitingJob* Find(JobId id) const;

  std::size_t size() const { return jobs_.size(); }
  bool empty() const { return jobs_.empty(); }

  /// Bumped by every Add and Remove; schedulers key their own pass caches
  /// on it (paired with the cluster and availability-profile epochs).
  std::uint64_t epoch() const { return epoch_; }

  /// Entries ordered by (boosted first, policy key at `now`, first_submit,
  /// id). The returned vector is the caller's own copy, safe across queue
  /// edits.
  std::vector<const WaitingJob*> Ordered(SimTime now);

  /// Ordered() minus partition_only entries — the scheduling pass's view.
  /// Returns a reference to the maintained view: valid only until the next
  /// queue mutation, so callers must finish reading before starting or
  /// removing jobs.
  const std::vector<const WaitingJob*>& OrderedEligible(SimTime now);

  /// Unordered view (iteration for metrics/tests).
  std::vector<const WaitingJob*> All() const;

 private:
  /// The queue order under the bound policy's keys at `order_now_`.
  bool Before(const WaitingJob* a, const WaitingJob* b) const;
  struct Less {
    const QueueManager* queue;
    bool operator()(const WaitingJob* a, const WaitingJob* b) const {
      return queue->Before(a, b);
    }
  };
  /// The view `job` belongs in: partition_ or eligible_.
  std::vector<const WaitingJob*>& ViewOf(const WaitingJob& job);
  void Insert(std::vector<const WaitingJob*>& view, const WaitingJob* entry) const;
  void Erase(std::vector<const WaitingJob*>& view, const WaitingJob* entry) const;
  /// Re-sorts both views with the keys taken at `now`.
  void SortAt(SimTime now);
  /// Brings the views to `now`: a no-op unless the policy is wait-aware
  /// and the clock moved since the last sort.
  void AdvanceClock(SimTime now);
  /// Debug invariant: both views sorted under Before(), holding exactly
  /// the entries of their kind, and together as many as the map.
  bool ViewsConsistent() const;

  const OrderingPolicy* policy_;
  std::unordered_map<JobId, WaitingJob> jobs_;
  std::uint64_t epoch_ = 0;

  // The non-partition_only and the partition_only entries, each in Before()
  // order. Entry pointers stay valid across map churn (unordered_map nodes
  // are stable); Remove erases an entry's pointer before its node.
  std::vector<const WaitingJob*> eligible_;
  std::vector<const WaitingJob*> partition_;
  // The clock the views' keys were taken at. Only wait-aware policies read
  // it; for time-invariant ones the order holds at every clock.
  SimTime order_now_ = 0;
};

}  // namespace hs
