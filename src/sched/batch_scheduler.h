// ExecutionEngine: job lifecycle management over the cluster.
//
// The engine owns the waiting queue and the running-job table and knows how
// to start, finish, kill, preempt, drain, shrink and expand executions,
// maintaining rigid checkpoint timelines and the malleable work-conserving
// progress model. It schedules its own finish/kill events through the
// Simulator but never *handles* events — the owning scheduler (baseline or
// hybrid) drives it and routes released nodes to reservations.
//
// Released-node protocol: every mutating call that frees nodes returns the
// node ids that landed in the *free pool* (nodes that snapped back to a
// reservation are already routed by the Cluster). The owner forwards them
// to its ReservationManager.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "checkpoint/checkpoint_model.h"
#include "metrics/collector.h"
#include "platform/cluster.h"
#include "sched/availability.h"
#include "sched/backfill.h"
#include "sched/policy.h"
#include "sched/queue_manager.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/trace.h"

namespace hs {

struct EngineConfig {
  /// Ordering-policy name, resolved through PolicyRegistry() at engine
  /// construction (custom policies registered there are usable here).
  std::string policy = "FCFS";
  CheckpointConfig checkpoint;
  /// When false, malleable jobs are treated as rigid at their maximum size
  /// (the Table II baseline behaviour).
  bool malleable_flexible = true;
  /// Amazon-style warning granted to a malleable job before its nodes are
  /// taken (§III-A; progress is preserved).
  SimTime drain_warning = 2 * kMinute;

  /// Failure-injection extension (off by default): every execution draws an
  /// exponential failure time with mean failure_node_mtbf / alloc. A failure
  /// interrupts the job like an unplanned preemption — rigid executions
  /// restart from their last completed checkpoint, malleable ones keep the
  /// progress of finished tasks. This is the fault model the Daly interval
  /// assumes; benches use it to study checkpoint frequency under failures
  /// plus preemptions.
  bool inject_failures = false;
  SimTime failure_node_mtbf = 2LL * 365 * kDay;
  std::uint64_t failure_seed = 0xFA11;
};

/// A live execution.
struct RunningJob {
  JobId id = kNoJob;
  const JobRecord* rec = nullptr;
  int alloc = 0;
  int restarts = 0;
  SimTime first_submit = 0;
  SimTime start = 0;
  SimTime setup_end = 0;

  bool malleable_mode = false;  // work-conserving flexible sizing active

  // Rigid/on-demand execution (fixed size, checkpoint timeline).
  RigidTimeline timeline{0, 0, 0, 0};
  SimTime compute_remaining = 0;   // at execution start
  SimTime estimate_remaining = 0;  // user estimate of remaining setup+compute

  // Malleable execution (node-second budget).
  std::int64_t work_remaining = 0;      // at execution start
  std::int64_t est_work_remaining = 0;  // estimate-based budget
  std::int64_t work_done = 0;           // node-seconds accrued this execution
  SimTime last_advance = 0;

  // Scheduled events.
  EventId finish_event = kNoEvent;
  EventId kill_event = kNoEvent;
  EventId failure_event = kNoEvent;  // pending hardware failure (if injected)
  SimTime kill_time_abs = kNever;  // estimate-based completion bound

  // Drain (2-minute warning) state.
  bool draining = false;
  JobId drain_for = kNoJob;
  EventId drain_event = kNoEvent;
  SimTime drain_deadline = kNever;

  bool is_tenant = false;  // backfilled onto someone's reserved nodes
};

class ExecutionEngine {
 public:
  ExecutionEngine(const Trace& trace, const EngineConfig& config,
                  Collector& collector, Simulator& sim);

  /// Clone constructor (the session-fork path): value-copies cluster, queue,
  /// running table, checkpoint model and failure RNG mid-stream, rebinds the
  /// trace/collector/simulator references, recreates the (stateless) policy
  /// instance, and — when `trace` is a different object than the source's —
  /// repoints every per-job record pointer into it by id.
  ExecutionEngine(const ExecutionEngine& other, const Trace& trace,
                  Collector& collector, Simulator& sim);

  const JobRecord& record(JobId id) const { return trace_->jobs[static_cast<std::size_t>(id)]; }
  Cluster& cluster() { return cluster_; }
  const Cluster& cluster() const { return cluster_; }
  /// The waiting queue, kept in the order of the engine's policy.
  QueueManager& queue() { return queue_; }
  const EngineConfig& config() const { return config_; }
  const CheckpointModel& checkpoint_model() const { return ckpt_; }

  // --- queue side ----------------------------------------------------------

  /// Fresh submission (the JobSubmit event). `partition_only` queues the
  /// job for the static on-demand partition only (the batch pass skips it).
  void EnqueueFresh(JobId id, SimTime now, bool boosted = false,
                    bool partition_only = false);

  /// Re-queues a previously preempted execution.
  void EnqueueResubmission(WaitingJob waiting, SimTime now);

  // --- starting ------------------------------------------------------------

  /// Starts a waiting job using its own reserved-idle nodes plus the free
  /// pool, with `alloc` total nodes. Returns false (leaving the queue
  /// untouched) if the nodes are not there.
  bool StartWaiting(JobId id, int alloc, SimTime now);

  /// Starts a waiting job as a *tenant* on the given reserved-idle nodes
  /// (reservation marks retained); used by backfill-on-reserved.
  void StartTenant(JobId id, const std::vector<int>& nodes, SimTime now);

  // --- stopping ------------------------------------------------------------

  /// Normal completion (the JobFinish event). Returns freed nodes.
  std::vector<int> FinishRunning(JobId id, SimTime now);

  /// Runtime-estimate kill (the JobKill event): the job is terminated and
  /// NOT resubmitted. Returns freed nodes.
  std::vector<int> KillAtEstimate(JobId id, SimTime now);

  /// Immediate preemption: rigid jobs lose work since their last completed
  /// checkpoint; malleable jobs keep their progress (loosely-coupled tasks).
  /// The job is resubmitted with its original submit time. Returns freed
  /// nodes.
  std::vector<int> PreemptNow(JobId id, SimTime now, PreemptKind kind);

  /// True when `event` is the pending failure event of `id`'s current
  /// execution (failure events are validated at fire time because restarts
  /// redraw them).
  bool IsCurrentFailureEvent(JobId id, EventId event) const;

  /// Starts the 2-minute warning on a running malleable job; its nodes hand
  /// over when the WarningExpire event fires. `od` is the on-demand job the
  /// nodes are destined for (validation at expiry).
  void BeginDrain(JobId id, JobId od, SimTime now);

  /// Completes a drain (WarningExpire): preserves progress, resubmits, and
  /// returns freed nodes.
  std::vector<int> CompleteDrain(JobId id, SimTime now);

  /// Aborts a pending drain (the on-demand job got its nodes elsewhere).
  void CancelDrain(JobId id);

  // --- malleable resizing --------------------------------------------------

  /// Shrinks a running malleable job by `nodes` (>= 1); runtime stretches
  /// work-conservingly. Returns the released nodes.
  std::vector<int> ShrinkBy(JobId id, int nodes, SimTime now);

  /// Expands a running malleable job onto free nodes.
  void ExpandByFromFree(JobId id, int nodes, SimTime now);

  // --- queries -------------------------------------------------------------

  bool IsRunning(JobId id) const { return running_.count(id) > 0; }
  bool IsWaiting(JobId id) const { return queue_.Contains(id); }
  const RunningJob* Running(JobId id) const;
  std::vector<JobId> RunningIds() const;  // ascending id order
  /// Unordered iteration over live executions (for order-independent
  /// aggregation; use RunningIds() when the visit order is behavior).
  const std::unordered_map<JobId, RunningJob>& running_jobs() const { return running_; }

  /// Estimate-based completion bound of a running job.
  SimTime EstimatedEnd(JobId id, SimTime now) const;

  /// Node-seconds wasted if the job were preempted right now: lost
  /// computation plus the setup it must re-pay (§III-B2's ordering key).
  double PreemptionCostNodeSec(JobId id, SimTime now) const;

  /// Absolute time at which the job's next checkpoint dump completes
  /// (kNever for non-checkpointing jobs or none left).
  SimTime NextCheckpointCompletion(JobId id, SimTime now) const;

  /// Nodes a running malleable job could give up (alloc - min); 0 if not
  /// malleable, draining, or a tenant.
  int ShrinkableNodes(JobId id) const;

  /// True when the job may be preempted (running, not on-demand, not
  /// already draining).
  bool IsPreemptable(JobId id) const;

  // --- the scheduling pass -------------------------------------------------

  /// One EASY pass over the free pool: starts whatever fits, reserves for
  /// the head job. Returns the number of jobs started.
  ///
  /// The pass reads the queue's eligible view, which Add and Remove keep in
  /// policy order in place (no per-pass copy or sort), plans against the
  /// incrementally-maintained availability profile (no per-pass
  /// RunningView snapshot or sort), and skips itself entirely when it is
  /// provably idempotent: the previous pass planned zero starts, the policy
  /// order cannot drift with the clock, none of the pass's inputs (cluster,
  /// queue, profile — each epoch-tracked) has changed, and the clock has
  /// not crossed a profile step. Decisions are
  /// byte-identical to the legacy recompute-from-scratch pass.
  int RunSchedulingPass(SimTime now);

  /// The maintained free-node availability timeline (one step per running
  /// job at its drift-free completion bound).
  const AvailabilityProfile& availability() const { return avail_; }

  /// Wall-estimate of a waiting job started now with `alloc` nodes.
  SimTime WallEstimate(const WaitingJob& w, int alloc) const;

  std::size_t jobs_finished() const { return jobs_finished_; }
  std::size_t jobs_killed() const { return jobs_killed_; }
  std::size_t running_count() const { return running_.size(); }

 private:
  RunningJob& MustRun(JobId id);
  const RunningJob& MustRun(JobId id) const;

  /// EstimatedEnd without the by-id lookup (hot-path form): the job's
  /// drift-free profile bound clamped to now.
  SimTime EstimatedEndOf(const RunningJob& r, SimTime now) const;

  /// The job's drift-free completion bound E: constant between engine
  /// mutations, with EstimatedEndOf(r, now) == max(E, now) (see
  /// availability.h for the derivation). This is the value the
  /// availability profile stores.
  static SimTime ProfileEndOf(const RunningJob& r);

  /// Re-syncs `id`'s availability-profile step with its RunningJob state
  /// (erases the step when the job is no longer running). Called by every
  /// mutation that changes an execution's allocation or completion bound.
  void SyncAvailability(JobId id);

  /// Creates the execution record, pays setup, schedules finish/kill.
  void BeginExecution(WaitingJob waiting, const std::vector<int>& nodes,
                      SimTime now, bool tenant);

  /// Brings a malleable job's work_done up to `now`.
  static void AdvanceProgress(RunningJob& r, SimTime now);
  /// Projected work_done at `now` without mutating.
  static std::int64_t ProjectedWork(const RunningJob& r, SimTime now);

  void ScheduleCompletionEvents(RunningJob& r, SimTime now);
  void CancelCompletionEvents(RunningJob& r);

  /// Turns a running job back into a WaitingJob with remaining demands;
  /// `saved_progress` is the rigid compute the resumed execution skips.
  WaitingJob MakeResubmission(const RunningJob& r, SimTime now, SimTime saved_progress,
                              std::int64_t malleable_done) const;

  /// Charges the overheads an execution actually consumed up to `now`:
  /// setup (pro-rata for mid-setup stops) and, for rigid jobs, wall time
  /// spent writing checkpoint dumps (including a partial dump at stop time).
  void AccountExecutionOverheads(const RunningJob& r, SimTime now);

  const Trace* trace_;
  EngineConfig config_;
  Collector* collector_;
  Simulator* sim_;
  Cluster cluster_;
  std::unique_ptr<OrderingPolicy> policy_;  // the one policy queue_ orders by
  QueueManager queue_;
  CheckpointModel ckpt_;
  Rng failure_rng_;
  std::unordered_map<JobId, RunningJob> running_;
  std::size_t jobs_finished_ = 0;
  std::size_t jobs_killed_ = 0;

  /// Free-node step function over future time, kept in lockstep with
  /// running_ (SyncAvailability at every mutation).
  AvailabilityProfile avail_;

  /// Incremental schedule repair: a pass that planned zero starts records
  /// the epochs of everything it consulted plus the next profile step; a
  /// later pass with identical epochs, a time-invariant policy, and a
  /// clock still short of that step is provably a no-op and is skipped.
  /// Any start invalidates the cache (and bumps the epochs anyway).
  bool pass_cache_valid_ = false;
  std::uint64_t pass_cluster_epoch_ = 0;
  std::uint64_t pass_queue_epoch_ = 0;
  std::uint64_t pass_avail_epoch_ = 0;
  SimTime pass_next_step_ = kNever;
};

}  // namespace hs
