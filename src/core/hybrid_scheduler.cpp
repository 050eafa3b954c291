#include "core/hybrid_scheduler.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/mechanism_context.h"
#include "util/log.h"

namespace hs {

/// The scheduler-backed MechanismContext: exposes exactly the state
/// strategies may touch, each call forwarding to the owning scheduler's
/// internals.
class HybridScheduler::Context final : public MechanismContext {
 public:
  explicit Context(HybridScheduler& sched) : s_(&sched) {}

  const JobRecord& record(JobId id) const override { return s_->engine_.record(id); }
  std::vector<JobId> RunningIds() const override { return s_->engine_.RunningIds(); }
  const RunningJob* Running(JobId id) const override { return s_->engine_.Running(id); }
  bool IsPreemptable(JobId id) const override { return s_->engine_.IsPreemptable(id); }
  SimTime EstimatedEnd(JobId id, SimTime now) const override {
    return s_->engine_.EstimatedEnd(id, now);
  }
  double PreemptionCostNodeSec(JobId id, SimTime now) const override {
    return s_->engine_.PreemptionCostNodeSec(id, now);
  }
  SimTime NextCheckpointCompletion(JobId id, SimTime now) const override {
    return s_->engine_.NextCheckpointCompletion(id, now);
  }
  int ShrinkableNodes(JobId id) const override {
    return s_->engine_.ShrinkableNodes(id);
  }

  int FreeCount() const override { return s_->engine_.cluster().free_count(); }
  int ReservedCount(JobId od) const override {
    return s_->engine_.cluster().ReservedCount(od);
  }
  bool HasReservation(JobId od) const override { return s_->reservations_.Has(od); }
  const Reservation* FindReservation(JobId od) const override {
    return s_->reservations_.Find(od);
  }
  int ReservationDeficit(JobId od) const override {
    return s_->reservations_.Deficit(od);
  }
  int PendingDrainNodes(JobId od) const override { return s_->PendingDrainNodes(od); }

  SimTime drain_warning() const override { return s_->config_.engine.drain_warning; }
  SimTime reservation_timeout() const override { return s_->config_.reservation_timeout; }
  Collector& collector() override { return *s_->collector_; }

  void OpenReservation(JobId od, int target, SimTime notice_time,
                       SimTime predicted_arrival) override {
    s_->reservations_.Open(od, target, notice_time, predicted_arrival);
  }
  EventId Schedule(SimTime time, EventKind kind, JobId job, std::int64_t aux) override {
    return s_->sim_->Schedule(time, kind, job, aux);
  }
  std::vector<int> PreemptNow(JobId victim, SimTime now, PreemptKind kind) override {
    return s_->engine_.PreemptNow(victim, now, kind);
  }
  void BeginDrain(JobId victim, JobId od, SimTime now) override {
    s_->engine_.BeginDrain(victim, od, now);
  }
  std::vector<int> ShrinkBy(JobId victim, int nodes, SimTime now) override {
    return s_->engine_.ShrinkBy(victim, nodes, now);
  }
  void RecordLease(JobId od, JobId lender, int nodes, LeaseKind kind) override {
    s_->ledger_.Record(od, lender, nodes, kind);
  }
  void GiveTo(JobId od) override { s_->GiveTo(od); }

 private:
  HybridScheduler* s_;
};

HybridScheduler::HybridScheduler(const Trace& trace, const HybridConfig& config,
                                 Collector& collector, Simulator& sim)
    : trace_(&trace),
      config_(config),
      collector_(&collector),
      sim_(&sim),
      engine_(trace, config.engine, collector, sim),
      reservations_(engine_.cluster()),
      util_track_(trace.num_nodes) {
  const std::string config_error = config_.Validate();
  if (!config_error.empty()) {
    throw std::invalid_argument("HybridConfig: " + config_error);
  }
  // Online sessions append live submissions at the trace tail, so submit
  // order is not required here — every other per-job rule still is.
  const std::string trace_error = trace.Validate(/*require_sorted=*/false);
  if (!trace_error.empty()) {
    throw std::invalid_argument("Trace: " + trace_error);
  }
  mech_ = MakeMechanismRuntime(config_.mechanism);
  ctx_ = std::make_unique<Context>(*this);
  if (config_.static_od_partition > 0) {
    if (config_.static_od_partition >= trace.num_nodes) {
      throw std::invalid_argument("static_od_partition must leave batch nodes");
    }
    // A permanent, non-absorbing reservation carves the partition out of the
    // batch pool; on-demand jobs run on it as tenants so their nodes snap
    // back to the partition at completion.
    reservations_.Open(kStaticPartitionHolder, config_.static_od_partition,
                       /*notice_time=*/-1, kNever, /*absorbing=*/false,
                       /*grab_free=*/true);
  }
}

HybridScheduler::HybridScheduler(const HybridScheduler& other, const Trace& trace,
                                 Collector& collector, Simulator& sim)
    : trace_(&trace),
      config_(other.config_),
      collector_(&collector),
      sim_(&sim),
      engine_(other.engine_, trace, collector, sim),
      reservations_(other.reservations_, engine_.cluster()),
      ledger_(other.ledger_),
      util_track_(other.util_track_),
      canceled_(other.canceled_) {
  mech_ = MakeMechanismRuntime(config_.mechanism);
  ctx_ = std::make_unique<Context>(*this);
}

HybridScheduler::~HybridScheduler() = default;

void HybridScheduler::Prime() {
  for (const JobRecord& job : trace_->jobs) PrimeJob(job);
}

void HybridScheduler::PrimeJob(const JobRecord& job) {
  sim_->Schedule(job.submit_time, EventKind::kJobSubmit, job.id);
  if (mech_.uses_notices && job.is_on_demand() && job.has_notice()) {
    sim_->Schedule(job.notice_time, EventKind::kAdvanceNotice, job.id);
  }
}

bool HybridScheduler::CancelJob(JobId id, SimTime now) {
  if (id < 0 || static_cast<std::size_t>(id) >= trace_->jobs.size()) return false;
  if (canceled_.count(id) > 0 || engine_.IsRunning(id)) return false;
  const bool waiting = engine_.IsWaiting(id);
  const bool pending = engine_.record(id).submit_time > now;
  if (!waiting && !pending) return false;  // finished, killed, or mid-lifecycle
  canceled_.insert(id);
  if (waiting) engine_.queue().Remove(id);
  // Drop whatever the mechanism holds for the job. Closing a reservation is
  // safe even against a scheduled planned preempt or timeout: both fire as
  // no-ops once the reservation is gone (the CUP guards), exactly like the
  // reservation-timeout path.
  if (reservations_.Has(id)) reservations_.Close(id);
  ledger_.Drop(id);
  Absorb();
  return true;
}

void HybridScheduler::HandleEvent(const Event& event, Simulator&) {
  engine_.cluster().Touch(event.time);
  util_track_.Record(event.time, engine_.cluster().busy_count());
  switch (event.kind) {
    case EventKind::kJobSubmit:
      OnSubmitEvent(event.job, event.time);
      break;
    case EventKind::kAdvanceNotice:
      OnNoticeEvent(event.job, event.time);
      break;
    case EventKind::kJobFinish:
      OnFinishEvent(event.job, event.time);
      break;
    case EventKind::kJobKill:
      OnKillEvent(event.job, event.time);
      break;
    case EventKind::kWarningExpire:
      OnWarningExpireEvent(event.job, static_cast<JobId>(event.aux), event.time);
      break;
    case EventKind::kPlannedPreempt:
      OnPlannedPreemptEvent(event.job, static_cast<JobId>(event.aux), event.time);
      break;
    case EventKind::kReservationTimeout:
      OnReservationTimeoutEvent(event.job, event.time);
      break;
    case EventKind::kNodeFailure:
      // Failures are validated against the current execution: a restart
      // redraws its own failure event, making this one stale.
      if (engine_.IsCurrentFailureEvent(event.job, event.id)) {
        engine_.PreemptNow(event.job, event.time, PreemptKind::kFailure);
        Absorb();
      }
      break;
    case EventKind::kSchedule:
      break;  // the quiescent pass does the work
  }
}

void HybridScheduler::OnSubmitEvent(JobId id, SimTime now) {
  if (canceled_.count(id) > 0) return;  // canceled while pending
  const JobRecord& rec = engine_.record(id);
  if (rec.is_on_demand() && config_.static_od_partition > 0) {
    // Dedicated-cluster comparator: the job runs inside the partition
    // (unless it does not fit there at all, in which case it falls back to
    // the shared batch queue like any other job).
    //
    // Same-tick batch admission: a partition job is only queued here; the
    // one TryStartPartitionJobs call in OnQuiescent admits the whole tick's
    // arrivals in a single FIFO walk. Decisions are unchanged — the
    // partition queue is FIFO, finishes (which grow the idle set) sort
    // before submits within a tick, and OnQuiescent runs before the clock
    // advances — so N same-tick submits cost one walk, not N.
    engine_.EnqueueFresh(id, now, /*boosted=*/false,
                         /*partition_only=*/rec.size <= config_.static_od_partition);
    return;
  }
  if (rec.is_on_demand() && !mech_.baseline) {
    HandleOnDemandArrival(id, now);
  } else {
    engine_.EnqueueFresh(id, now, /*boosted=*/false);
  }
}

void HybridScheduler::OnNoticeEvent(JobId od, SimTime now) {
  if (canceled_.count(od) > 0) return;  // canceled while pending
  if (!mech_.uses_notices || mech_.notice == nullptr) return;
  mech_.notice->OnNotice(*ctx_, od, now);
}

void HybridScheduler::OnPlannedPreemptEvent(JobId job, JobId od, SimTime now) {
  if (mech_.notice == nullptr) return;
  mech_.notice->OnPlannedPreempt(*ctx_, job, od, now);
}

void HybridScheduler::HandleOnDemandArrival(JobId od, SimTime now) {
  const JobRecord& rec = engine_.record(od);
  // The on-demand job joins the system at the head of the queue (boosted);
  // it starts the moment its absorbing reservation covers the request.
  engine_.EnqueueFresh(od, now, /*boosted=*/true);

  if (!reservations_.Has(od)) {
    // No notice (or the reservation timed out before a late arrival).
    reservations_.Open(od, rec.size, now, kNever);
  }
  reservations_.MarkArrived(od);

  // Backfilled tenants on this job's reserved nodes are preempted
  // immediately (§III-B1).
  for (const JobId tenant : engine_.cluster().TenantsOf(od)) {
    engine_.PreemptNow(tenant, now, PreemptKind::kBackfillKill);
  }
  GiveTo(od);

  if (reservations_.Deficit(od) > 0 && mech_.arrival != nullptr) {
    mech_.arrival->OnArrival(*ctx_, od, now);
  }
}

void HybridScheduler::OnFinishEvent(JobId id, SimTime now) {
  const JobRecord& rec = engine_.record(id);
  const std::vector<int> freed = engine_.FinishRunning(id, now);
  if (rec.is_on_demand() && !mech_.baseline) {
    SettleLeases(id, static_cast<int>(freed.size()), now);
  }
  Absorb();
}

void HybridScheduler::OnKillEvent(JobId id, SimTime now) {
  const JobRecord& rec = engine_.record(id);
  HS_LOG(kWarn) << "job " << id << " killed at its runtime estimate (t=" << now << ")";
  const std::vector<int> freed = engine_.KillAtEstimate(id, now);
  if (rec.is_on_demand() && !mech_.baseline) {
    SettleLeases(id, static_cast<int>(freed.size()), now);
  }
  Absorb();
}

void HybridScheduler::OnWarningExpireEvent(JobId job, JobId od, SimTime now) {
  if (!engine_.IsRunning(job)) return;  // completed before the warning expired
  const RunningJob* r = engine_.Running(job);
  if (!r->draining || r->drain_for != od) return;
  const bool still_needed = reservations_.Has(od) && reservations_.Deficit(od) > 0;
  if (!still_needed) {
    engine_.CancelDrain(job);  // the on-demand job got covered elsewhere
    return;
  }
  const std::vector<int> freed = engine_.CompleteDrain(job, now);
  ledger_.Record(od, job, static_cast<int>(freed.size()), LeaseKind::kPreempted);
  GiveTo(od);
  if (mech_.notice != nullptr) mech_.notice->OnWarningExpire(*ctx_, job, od, now);
}

void HybridScheduler::OnReservationTimeoutEvent(JobId od, SimTime now) {
  const Reservation* r = reservations_.Find(od);
  if (r == nullptr || r->arrived) return;
  HS_LOG(kDebug) << "reservation timeout for on-demand job " << od << " at t=" << now;
  reservations_.Close(od);
  // Lenders preempted ahead of time lose their lease claim; they recover
  // through the queue (they kept their original submit times).
  ledger_.Drop(od);
  Absorb();
}

int HybridScheduler::PendingDrainNodes(JobId od) const {
  int total = 0;  // a sum — map order is irrelevant
  for (const auto& [id, r] : engine_.running_jobs()) {
    if (r.draining && r.drain_for == od) total += r.alloc;
  }
  return total;
}

void HybridScheduler::GiveTo(JobId od) {
  reservations_.TopUp(od);
  reservations_.AbsorbFromFree();
}

void HybridScheduler::Absorb() { reservations_.AbsorbFromFree(); }

void HybridScheduler::SettleLeases(JobId od, int credit, SimTime now) {
  const std::vector<Lease> leases = ledger_.Take(od);
  for (const Lease& lease : leases) {
    if (credit <= 0) break;
    const JobRecord& lender_rec = engine_.record(lease.lender);
    if (lease.kind == LeaseKind::kShrunk) {
      // Expand a still-running shrunk lender back toward its original size
      // (§III-B3: "we will expand this job to its original size").
      const RunningJob* r = engine_.Running(lease.lender);
      if (r == nullptr || !r->malleable_mode || r->draining) continue;
      const int headroom = lender_rec.size - r->alloc;
      const int grow =
          std::min({lease.nodes, headroom, credit, engine_.cluster().free_count()});
      if (grow > 0) {
        engine_.ExpandByFromFree(lease.lender, grow, now);
        credit -= grow;
      }
      continue;
    }
    // Preempted lender: return the leased nodes; resume immediately if whole.
    if (!engine_.IsWaiting(lease.lender)) continue;  // already restarted elsewhere
    const int give = std::min({lease.nodes, credit, engine_.cluster().free_count()});
    if (give > 0 && config_.hold_returned_nodes) {
      const int needed = lender_rec.is_malleable() && config_.engine.malleable_flexible
                             ? lender_rec.min_size
                             : lender_rec.size;
      if (!reservations_.Has(lease.lender)) {
        reservations_.Open(lease.lender, needed, now, kNever,
                           /*absorbing=*/false, /*grab_free=*/false);
      }
      const int held = engine_.cluster().ReserveFromFree(lease.lender, give);
      credit -= held;
    }
    const int held_now = engine_.cluster().ReservedIdleCount(lease.lender);
    const int free_now = engine_.cluster().free_count();
    int alloc = lender_rec.size;
    if (lender_rec.is_malleable() && config_.engine.malleable_flexible) {
      alloc = std::min(lender_rec.size, std::max(lender_rec.min_size, held_now + free_now));
    }
    if (held_now + free_now >= alloc) {
      engine_.StartWaiting(lease.lender, alloc, now);
    }
  }
}

void HybridScheduler::TryStartPartitionJobs(SimTime now) {
  if (config_.static_od_partition <= 0) return;
  // FIFO over the partition-only waiting jobs.
  std::vector<const WaitingJob*> waiting;
  for (const WaitingJob* w : engine_.queue().All()) {
    if (w->partition_only) waiting.push_back(w);
  }
  std::sort(waiting.begin(), waiting.end(), [](const WaitingJob* a, const WaitingJob* b) {
    if (a->first_submit != b->first_submit) return a->first_submit < b->first_submit;
    return a->id < b->id;
  });
  std::vector<int> idle = engine_.cluster().ReservedIdleNodes(kStaticPartitionHolder);
  for (const WaitingJob* w : waiting) {
    if (w->size() > static_cast<int>(idle.size())) break;  // FIFO blocking
    std::vector<int> chosen(idle.end() - w->size(), idle.end());
    idle.resize(idle.size() - w->size());
    engine_.StartTenant(w->id, chosen, now);
  }
}

void HybridScheduler::CleanupReservations() {
  // Collect first, close after: Close() edits the open-reservation vector,
  // so the ids are gathered over the copy-free view and closed separately.
  std::vector<JobId> stale;
  for (const Reservation& r : reservations_.OpenView()) {
    if (r.od < 0) continue;  // the static partition is permanent
    const bool owner_running = engine_.IsRunning(r.od);
    const bool owner_waiting = engine_.IsWaiting(r.od);
    const JobRecord& rec = engine_.record(r.od);
    // An on-demand reservation whose owner has not arrived yet stays open
    // even though the owner is neither queued nor running.
    const bool pre_arrival = rec.is_on_demand() && !r.arrived;
    if (owner_running || (!owner_waiting && !pre_arrival)) {
      stale.push_back(r.od);
    }
  }
  for (const JobId od : stale) reservations_.Close(od);
}

void HybridScheduler::BackfillOnReserved(SimTime now) {
  if (!config_.backfill_on_reserved) return;
  // StartTenant never opens or closes reservations, so the copy-free view
  // stays valid across the loop.
  for (const Reservation& r : reservations_.OpenView()) {
    if (r.arrived || r.predicted_arrival == kNever || r.predicted_arrival <= now) {
      continue;
    }
    std::vector<int> idle = engine_.cluster().ReservedIdleNodes(r.od);
    if (idle.empty()) continue;
    const SimTime window = r.predicted_arrival - now;
    // Scan the queue in policy order (a copy of the queue's maintained
    // view); place jobs that provably finish before the owner's predicted
    // arrival.
    for (const WaitingJob* w : engine_.queue().Ordered(now)) {
      if (idle.empty()) break;
      if (w->boosted) continue;  // never divert a waiting on-demand job
      if (engine_.cluster().ReservedIdleCount(w->id) > 0) continue;  // lender hold
      const int avail = static_cast<int>(idle.size());
      if (w->min_size() > avail) continue;
      const int alloc = std::min(w->size(), avail);
      if (engine_.WallEstimate(*w, alloc) > window) continue;
      std::vector<int> chosen(idle.end() - alloc, idle.end());
      idle.resize(idle.size() - alloc);
      engine_.StartTenant(w->id, chosen, now);
    }
  }
}

void HybridScheduler::OnQuiescent(SimTime now, Simulator&) {
  engine_.cluster().Touch(now);
  CleanupReservations();
  if (config_.opportunistic_expand) {
    for (const JobId id : engine_.RunningIds()) {
      const RunningJob* r = engine_.Running(id);
      if (!r->malleable_mode || r->draining || r->is_tenant) continue;
      const int headroom = r->rec->size - r->alloc;
      const int grow = std::min(headroom, engine_.cluster().free_count());
      if (grow > 0) engine_.ExpandByFromFree(id, grow, now);
    }
  }
  engine_.RunSchedulingPass(now);
  CleanupReservations();
  // Progress valve: lender courtesy holds (non-absorbing reservations) may
  // pin every idle node while the queue is blocked behind a job that can
  // never accumulate its allocation — with nothing running and no events
  // pending, that is a permanent wedge. Break the holds and retry.
  if (engine_.cluster().busy_count() == 0 && !engine_.queue().empty()) {
    std::vector<JobId> holds;
    for (const Reservation& r : reservations_.OpenView()) {
      if (!r.absorbing && r.od >= 0) holds.push_back(r.od);  // never break the static partition
    }
    for (const JobId od : holds) reservations_.Close(od);
    if (!holds.empty()) {
      Absorb();
      engine_.RunSchedulingPass(now);
      CleanupReservations();
    }
  }
  TryStartPartitionJobs(now);
  BackfillOnReserved(now);
  util_track_.Record(now, engine_.cluster().busy_count());
}

}  // namespace hs
