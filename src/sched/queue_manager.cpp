#include "sched/queue_manager.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <stdexcept>

namespace hs {

QueueManager::QueueManager(const QueueManager& other, const OrderingPolicy& policy)
    : policy_(&policy), jobs_(other.jobs_), epoch_(other.epoch_) {
  for (const auto& [id, job] : jobs_) ViewOf(job).push_back(&job);
  SortAt(other.order_now_);
}

void QueueManager::RebindRecords(const std::vector<JobRecord>& jobs) {
  for (auto& [id, job] : jobs_) {
    job.record = &jobs.at(static_cast<std::size_t>(id));
  }
}

bool QueueManager::Before(const WaitingJob* a, const WaitingJob* b) const {
  if (a->boosted != b->boosted) return a->boosted;
  const double ka = policy_->Key(*a, order_now_);
  const double kb = policy_->Key(*b, order_now_);
  if (ka != kb) return ka < kb;
  if (a->first_submit != b->first_submit) return a->first_submit < b->first_submit;
  return a->id < b->id;
}

std::vector<const WaitingJob*>& QueueManager::ViewOf(const WaitingJob& job) {
  return job.partition_only ? partition_ : eligible_;
}

// Arrivals mostly join the tail (FCFS keys grow with the clock) and starts
// mostly leave from the head, so both ends are tried before the binary
// search; every path lands on the same position.
void QueueManager::Insert(std::vector<const WaitingJob*>& view,
                          const WaitingJob* entry) const {
  if (view.empty() || Before(view.back(), entry)) {
    view.push_back(entry);
    return;
  }
  view.insert(std::upper_bound(view.begin(), view.end(), entry, Less{this}), entry);
}

void QueueManager::Erase(std::vector<const WaitingJob*>& view,
                         const WaitingJob* entry) const {
  const auto pos = view.front() == entry
                       ? view.begin()
                       : std::lower_bound(view.begin(), view.end(), entry, Less{this});
  assert(pos != view.end() && *pos == entry);
  view.erase(pos);
}

void QueueManager::SortAt(SimTime now) {
  order_now_ = now;
  std::sort(eligible_.begin(), eligible_.end(), Less{this});
  std::sort(partition_.begin(), partition_.end(), Less{this});
}

bool QueueManager::ViewsConsistent() const {
  const auto partition_only = [](const WaitingJob* w) { return w->partition_only; };
  return eligible_.size() + partition_.size() == jobs_.size() &&
         std::none_of(eligible_.begin(), eligible_.end(), partition_only) &&
         std::all_of(partition_.begin(), partition_.end(), partition_only) &&
         std::is_sorted(eligible_.begin(), eligible_.end(), Less{this}) &&
         std::is_sorted(partition_.begin(), partition_.end(), Less{this});
}

void QueueManager::Add(WaitingJob job) {
  const JobId id = job.id;
  const auto [it, inserted] = jobs_.emplace(id, std::move(job));
  if (!inserted) throw std::runtime_error("QueueManager::Add: duplicate job");
  Insert(ViewOf(it->second), &it->second);
  ++epoch_;
  assert(ViewsConsistent());
}

WaitingJob QueueManager::Remove(JobId id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::runtime_error("QueueManager::Remove: absent job");
  Erase(ViewOf(it->second), &it->second);
  WaitingJob out = std::move(it->second);
  jobs_.erase(it);
  ++epoch_;
  assert(ViewsConsistent());
  return out;
}

bool QueueManager::Contains(JobId id) const { return jobs_.count(id) > 0; }

const WaitingJob* QueueManager::Find(JobId id) const {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

void QueueManager::AdvanceClock(SimTime now) {
  if (!policy_->time_invariant() && now != order_now_) SortAt(now);
}

std::vector<const WaitingJob*> QueueManager::Ordered(SimTime now) {
  AdvanceClock(now);
  if (partition_.empty()) return eligible_;
  std::vector<const WaitingJob*> view;
  view.reserve(jobs_.size());
  std::merge(eligible_.begin(), eligible_.end(), partition_.begin(), partition_.end(),
             std::back_inserter(view), Less{this});
  return view;
}

const std::vector<const WaitingJob*>& QueueManager::OrderedEligible(SimTime now) {
  AdvanceClock(now);
  return eligible_;
}

std::vector<const WaitingJob*> QueueManager::All() const {
  std::vector<const WaitingJob*> view;
  view.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) view.push_back(&job);
  return view;
}

}  // namespace hs
