#include "sched/policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "exp/fixtures.h"
#include "sched/queue_manager.h"
#include "util/rng.h"

namespace hs {
namespace {

JobRecord MakeRecord(JobId id, int size, SimTime estimate) {
  JobRecord rec;
  rec.id = id;
  rec.size = size;
  rec.min_size = size;
  rec.compute_time = estimate;
  rec.estimate = estimate;
  return rec;
}

WaitingJob MakeWaiting(const JobRecord& rec, SimTime submit) {
  WaitingJob w;
  w.id = rec.id;
  w.record = &rec;
  w.first_submit = submit;
  w.enqueue_time = submit;
  w.estimate_remaining = rec.estimate;
  return w;
}

TEST(PolicyTest, FcfsOrdersBySubmitTime) {
  const auto rec1 = MakeRecord(1, 10, 100);
  const auto rec2 = MakeRecord(2, 10, 100);
  const auto w1 = MakeWaiting(rec1, 500);
  const auto w2 = MakeWaiting(rec2, 100);
  const auto policy = MakePolicy(PolicyKind::kFcfs);
  EXPECT_GT(policy->Key(w1, 1000), policy->Key(w2, 1000));
}

TEST(PolicyTest, SjfOrdersByEstimate) {
  const auto rec1 = MakeRecord(1, 10, 50);
  const auto rec2 = MakeRecord(2, 10, 500);
  const auto w1 = MakeWaiting(rec1, 0);
  const auto w2 = MakeWaiting(rec2, 0);
  const auto policy = MakePolicy(PolicyKind::kSjf);
  EXPECT_LT(policy->Key(w1, 0), policy->Key(w2, 0));
  const auto ljf = MakePolicy(PolicyKind::kLjf);
  EXPECT_GT(ljf->Key(w1, 0), ljf->Key(w2, 0));
}

TEST(PolicyTest, SizePolicies) {
  const auto rec1 = MakeRecord(1, 8, 100);
  const auto rec2 = MakeRecord(2, 64, 100);
  const auto w1 = MakeWaiting(rec1, 0);
  const auto w2 = MakeWaiting(rec2, 0);
  EXPECT_LT(MakePolicy(PolicyKind::kSmallestFirst)->Key(w1, 0),
            MakePolicy(PolicyKind::kSmallestFirst)->Key(w2, 0));
  EXPECT_GT(MakePolicy(PolicyKind::kLargestFirst)->Key(w1, 0),
            MakePolicy(PolicyKind::kLargestFirst)->Key(w2, 0));
}

TEST(PolicyTest, Wfp3FavorsLongWaiters) {
  const auto rec = MakeRecord(1, 10, 1000);
  auto w_old = MakeWaiting(rec, 0);
  auto w_new = MakeWaiting(rec, 0);
  w_old.enqueue_time = 0;
  w_new.enqueue_time = 5000;
  const auto policy = MakePolicy(PolicyKind::kWfp3);
  EXPECT_LT(policy->Key(w_old, 10000), policy->Key(w_new, 10000));
}

TEST(PolicyTest, AllPoliciesHaveNames) {
  for (const auto kind : {PolicyKind::kFcfs, PolicyKind::kSjf, PolicyKind::kLjf,
                          PolicyKind::kSmallestFirst, PolicyKind::kLargestFirst,
                          PolicyKind::kWfp3}) {
    EXPECT_STRNE(MakePolicy(kind)->name(), "");
    EXPECT_STREQ(MakePolicy(kind)->name(), ToString(kind));
  }
}

TEST(QueueManagerTest, AddRemoveContains) {
  const auto rec = MakeRecord(1, 10, 100);
  const auto policy = MakePolicy(PolicyKind::kFcfs);
  QueueManager q(*policy);
  q.Add(MakeWaiting(rec, 0));
  EXPECT_TRUE(q.Contains(1));
  EXPECT_EQ(q.size(), 1u);
  const WaitingJob w = q.Remove(1);
  EXPECT_EQ(w.id, 1);
  EXPECT_FALSE(q.Contains(1));
  EXPECT_THROW(q.Remove(1), std::runtime_error);
}

TEST(QueueManagerTest, DuplicateAddThrows) {
  const auto rec = MakeRecord(1, 10, 100);
  const auto policy = MakePolicy(PolicyKind::kFcfs);
  QueueManager q(*policy);
  q.Add(MakeWaiting(rec, 0));
  EXPECT_THROW(q.Add(MakeWaiting(rec, 0)), std::runtime_error);
}

TEST(QueueManagerTest, OrderedRespectsBoostThenPolicy) {
  const auto rec1 = MakeRecord(1, 10, 100);
  const auto rec2 = MakeRecord(2, 10, 100);
  const auto rec3 = MakeRecord(3, 10, 100);
  const auto policy = MakePolicy(PolicyKind::kFcfs);
  QueueManager q(*policy);
  q.Add(MakeWaiting(rec1, 100));
  q.Add(MakeWaiting(rec2, 50));
  auto boosted = MakeWaiting(rec3, 900);
  boosted.boosted = true;
  q.Add(boosted);
  const auto view = q.Ordered(1000);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0]->id, 3);  // boosted first despite late submit
  EXPECT_EQ(view[1]->id, 2);
  EXPECT_EQ(view[2]->id, 1);
}

TEST(QueueManagerTest, EnqueueFreshPartitionOnly) {
  JobRecord od = MakeRecord(0, 8, 100);
  od.klass = JobClass::kOnDemand;
  Trace trace;
  trace.num_nodes = 64;
  trace.jobs = {od, MakeRecord(1, 8, 100)};
  test::EngineSandbox h(std::move(trace));
  h.engine_.EnqueueFresh(0, 0, /*boosted=*/false, /*partition_only=*/true);
  h.engine_.EnqueueFresh(1, 0);
  ASSERT_TRUE(h.engine_.queue().Find(0)->partition_only);
  EXPECT_FALSE(h.engine_.queue().Find(1)->partition_only);
  // Both wait in policy order; only the batch-eligible one is in the pass's
  // view, so the pass starts job 1 and leaves job 0 to the partition.
  const auto all = h.engine_.queue().Ordered(0);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->id, 0);
  const auto& eligible = h.engine_.queue().OrderedEligible(0);
  ASSERT_EQ(eligible.size(), 1u);
  EXPECT_EQ(eligible[0]->id, 1);
  EXPECT_EQ(h.engine_.RunSchedulingPass(0), 1);
  EXPECT_TRUE(h.engine_.IsRunning(1));
  EXPECT_TRUE(h.engine_.IsWaiting(0));
}

/// The queue order from its definition: a fresh sort of the entries.
std::vector<JobId> NaiveOrder(const QueueManager& q, const OrderingPolicy& policy, SimTime now,
                              bool eligible_only) {
  std::vector<const WaitingJob*> entries = q.All();
  if (eligible_only) {
    std::erase_if(entries, [](const WaitingJob* w) { return w->partition_only; });
  }
  std::sort(entries.begin(), entries.end(), [&](const WaitingJob* a, const WaitingJob* b) {
    if (a->boosted != b->boosted) return a->boosted;
    const double ka = policy.Key(*a, now);
    const double kb = policy.Key(*b, now);
    if (ka != kb) return ka < kb;
    if (a->first_submit != b->first_submit) return a->first_submit < b->first_submit;
    return a->id < b->id;
  });
  std::vector<JobId> ids;
  for (const WaitingJob* w : entries) ids.push_back(w->id);
  return ids;
}

std::vector<JobId> Ids(const std::vector<const WaitingJob*>& view) {
  std::vector<JobId> ids;
  for (const WaitingJob* w : view) ids.push_back(w->id);
  return ids;
}

void ExpectMatchesNaive(QueueManager& q, const OrderingPolicy& policy, SimTime now,
                        const std::string& where) {
  EXPECT_EQ(Ids(q.Ordered(now)), NaiveOrder(q, policy, now, false)) << where;
  EXPECT_EQ(Ids(q.OrderedEligible(now)), NaiveOrder(q, policy, now, true)) << where;
}

// Seeded random Add/Remove sequences — fresh, boosted and partition-only
// adds; removals at the head, the tail and the middle; a clock that moves
// (which re-orders WFP3) — must leave the maintained views equal to a fresh
// sort after every step, for every registered policy. Halfway through, the
// queue is forked (the engine's copy path, bound to a new policy instance);
// the fork then runs the same steps and must stay equal too.
TEST(QueueManagerTest, MaintainedOrderMatchesFreshSort) {
  constexpr int kJobs = 64;
  constexpr int kSteps = 400;
  for (const std::string& name : PolicyNames()) {
    Rng rng(0x0DE5ULL);
    std::vector<JobRecord> records;
    for (JobId id = 0; id < kJobs; ++id) {
      // Narrow ranges so policy keys and submit times tie often.
      records.push_back(MakeRecord(id, static_cast<int>(8 * rng.UniformInt(1, 4)),
                                   600 * rng.UniformInt(1, 5)));
    }
    const auto policy = MakePolicy(name);
    QueueManager q(*policy);
    std::unique_ptr<OrderingPolicy> fork_policy;
    std::unique_ptr<QueueManager> fork;
    std::vector<JobId> absent;
    for (JobId id = kJobs - 1; id >= 0; --id) absent.push_back(id);
    SimTime now = 0;
    for (int step = 0; step < kSteps; ++step) {
      const std::string where = name + " step " + std::to_string(step);
      if (step == kSteps / 2) {
        fork_policy = MakePolicy(name);
        fork = std::make_unique<QueueManager>(q, *fork_policy);
        ExpectMatchesNaive(*fork, *fork_policy, now, where + " (fork)");
      }
      if (rng.Chance(0.3)) now += rng.UniformInt(1, 900);
      const bool add = q.empty() || (!absent.empty() && rng.Chance(0.55));
      if (add) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(absent.size()) - 1));
        const JobId id = absent[pick];
        absent.erase(absent.begin() + static_cast<std::ptrdiff_t>(pick));
        WaitingJob w = MakeWaiting(records[static_cast<std::size_t>(id)],
                                   std::max<SimTime>(0, now - 60 * rng.UniformInt(0, 10)));
        w.enqueue_time = now;
        w.boosted = rng.Chance(0.15);
        w.partition_only = rng.Chance(0.15);
        q.Add(w);
        if (fork) fork->Add(w);
      } else {
        const std::vector<const WaitingJob*> view = q.Ordered(now);
        const std::int64_t last = static_cast<std::int64_t>(view.size()) - 1;
        const std::int64_t which = rng.UniformInt(0, 2);
        const std::size_t at =
            static_cast<std::size_t>(which == 0 ? 0 : which == 1 ? last : rng.UniformInt(0, last));
        const JobId id = view[at]->id;
        EXPECT_EQ(q.Remove(id).id, id) << where;
        if (fork) {
          EXPECT_EQ(fork->Remove(id).id, id) << where;
        }
        absent.push_back(id);
      }
      ExpectMatchesNaive(q, *policy, now, where);
      if (fork) ExpectMatchesNaive(*fork, *fork_policy, now, where + " (fork)");
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace hs
