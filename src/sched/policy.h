// Queue-ordering policies.
//
// The paper's mechanisms are *composed with* an ordering policy ("while a
// scheduling policy determines the order of waiting jobs, our mechanisms
// manipulate the running jobs"). FCFS is the evaluation default; the other
// classic policies are provided so the composition claim is exercisable.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/registry.h"
#include "util/time.h"
#include "workload/job.h"

namespace hs {

/// A waiting-queue entry. Resubmitted (preempted) jobs keep their original
/// submit time (§III-B2) and carry reduced remaining demands.
struct WaitingJob {
  JobId id = kNoJob;
  const JobRecord* record = nullptr;
  SimTime first_submit = 0;        // original submission (policy key for FCFS)
  SimTime enqueue_time = 0;        // when this (re)submission entered the queue
  SimTime estimate_remaining = 0;  // user estimate of remaining setup+compute
  SimTime compute_remaining = 0;   // ground-truth remaining compute (engine only)
  std::int64_t work_remaining = 0; // malleable: remaining node-seconds
  std::int64_t est_work_remaining = 0;  // malleable: estimate-based node-seconds
  int restarts = 0;
  bool boosted = false;            // sorts ahead of everything (front of queue)
  /// Flexible sizing active (malleable job under a non-baseline scheduler).
  /// When false the job must be allocated exactly `size()` nodes.
  bool flexible = false;
  /// Job may only run inside the static on-demand partition (the
  /// dedicated-cluster comparator); the batch scheduling pass skips it.
  bool partition_only = false;

  int size() const { return record->size; }
  int min_size() const { return flexible ? record->min_size : record->size; }
};

enum class PolicyKind { kFcfs, kSjf, kLjf, kSmallestFirst, kLargestFirst, kWfp3 };

const char* ToString(PolicyKind kind);

class OrderingPolicy {
 public:
  virtual ~OrderingPolicy() = default;
  virtual const char* name() const = 0;
  /// Smaller keys schedule earlier. `now` feeds wait-time-aware policies.
  virtual double Key(const WaitingJob& job, SimTime now) const = 0;
  /// True when Key() ignores `now` (a pure function of the job). Lets
  /// QueueManager keep its maintained order across scheduling passes at
  /// different times; wait-aware policies (e.g. WFP3) keep the conservative
  /// default and are re-sorted whenever the clock has advanced.
  virtual bool time_invariant() const { return false; }
};

/// Creates one ordering-policy instance; registered in PolicyRegistry().
using PolicyFactory = std::function<std::unique_ptr<OrderingPolicy>()>;

/// The global policy registry. The six classic policies are pre-registered;
/// plugins add their own via RegisterPolicy and are then addressable from
/// EngineConfig::policy, SimSpec strings and the CLI.
NamedRegistry<PolicyFactory>& PolicyRegistry();

/// Registers a custom policy under `name` (plus optional aliases).
void RegisterPolicy(const std::string& name, PolicyFactory factory,
                    const std::vector<std::string>& aliases = {});

/// Instantiates a registered policy by (case-insensitive) name; throws
/// std::invalid_argument naming the token and the known policies.
std::unique_ptr<OrderingPolicy> MakePolicy(const std::string& name);

/// Canonical names of every registered policy, in registration order.
std::vector<std::string> PolicyNames();

/// Compatibility shim for the classic enum-addressed policies.
std::unique_ptr<OrderingPolicy> MakePolicy(PolicyKind kind);

}  // namespace hs
