// The four benchmark workloads. Each runs whole rounds of the same
// operations until its time is spent, checks every output, and returns
// its metrics: the end-to-end ones from untraced rounds, or (traced) the
// per-layer ones from rounds that run the same work untraced and then
// through the outside-in probes of probe.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "probe.h"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string scratch;  // removed at exit
  std::string bin_dir;  // where hs_server / hs_agent / hs_worker live
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // operations whose own check failed; each also fails the run
  Errors errors;
  std::vector<Metric> metrics;
};

/// Runs `options.workload`; spans and aggregates of the traced rounds go
/// to `tracer`. Throws std::invalid_argument on an unknown workload.
Outcome RunWorkload(const Options& options, Tracer& tracer);

}  // namespace e2e
