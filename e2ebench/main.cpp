// e2ebench: runs one workload of the end-to-end benchmark.
//
//   e2ebench --workload=NAME --seed=N --seconds=S --trace=0|1 --work-dir=DIR
//
// Runs one workload (see workloads.h) for about S seconds of whole rounds
// and prints, as its last stdout line, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"NAME": {"value": V, "unit": "U"}, ...}}
//
// --trace=0 reports the end-to-end metrics, --trace=1 the per-layer ones
// and writes DIR/trace/NAME.json (Chrome trace events). Scratch files live
// in DIR/run-PID and are removed on exit and on SIGINT/SIGTERM. A failed
// correctness check prints the result with "correct": false and exits 1;
// an error exits 1 without a result.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "procs.h"
#include "util/cli.h"
#include "util/subprocess.h"
#include "workloads.h"

namespace {

int Run(const hs::CliArgs& args) {
  using namespace e2e;
  Options options;
  options.workload = args.GetString("workload", "");
  options.seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  options.seconds = args.GetDouble("seconds", 20.0);
  options.trace = args.GetInt("trace", 0) != 0;
  const std::string work_dir = args.GetString("work-dir", ".bench_build");
  args.RejectUnknown();
  if (options.seconds <= 0) throw std::invalid_argument("--seconds must be positive");

  options.bin_dir = hs::SelfExeDir();
  options.scratch =
      std::filesystem::absolute(work_dir + "/run-" + std::to_string(getpid())).string();
  InstallInterruptGuard(options.scratch);
  const ScratchDir scratch(options.scratch);

  Tracer tracer;
  const Outcome outcome = RunWorkload(options, tracer);
  if (options.trace) {
    std::filesystem::create_directories(work_dir + "/trace");
    tracer.WriteChromeJson(work_dir + "/trace/" + options.workload + ".json");
  }

  Errors errors = outcome.errors;
  std::string metrics;
  for (const Metric& m : outcome.metrics) {
    if (!std::isfinite(m.value)) errors.push_back("metric " + m.name + " is not finite");
    char value[64];
    std::snprintf(value, sizeof value, "%.10g", std::isfinite(m.value) ? m.value : 0.0);
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + m.name +
               "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  for (const std::string& e : errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  int status = 1;
  try {
    status = Run(hs::CliArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
  }
  e2e::AwaitStopIfRequested();
  return status;
}
