#include "checks.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "exp/runner.h"
#include "service/protocol.h"

namespace e2e {

namespace {

/// Table II, baseline utilization on Theta (the paper's figure).
constexpr double kPaperBaselineUtilization = 0.8393;

void Fail(Errors* errors, const std::string& label, const std::string& what) {
  errors->push_back(label + ": " + what);
}

/// 0 for an empty list, which every mean-based check then rejects.
double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

}  // namespace

TraceFacts FactsOf(const hs::Trace& trace) {
  TraceFacts facts;
  facts.jobs = trace.jobs.size();
  facts.od_jobs = trace.CountClass(hs::JobClass::kOnDemand);
  facts.nodes = trace.num_nodes;
  for (const hs::JobRecord& job : trace.jobs) {
    facts.work_node_s += static_cast<double>(job.total_work());
  }
  return facts;
}

void CheckCell(const std::string& label, const TraceFacts& facts,
               const hs::SimResult& r, bool baseline, Errors* errors) {
  const double capacity = static_cast<double>(facts.nodes) *
                          static_cast<double>(std::max<hs::SimTime>(1, r.makespan));
  const double useful = r.useful_utilization * capacity;
  if (!(std::fabs(useful - facts.work_node_s) <= 1e-9 * facts.work_node_s)) {
    std::ostringstream msg;
    msg.precision(17);
    msg << "node-hour conservation: useful " << useful << " node-s vs trace work "
        << facts.work_node_s;
    Fail(errors, label, msg.str());
  }
  if (r.jobs_completed + r.jobs_killed != facts.jobs) {
    Fail(errors, label,
         "accounting: completed " + std::to_string(r.jobs_completed) + " + killed " +
             std::to_string(r.jobs_killed) + " != " + std::to_string(facts.jobs) +
             " jobs");
  }
  if (r.od_jobs != facts.od_jobs) {
    Fail(errors, label,
         "accounting: od_jobs " + std::to_string(r.od_jobs) + " != " +
             std::to_string(facts.od_jobs) + " on-demand jobs in the trace");
  }
  if (!(r.useful_utilization <= r.utilization && r.utilization <= r.allocated_utilization &&
        r.allocated_utilization <= 1.0)) {
    std::ostringstream msg;
    msg << "utilization order: useful " << r.useful_utilization << ", utilization "
        << r.utilization << ", allocated " << r.allocated_utilization;
    Fail(errors, label, msg.str());
  }
  if (baseline && (r.preemptions != 0 || r.shrinks != 0)) {
    Fail(errors, label,
         "baseline: " + std::to_string(r.preemptions) + " preemptions, " +
             std::to_string(r.shrinks) + " shrinks");
  }
}

void CheckOnDemandClaim(const std::string& label, const std::vector<double>& rates,
                        Errors* errors) {
  const double mean = Mean(rates);
  if (!(mean >= 0.99)) {
    Fail(errors, label,
         "mean od_instant_rate " + std::to_string(mean) + " over " +
             std::to_string(rates.size()) + " traces < 0.99");
  }
}

void CheckBaselineUtilization(const std::string& label,
                              const std::vector<double>& utilizations, Errors* errors) {
  const double mean = Mean(utilizations);
  if (!(std::fabs(mean - kPaperBaselineUtilization) <= 0.02)) {
    Fail(errors, label,
         "mean baseline utilization " + std::to_string(mean) + " over " +
             std::to_string(utilizations.size()) +
             " traces is more than 2 points from Table II's 0.8393");
  }
}

std::string SimContent(const hs::SimSpec& spec, const std::string& trace_name,
                       const hs::SimResult& result) {
  std::ostringstream out;
  hs::CsvResultSink sink(out, hs::CsvSinkOptions{/*include_wallclock=*/false});
  sink.OnResult(0, hs::SpecResult{spec, trace_name, result});
  return out.str();
}

void CheckSameBytes(const std::string& label, const std::string& expected,
                    const std::string& actual, Errors* errors) {
  if (expected == actual) return;
  std::size_t at = 0;
  while (at < expected.size() && at < actual.size() && expected[at] == actual[at]) ++at;
  Fail(errors, label,
       "differs at byte " + std::to_string(at) + " (" + std::to_string(expected.size()) +
           " vs " + std::to_string(actual.size()) + " bytes)");
}

std::size_t CountDifferingRows(const std::string& expected, const std::string& actual) {
  const auto lines = [](const std::string& text) {
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) out.push_back(line);
    return out;
  };
  const std::vector<std::string> e = lines(expected), a = lines(actual);
  std::size_t differing = 0;
  for (std::size_t i = 1; i < std::max(e.size(), a.size()); ++i) {
    if (i >= e.size() || i >= a.size() || e[i] != a[i]) ++differing;
  }
  return differing;
}

void CheckWhatIfAnswers(const std::string& label,
                        const std::vector<std::string>& answers, Errors* errors) {
  for (const std::string& line : answers) {
    try {
      const hs::Request req = hs::Request::Parse("answer " + line);
      if (req.GetInt("started", 0) != 1) continue;
      const std::int64_t submit = req.GetInt("submit", -1);
      const std::int64_t start = req.GetInt("start", -1);
      const std::int64_t wait = req.GetInt("wait", -1);
      if (start < submit || wait != start - submit) {
        Fail(errors, label,
             "what-if answer breaks start >= submit, wait = start - submit: " + line);
      }
    } catch (const std::exception& e) {
      Fail(errors, label, "unparsable what-if answer '" + line + "': " + e.what());
    }
  }
}

}  // namespace e2e
