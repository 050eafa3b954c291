// Shows that every correctness check of the benchmark fires on a corrupted
// input and stays quiet on the genuine one. Built with the benchmark; run
// it as e2ebench_checks_test from the build tree. Exit status 1 when any
// expectation fails.
#include <cstdio>
#include <string>

#include "checks.h"
#include "exp/runner.h"
#include "exp/session.h"
#include "service/server.h"
#include "service/service_session.h"
#include "util/thread_pool.h"

namespace {

int failures = 0;
int expectations = 0;

void Expect(bool ok, const std::string& what) {
  ++expectations;
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

/// Runs `check` on a fresh error list; true when it reported something.
template <typename F>
bool Fires(F&& check) {
  e2e::Errors errors;
  check(&errors);
  return !errors.empty();
}

void TestCellChecks() {
  const hs::SimSpec spec = hs::SimSpec::Parse("CUP&SPAA/FCFS/W5/preset=tiny");
  hs::SimulationSession session(spec);
  const hs::SimResult good = session.Run();
  const e2e::TraceFacts facts = e2e::FactsOf(session.trace());
  const auto cell = [&](const e2e::TraceFacts& f, const hs::SimResult& r, bool baseline) {
    return Fires([&](e2e::Errors* e) { e2e::CheckCell("cell", f, r, baseline, e); });
  };
  Expect(!cell(facts, good, false), "genuine cell passes");

  hs::Trace dropped = session.trace();
  dropped.jobs.pop_back();
  Expect(cell(e2e::FactsOf(dropped), good, false), "a job dropped from the trace fires");

  hs::SimResult r = good;
  r.useful_utilization *= 1.0 + 1e-6;
  Expect(cell(facts, r, false), "node-hour conservation fires on a 1e-6 change");
  r = good;
  r.jobs_completed -= 1;
  Expect(cell(facts, r, false), "accounting fires on a dropped completion");
  r = good;
  r.od_jobs += 1;
  Expect(cell(facts, r, false), "accounting fires on the on-demand count");
  r = good;
  r.allocated_utilization = r.utilization * 0.99;
  Expect(cell(facts, r, false), "utilization order fires");
  r = good;
  r.allocated_utilization = 1.0 + 1e-9;
  Expect(cell(facts, r, false), "allocated utilization above 1 fires");
  Expect(cell(facts, good, true), "baseline check fires on preemptions or shrinks");

  hs::SimulationSession baseline(hs::SimSpec::Parse("baseline/FCFS/W5/preset=tiny"));
  const hs::SimResult base = baseline.Run();
  Expect(!cell(e2e::FactsOf(baseline.trace()), base, true), "genuine baseline passes");
}

void TestPaperClaims() {
  Expect(!Fires([&](e2e::Errors* e) {
           e2e::CheckOnDemandClaim("od", {0.98, 0.999, 0.998}, e);
         }),
         "mean od_instant_rate 0.992 passes");
  Expect(Fires([&](e2e::Errors* e) { e2e::CheckOnDemandClaim("od", {0.98, 0.995}, e); }),
         "mean od_instant_rate 0.9875 fires");
  Expect(Fires([&](e2e::Errors* e) { e2e::CheckOnDemandClaim("od", {}, e); }),
         "no hybrid cell fires");
  Expect(!Fires([&](e2e::Errors* e) {
           e2e::CheckBaselineUtilization("util", {0.83, 0.85}, e);
         }),
         "mean baseline utilization 0.84 passes");
  Expect(Fires([&](e2e::Errors* e) {
           e2e::CheckBaselineUtilization("util", {0.86, 0.87}, e);
         }),
         "mean baseline utilization 0.865 fires");
  Expect(Fires([&](e2e::Errors* e) { e2e::CheckBaselineUtilization("util", {}, e); }),
         "no baseline cell fires");
}

void TestFabricCsv() {
  const std::vector<hs::SimSpec> specs = {hs::SimSpec::Parse("baseline/FCFS/W5/preset=tiny"),
                                          hs::SimSpec::Parse("N&PAA/FCFS/W5/preset=tiny")};
  hs::ThreadPool pool(1);
  hs::ExperimentRunner runner(pool);
  const std::vector<hs::SpecResult> rows = runner.Run(specs);
  std::string csv;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string one = e2e::SimContent(rows[i].spec, rows[i].trace_name, rows[i].result);
    csv += i == 0 ? one : one.substr(one.find('\n') + 1);
  }
  Expect(!Fires([&](e2e::Errors* e) { e2e::CheckSameBytes("csv", csv, csv, e); }),
         "identical CSV passes");
  for (const std::size_t at : {std::size_t{0}, csv.size() / 2, csv.size() - 2}) {
    std::string bad = csv;
    bad[at] = bad[at] == '1' ? '2' : '1';
    Expect(Fires([&](e2e::Errors* e) { e2e::CheckSameBytes("csv", csv, bad, e); }),
           "a one-byte change to the CSV at " + std::to_string(at) + " fires");
  }
  Expect(Fires([&](e2e::Errors* e) {
           e2e::CheckSameBytes("csv", csv, csv.substr(0, csv.size() - 1), e);
         }),
         "a truncated CSV fires");
  Expect(e2e::CountDifferingRows(csv, csv) == 0, "identical CSV has no failed rows");
  std::string one_byte = csv;
  one_byte[csv.size() - 2] = one_byte[csv.size() - 2] == '1' ? '2' : '1';
  Expect(e2e::CountDifferingRows(csv, one_byte) == 1, "a one-byte change fails one row");
  const std::string one_row = csv.substr(0, csv.rfind('\n', csv.size() - 2) + 1);
  Expect(e2e::CountDifferingRows(csv, one_row) == 1, "a dropped row fails one row");

  hs::SimResult changed = rows[1].result;
  changed.preemptions += 1;
  Expect(Fires([&](e2e::Errors* e) {
           e2e::CheckSameBytes("traced vs untraced",
                               e2e::SimContent(rows[1].spec, rows[1].trace_name, rows[1].result),
                               e2e::SimContent(rows[1].spec, rows[1].trace_name, changed), e);
         }),
         "a traced result differing in one counter fires");
}

void TestSnapshotOracle() {
  hs::ServiceSession live(hs::SimSpec::Parse("CUP&SPAA/FCFS/W5/preset=tiny"));
  for (const char* line : {"advance by=3600",
                           "submit class=rigid size=64 compute=3600 estimate=5400 submit=+60",
                           "advance by=86400"}) {
    Expect(hs::HandleRequestLine(live, line).lines.front().rfind("ok", 0) == 0, line);
  }
  const std::string metrics = hs::HandleRequestLine(live, "query-metrics").lines.front();
  const std::string snapshot = live.SnapshotText();
  const auto restored_metrics = [](const std::string& text) {
    const std::unique_ptr<hs::ServiceSession> restored = hs::ServiceSession::RestoreText(text);
    return hs::HandleRequestLine(*restored, "query-metrics").lines.front();
  };
  Expect(!Fires([&](e2e::Errors* e) {
           e2e::CheckSameBytes("snapshot", metrics, restored_metrics(snapshot), e);
         }),
         "the genuine snapshot reproduces query-metrics");
  std::string tampered = snapshot;
  const std::size_t at = tampered.find("compute=3600");
  Expect(at != std::string::npos, "the snapshot holds the submitted job");
  tampered.replace(at, 12, "compute=3500");
  Expect(Fires([&](e2e::Errors* e) {
           e2e::CheckSameBytes("snapshot", metrics, restored_metrics(tampered), e);
         }),
         "a tampered snapshot fires");

  const std::string probe = "whatif mechanisms=all class=rigid size=64 compute=600 "
                            "estimate=900 submit=+600";
  const std::vector<std::string> fork = hs::HandleRequestLine(live, probe).lines;
  hs::DispatchOptions replay;
  replay.force_replay = true;
  const std::vector<std::string> oracle = hs::HandleRequestLine(live, probe, replay).lines;
  Expect(fork == oracle, "fork and forced-replay what-if answers agree");
  const std::vector<std::string> body(fork.begin() + 1, fork.end() - 1);
  Expect(!Fires([&](e2e::Errors* e) { e2e::CheckWhatIfAnswers("whatif", body, e); }),
         "genuine what-if answers pass");
}

void TestWhatIfAnswers() {
  const auto fires = [](const std::string& line) {
    return Fires([&](e2e::Errors* e) { e2e::CheckWhatIfAnswers("whatif", {line}, e); });
  };
  Expect(!fires("mech=baseline started=1 submit=100 start=130 wait=30 preemptions=0"),
         "a consistent answer passes");
  Expect(!fires("mech=baseline started=0 submit=100 start=-1 wait=-1 preemptions=0"),
         "an answer whose probe never started passes");
  Expect(fires("mech=baseline started=1 submit=100 start=90 wait=-10 preemptions=0"),
         "start before submit fires");
  Expect(fires("mech=baseline started=1 submit=100 start=130 wait=31 preemptions=0"),
         "wait != start - submit fires");
  Expect(fires("mech=baseline started=1 submit=100 start=1x0 wait=30"),
         "an unparsable answer fires");
}

}  // namespace

int main() {
  TestCellChecks();
  TestPaperClaims();
  TestFabricCsv();
  TestSnapshotOracle();
  TestWhatIfAnswers();
  std::printf("%d of %d expectations held\n", expectations - failures, expectations);
  return failures == 0 ? 0 : 1;
}
