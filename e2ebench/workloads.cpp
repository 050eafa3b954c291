#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/hybrid_scheduler.h"
#include "core/mechanism.h"
#include "exp/runner.h"
#include "exp/session.h"
#include "exp/sharded_runner.h"
#include "exp/transport.h"
#include "procs.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service_session.h"
#include "util/thread_pool.h"

namespace e2e {

namespace {

// --- statistics ---------------------------------------------------------------

/// Nearest-rank quantile (q in (0, 1]) of `values`; 0 for an empty list.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double Median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Sec(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Runs `round` at least `min_rounds` times, then again while one more
/// round of the longest length seen so far still fits in `seconds`. Every
/// run therefore attempts whole rounds of the same operations.
void RunRounds(double seconds, int min_rounds, const std::function<void()>& round) {
  const std::int64_t start = NowNs();
  std::int64_t longest = 0;
  for (int done = 0;; ++done) {
    if (done >= min_rounds && Sec(NowNs() - start + longest) > seconds) break;
    const std::int64_t t0 = NowNs();
    round();
    longest = std::max(longest, NowNs() - t0);
  }
}

/// Per-layer samples, one value per traced round; reported as medians.
/// Every per-layer metric is printed for every workload: a layer a
/// workload does not reach reads 0.
class LayerSamples {
 public:
  void Add(const std::string& name, double value) { samples_[name].push_back(value); }

  std::vector<Metric> Report() const {
    std::vector<Metric> metrics;
    for (const auto& [name, unit] : PerLayerMetrics()) {
      const auto it = samples_.find(name);
      metrics.push_back({name, unit, it == samples_.end() ? 0.0 : Median(it->second)});
    }
    return metrics;
  }

  static const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"workload.trace_build_ms", "ms"},
        {"workload.jobs", "count"},
        {"sim.events", "count"},
        {"sim.self_ms", "ms"},
        {"core.finish_ms", "ms"},
        {"core.submit_ms", "ms"},
        {"core.mechanism_ms", "ms"},
        {"core.decision_us", "us"},
        {"core.decisions", "count"},
        {"core.preemptions", "count"},
        {"core.shrinks", "count"},
        {"sched.pass_ms", "ms"},
        {"sched.pass_us", "us"},
        {"sched.passes", "count"},
        {"metrics.finalize_ms", "ms"},
        {"exp.fork_ms", "ms"},
        {"exp.replay_ms", "ms"},
        {"service.whatif_p50_ms", "ms"},
        {"service.dispatch_us.advance", "us"},
        {"service.dispatch_us.submit", "us"},
        {"service.dispatch_us.query-metrics", "us"},
        {"service.dispatch_us.query-job", "us"},
        {"service.dispatch_us.whatif", "us"},
        {"service.dispatch_us.ping", "us"},
        {"service.wire_us", "us"},
        {"service.requests", "count"},
        {"fabric.cell_ms", "ms"},
        {"fabric.overhead_ms_per_unit", "ms"},
        {"fabric.local.overhead_ms_per_unit", "ms"},
        {"fabric.units", "count"},
        {"fabric.launches", "count"},
        {"fabric.retries", "count"},
        {"fabric.conn_failures", "count"},
        {"trace.overhead_ms", "ms"},
    };
    return names;
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// The end-to-end metrics every workload reports (untraced rounds).
struct EndToEnd {
  std::vector<double> setup_s;    // one sample per set-up
  std::vector<double> ops_per_s;  // one sample per round
  double op_p50_ms = 0.0;
  double op_p99_ms = 0.0;
  double peak_rss_mb = 0.0;

  std::vector<Metric> Report() const {
    return {{"setup_s", "s", Median(setup_s)},
            {"ops_per_s", "1/s", Median(ops_per_s)},
            {"op_p50_ms", "ms", op_p50_ms},
            {"op_p99_ms", "ms", op_p99_ms},
            {"peak_rss_mb", "MB", peak_rss_mb}};
  }
};

/// Per-operation latency of operations that recur every round (one
/// mechanism's cost per simulated event, one fabric probe's one-cell run):
/// each one's median over rounds, then p50/p99 over them — so one slow
/// round cannot become the tail.
void SetOpLatencies(const std::vector<std::vector<double>>& per_op_ms, EndToEnd* e2e) {
  std::vector<double> medians;
  for (const std::vector<double>& samples : per_op_ms) medians.push_back(Median(samples));
  e2e->op_p50_ms = Quantile(medians, 0.50);
  e2e->op_p99_ms = Quantile(medians, 0.99);
}

/// Counts `ops` failed operations when a check since `errors_before` added
/// an error: a failed operation still fails the run as well.
void CountFailed(Outcome* out, std::size_t errors_before, std::uint64_t ops) {
  if (out->errors.size() > errors_before) out->failed += ops;
}

// --- paper_52w / aimix_storm ------------------------------------------------------

struct SimGrid {
  std::string preset;
  int weeks = 1;
  std::map<std::string, std::string> overrides;
  bool paper_claims = false;
};

/// The paper's claims hold on the mean over traces, not on every single
/// one (about one 52-week trace in 60 starts under 99% of on-demand jobs
/// instantly), so they are checked on the mean over the traces of a run's
/// first kClaimRounds rounds: a fixed set that depends on the seed only,
/// not on how many rounds the clock allows.
constexpr int kClaimRounds = 4;

/// One round's cells: every registered mechanism, FCFS, W5, each on a
/// trace of its own. Eight traces a round keep the round's total input
/// size (and so its memory and time) close to the same from seed to seed;
/// single traces differ in job count by up to 4x.
std::vector<hs::SimSpec> RoundSpecs(const SimGrid& grid, std::uint64_t seed,
                                    std::uint64_t round) {
  std::vector<hs::SimSpec> specs;
  for (const std::string& mechanism : hs::MechanismNames()) {
    hs::SimSpec spec;
    spec.mechanism = mechanism;
    spec.policy = "FCFS";
    spec.notice_mix = "W5";
    spec.preset = grid.preset;
    spec.weeks = grid.weeks;
    spec.seed = seed * 100000 + round * 100 + specs.size();
    for (const auto& [key, value] : grid.overrides) spec.SetOverride(key, value);
    specs.push_back(spec);
  }
  return specs;
}

bool IsBaseline(const hs::SimSpec& spec) { return spec.mechanism == "baseline"; }

struct SimRound {
  std::int64_t setup_ns = 0;
  std::int64_t run_ns = 0;
  std::size_t events = 0;
  std::size_t jobs = 0;
  std::vector<double> ms_per_event;  // per cell
  std::vector<std::string> content;  // SimContent per cell
  std::vector<hs::SimResult> results;
};

/// The untraced round: what a user runs — build the traces, open one
/// SimulationSession per cell (set-up), then run each to the end.
SimRound UntracedSimRound(const std::vector<hs::SimSpec>& specs, Outcome* out) {
  SimRound round;
  const std::int64_t t0 = NowNs();
  std::vector<std::unique_ptr<hs::SimulationSession>> sessions;
  for (const hs::SimSpec& spec : specs) {
    sessions.push_back(std::make_unique<hs::SimulationSession>(
        spec, std::make_shared<const hs::Trace>(spec.BuildTrace())));
  }
  const std::int64_t t1 = NowNs();
  std::vector<hs::SimResult> results;
  for (auto& session : sessions) {
    const std::int64_t c0 = NowNs();
    results.push_back(session->Run());
    const std::size_t events = session->simulator().events_processed();
    round.ms_per_event.push_back(Ms(NowNs() - c0) / static_cast<double>(events));
    round.events += events;
  }
  round.setup_ns = t1 - t0;
  round.run_ns = NowNs() - t1;

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const hs::Trace& trace = sessions[i]->trace();
    const std::size_t before = out->errors.size();
    CheckCell(specs[i].ToString(), FactsOf(trace), results[i], IsBaseline(specs[i]),
              &out->errors);
    CountFailed(out, before, 1);
    round.content.push_back(SimContent(specs[i], trace.name, results[i]));
  }
  round.results = std::move(results);
  return round;
}

/// The traced round: the same cells, with the stack built by hand so a
/// TimingHandler sits between the Simulator and the HybridScheduler.
SimRound TracedSimRound(const std::vector<hs::SimSpec>& specs, Tracer& tracer,
                        Tracer::SpanId parent, LayerSamples* layers) {
  SimRound round;
  double build = 0, finish = 0, submit = 0, mechanism = 0, pass = 0, self = 0;
  double finalize = 0, decision_us_sum = 0, decisions = 0, preemptions = 0, shrinks = 0;
  double passes = 0;
  for (const hs::SimSpec& spec : specs) {
    const Tracer::SpanId cell = tracer.Reserve();
    const std::int64_t b0 = NowNs();
    const hs::Trace trace = spec.BuildTrace();
    const std::int64_t c0 = NowNs();
    const hs::HybridConfig config = spec.BuildConfig();
    hs::Collector collector(config.instant_threshold);
    TimingHandler handler;
    hs::Simulator sim(handler);
    hs::HybridScheduler sched(trace, config, collector, sim);
    handler.Attach(&sched);
    sched.Prime();
    const std::int64_t r0 = NowNs();
    sim.Run();
    const std::int64_t r1 = NowNs();
    hs::SimResult result =
        collector.Finalize(trace.num_nodes, sched.engine().cluster().busy_node_seconds());
    result.window_utilization =
        sched.utilization_tracker().MeanBusyFraction(trace.FirstSubmit(), trace.LastSubmit());
    const std::int64_t f1 = NowNs();

    tracer.Add("SimSpec::BuildTrace", cell, b0, c0, trace.name);
    tracer.Add("HybridScheduler::Prime", cell, c0, r0);
    tracer.Add("Simulator::Run", cell, r0, r1,
               std::to_string(sim.events_processed()) + " events");
    tracer.Add("Collector::Finalize", cell, r1, f1);
    tracer.AddReserved(cell, "cell " + spec.mechanism, parent, b0, f1, spec.ToString());

    round.run_ns += r1 - r0;
    round.events += sim.events_processed();
    round.jobs += trace.jobs.size();
    round.content.push_back(SimContent(spec, trace.name, result));

    for (std::size_t k = 0; k < TimingHandler::kKinds; ++k) {
      const auto kind = static_cast<hs::EventKind>(k);
      const CallTotals& totals = handler.kind(kind);
      if (totals.calls == 0) continue;
      tracer.Aggregate(std::string("kind.") + hs::ToString(kind) + ".ms", totals.ms());
      tracer.Aggregate(std::string("kind.") + hs::ToString(kind) + ".count",
                       static_cast<double>(totals.calls));
      if (kind == hs::EventKind::kJobFinish) {
        finish += totals.ms();
      } else if (kind == hs::EventKind::kJobSubmit) {
        submit += totals.ms();
      } else {
        mechanism += totals.ms();
      }
    }
    tracer.Aggregate("pass.ms", handler.pass().ms());
    tracer.Aggregate("pass.count", static_cast<double>(handler.pass().calls));
    build += Ms(c0 - b0);
    pass += handler.pass().ms();
    passes += static_cast<double>(handler.pass().calls);
    self += Ms(r1 - r0 - handler.handler_ns());
    finalize += Ms(f1 - r1);
    decision_us_sum += result.decision_avg_us * static_cast<double>(result.decisions);
    decisions += static_cast<double>(result.decisions);
    preemptions += static_cast<double>(result.preemptions);
    shrinks += static_cast<double>(result.shrinks);
  }
  layers->Add("workload.trace_build_ms", build);
  layers->Add("workload.jobs", static_cast<double>(round.jobs));
  layers->Add("sim.events", static_cast<double>(round.events));
  layers->Add("sim.self_ms", self);
  layers->Add("core.finish_ms", finish);
  layers->Add("core.submit_ms", submit);
  layers->Add("core.mechanism_ms", mechanism);
  layers->Add("core.decision_us", decisions > 0 ? decision_us_sum / decisions : 0.0);
  layers->Add("core.decisions", decisions);
  layers->Add("core.preemptions", preemptions);
  layers->Add("core.shrinks", shrinks);
  layers->Add("sched.pass_ms", pass);
  layers->Add("sched.pass_us", passes > 0 ? pass * 1e3 / passes : 0.0);
  layers->Add("sched.passes", passes);
  layers->Add("metrics.finalize_ms", finalize);
  return round;
}

Outcome RunSimWorkload(const SimGrid& grid, const Options& options, Tracer& tracer) {
  Outcome out;
  EndToEnd e2e;
  LayerSamples layers;
  std::vector<std::vector<double>> ms_per_event;  // per mechanism, one per round
  std::map<std::string, std::vector<double>> od_instant;  // hybrid mechanisms
  std::vector<double> baseline_utilization;
  std::uint64_t round = 0;
  RunRounds(options.seconds, grid.paper_claims ? kClaimRounds : 1, [&] {
    const bool claim_round = round < static_cast<std::uint64_t>(kClaimRounds);
    const std::vector<hs::SimSpec> specs = RoundSpecs(grid, options.seed, round++);
    const SimRound plain = UntracedSimRound(specs, &out);
    for (std::size_t i = 0; claim_round && i < specs.size(); ++i) {
      if (IsBaseline(specs[i])) {
        baseline_utilization.push_back(plain.results[i].utilization);
      } else {
        od_instant[specs[i].mechanism].push_back(plain.results[i].od_instant_rate);
      }
    }
    out.attempted += specs.size();
    if (!options.trace) {
      e2e.setup_s.push_back(Sec(plain.setup_ns));
      e2e.ops_per_s.push_back(static_cast<double>(plain.events) / Sec(plain.run_ns));
      ms_per_event.resize(specs.size());
      for (std::size_t i = 0; i < specs.size(); ++i) {
        ms_per_event[i].push_back(plain.ms_per_event[i]);
      }
      return;
    }
    const Tracer::SpanId span = tracer.Reserve();
    const std::int64_t t0 = NowNs();
    const SimRound traced = TracedSimRound(specs, tracer, span, &layers);
    tracer.AddReserved(span, "round " + options.workload, Tracer::kRoot, t0, NowNs());
    out.attempted += specs.size();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::size_t before = out.errors.size();
      CheckSameBytes("traced " + specs[i].ToString() + " vs untraced", plain.content[i],
                     traced.content[i], &out.errors);
      CountFailed(&out, before, 1);
    }
    layers.Add("trace.overhead_ms", Ms(traced.run_ns - plain.run_ns));
  });
  if (grid.paper_claims) {
    CheckBaselineUtilization(options.workload, baseline_utilization, &out.errors);
    for (const auto& [mechanism, rates] : od_instant) {
      CheckOnDemandClaim(options.workload + " " + mechanism, rates, &out.errors);
    }
  }
  if (options.trace) {
    out.metrics = layers.Report();
  } else {
    SetOpLatencies(ms_per_event, &e2e);
    e2e.peak_rss_mb = SelfPeakRssMb();
    out.metrics = e2e.Report();
  }
  return out;
}

// --- service_mix --------------------------------------------------------------------

/// One closed-loop client connection. Responses are one line, except
/// `whatif`, framed `ok n=K` / K answers / `end`.
class Client {
 public:
  explicit Client(hs::Socket socket) : socket_(std::move(socket)) {}

  std::vector<std::string> Call(const std::string& line) {
    hs::SendLine(socket_, line);
    std::vector<std::string> lines{Recv()};
    if (line.rfind("whatif ", 0) == 0 && lines[0].rfind("ok n=", 0) == 0) {
      const long n = std::stol(lines[0].substr(5));
      for (long i = 0; i <= n; ++i) lines.push_back(Recv());
    }
    return lines;
  }

 private:
  std::string Recv() {
    std::optional<std::string> line = socket_.RecvLine();
    if (!line.has_value()) throw std::runtime_error("hs_server closed the connection");
    return *line;
  }

  hs::Socket socket_;
};

constexpr int kServiceSteps = 200;  // 5 requests a step + a what-if every 10th
constexpr int kWhatIfEvery = 10;
constexpr int kConnections = 3;     // one mutator, two readers

/// Round r of a run with --seed s serves and submits from seed s*1000 + r:
/// a run averages over as many server traces and job sets as it has
/// rounds, as the simulation workloads do.
std::uint64_t ServiceRoundSeed(std::uint64_t seed, std::uint64_t round) {
  return seed * 1000 + round;
}

std::string ServiceSpec(std::uint64_t seed) {
  return "CUP&SPAA/FCFS/W5/preset=midsize/seed=" + std::to_string(seed);
}

/// The jobs the clients submit and probe: the records of a `midsize` W5
/// trace of their own (another seed than the server's), taken in order, so
/// sizes, run times, estimates, classes and on-demand notices follow the
/// preset's own workload model.
std::vector<hs::JobRecord> ServiceJobs(std::uint64_t seed) {
  return hs::SimSpec::Parse("CUP&SPAA/FCFS/W5/preset=midsize/weeks=4/seed=" +
                            std::to_string(seed * 7919 + 13))
      .BuildTrace()
      .jobs;
}

/// `job` as request fields, moved in time so that its first event (the
/// notice, else the arrival) falls at `at`; its other times keep their
/// offsets from it.
std::string JobFields(hs::JobRecord job, hs::SimTime at) {
  const hs::SimTime shift = at - (job.has_notice() ? job.notice_time : job.submit_time);
  job.submit_time += shift;
  if (job.has_notice()) {
    job.notice_time += shift;
    job.predicted_arrival += shift;
  }
  return hs::FormatJobFields(job, /*with_id=*/false);
}

/// Starts hs_server and waits until it answers a ping: one set-up sample.
Child StartServer(const Options& options, std::uint64_t seed, std::int64_t* setup_ns) {
  const std::string port_file = options.scratch + "/server.port";
  std::remove(port_file.c_str());
  const std::int64_t t0 = NowNs();
  Child server = Child::StartWithPortFile(
      {options.bin_dir + "/hs_server", "--spec=" + ServiceSpec(seed), "--port=0",
       "--port-file=" + port_file},
      port_file, options.scratch + "/server.log", 60.0);
  Client probe(ConnectAndGreet(server.port(), hs::kWireGreeting));
  const std::vector<std::string> pong = probe.Call("ping");
  *setup_ns = NowNs() - t0;
  if (pong.front().rfind("ok now=", 0) != 0) {
    throw std::runtime_error("hs_server answered ping with '" + pong.front() + "'");
  }
  return server;
}

struct Exchange {
  std::string request;
  std::vector<std::string> response;
  std::int64_t start_ns = 0;
  std::int64_t ns = 0;
};

std::string VerbOf(const std::string& line) { return line.substr(0, line.find(' ')); }

std::vector<std::string> WhatIfBody(const std::vector<std::string>& response) {
  if (response.size() < 2) return {};
  return {response.begin() + 1, response.end() - 1};
}

struct ServiceScript {
  std::vector<Exchange> log;
  hs::SimTime now = 0;  // the server's clock after the last advance
};

/// The scripted request mix, turn by turn on three connections. Step k
/// submits job record k, its first event the record's own inter-arrival
/// gap after now; every 10th step probes the next unsubmitted record 600 s
/// ahead. The job ids queried come from the submit replies.
ServiceScript RunServiceScript(std::vector<Client>& clients,
                               const std::vector<hs::JobRecord>& jobs, Outcome* out) {
  ServiceScript script;
  std::vector<Exchange>& log = script.log;
  std::string last_job = "0";
  const auto call = [&](int conn, const std::string& request) -> const Exchange& {
    Exchange ex{request, {}, NowNs(), 0};
    ex.response = clients[conn].Call(request);
    ex.ns = NowNs() - ex.start_ns;
    if (ex.response.front().rfind("ok", 0) != 0) {
      out->errors.push_back("service: '" + request + "' answered '" + ex.response.front() +
                            "'");
      ++out->failed;
    }
    log.push_back(std::move(ex));
    return log.back();
  };
  const auto job = [&](std::size_t k) -> const hs::JobRecord& { return jobs[k % jobs.size()]; };
  for (int step = 0; step < kServiceSteps; ++step) {
    const Exchange& advance = call(0, "advance by=1800");
    script.now = hs::Request::Parse(advance.response.front()).GetInt("now", script.now);
    const auto k = static_cast<std::size_t>(step) + 1;
    const hs::SimTime gap = job(k).submit_time - job(k - 1).submit_time;
    const Exchange& submit = call(0, "submit " + JobFields(job(k), script.now + 1 + gap));
    hs::Request reply = hs::Request::Parse(submit.response.front());
    if (reply.Has("job")) last_job = reply.GetString("job", "0");
    call(1, "query-metrics");
    call(2, "query-job job=" + last_job);
    call(1, "ping");
    if (step % kWhatIfEvery == kWhatIfEvery - 1) {
      const auto probe = kServiceSteps + 1 + static_cast<std::size_t>(step / kWhatIfEvery);
      call(2, "whatif mechanisms=all " + JobFields(job(probe), script.now + 600));
    }
  }
  return script;
}

/// Ends a round: final query-metrics, a final what-if (a record of `jobs`
/// not submitted before, 900 s after `now`) and a snapshot over the wire,
/// shutdown, then the oracle — the snapshot restored in-process must
/// answer query-metrics byte for byte, and the what-if re-asked through
/// forced replay must equal the live (fork) answers. Each of the four
/// requests whose check fails counts as one failed operation.
void FinishServiceRound(std::vector<Client>& clients, Child& server, const Options& options,
                        const std::vector<hs::JobRecord>& jobs, hs::SimTime now,
                        Outcome* out) {
  Errors* errors = &out->errors;
  const std::string snap = options.scratch + "/final.snap";
  const std::vector<std::string> metrics = clients[1].Call("query-metrics");
  const hs::JobRecord& probe = jobs[(2 * kServiceSteps) % jobs.size()];
  const std::string whatif = "whatif mechanisms=all " + JobFields(probe, now + 900);
  const std::vector<std::string> live = clients[2].Call(whatif);
  const std::vector<std::string> saved = clients[1].Call("snapshot path=" + snap);
  std::size_t before = errors->size();
  clients[0].Call("shutdown");
  const int status = server.WaitExit(30.0);
  if (status != 0) errors->push_back("service: hs_server exit status " + std::to_string(status));
  CountFailed(out, before, 1);

  before = errors->size();
  if (saved.front().rfind("ok", 0) != 0) errors->push_back("service: snapshot failed");
  CountFailed(out, before, 1);
  before = errors->size();
  const std::unique_ptr<hs::ServiceSession> restored = hs::ServiceSession::RestoreFrom(snap);
  CheckSameBytes("service: restored query-metrics", metrics.front(),
                 hs::HandleRequestLine(*restored, "query-metrics").lines.front(), errors);
  CountFailed(out, before, 1);
  before = errors->size();
  CheckWhatIfAnswers("service final what-if", WhatIfBody(live), errors);
  hs::DispatchOptions replay;
  replay.force_replay = true;
  const std::vector<std::string> oracle = hs::HandleRequestLine(*restored, whatif, replay).lines;
  std::string live_text, oracle_text;
  for (const std::string& l : live) live_text += l + "\n";
  for (const std::string& l : oracle) oracle_text += l + "\n";
  CheckSameBytes("service: whatif fork vs forced replay", live_text, oracle_text, errors);
  CountFailed(out, before, 1);
}

/// The traced half of a service round: the same request lines dispatched
/// in-process against a replica session, timed per verb, with Fork,
/// forced-replay WhatIf and Finalize timed at their call sites. Every
/// in-process response must equal the wire response; each that does not
/// counts as one failed operation.
void TraceServiceRound(const std::vector<Exchange>& log, std::uint64_t seed, Tracer& tracer,
                       Tracer::SpanId parent, LayerSamples* layers, Outcome* out) {
  const hs::SimSpec spec = hs::SimSpec::Parse(ServiceSpec(seed));
  const std::int64_t b0 = NowNs();
  const hs::Trace base = spec.BuildTrace();
  const std::int64_t b1 = NowNs();
  tracer.Add("SimSpec::BuildTrace", parent, b0, b1, base.name);
  layers->Add("workload.trace_build_ms", Ms(b1 - b0));
  hs::ServiceSession replica(spec);
  std::map<std::string, std::vector<double>> dispatch_us;
  std::vector<double> fork_ms, replay_ms, finalize_ms;
  for (const Exchange& ex : log) {
    const std::int64_t t0 = NowNs();
    const hs::WireResponse resp = hs::HandleRequestLine(replica, ex.request);
    const std::int64_t t1 = NowNs();
    const std::string verb = VerbOf(ex.request);
    dispatch_us[verb].push_back(static_cast<double>(t1 - t0) / 1e3);
    tracer.Add("HandleRequestLine " + verb, parent, t0, t1, ex.request);
    if (resp.lines != ex.response) {
      ++out->failed;
      out->errors.push_back("service: in-process '" + ex.request + "' answered '" +
                            resp.lines.front() + "', the server '" + ex.response.front() +
                            "'");
    }
    if (verb == "query-metrics") {
      const std::int64_t f0 = NowNs();
      replica.live().Finalize();
      finalize_ms.push_back(Ms(NowNs() - f0));
    } else if (verb == "whatif") {
      const std::int64_t k0 = NowNs();
      const std::unique_ptr<hs::SimulationSession> fork = replica.live().Fork();
      const std::int64_t k1 = NowNs();
      fork_ms.push_back(Ms(k1 - k0));
      tracer.Add("SimulationSession::Fork", parent, k0, k1);
      const hs::JobRecord probe =
          hs::ParseJobFields(hs::Request::Parse(ex.request), replica.now());
      for (const std::string& mechanism : hs::MechanismNames()) {
        const std::int64_t w0 = NowNs();
        replica.WhatIf(probe, {mechanism}, /*force_replay=*/true);
        const std::int64_t w1 = NowNs();
        replay_ms.push_back(Ms(w1 - w0));
        tracer.Add("ServiceSession::WhatIf replay " + mechanism, parent, w0, w1);
      }
    }
  }
  for (const auto& [verb, samples] : dispatch_us) {
    layers->Add("service.dispatch_us." + verb, Median(samples));
  }
  std::vector<double> wire_ping_us;
  for (const Exchange& ex : log) {
    if (VerbOf(ex.request) == "ping") wire_ping_us.push_back(static_cast<double>(ex.ns) / 1e3);
  }
  layers->Add("service.wire_us", Median(wire_ping_us) - Median(dispatch_us["ping"]));
  layers->Add("exp.fork_ms", Median(fork_ms));
  layers->Add("exp.replay_ms", Median(replay_ms));
  layers->Add("metrics.finalize_ms", Median(finalize_ms));
  layers->Add("sim.events", static_cast<double>(replica.events_processed()));
  layers->Add("workload.jobs", static_cast<double>(replica.live().trace().jobs.size()));
}

Outcome RunServiceMix(const Options& options, Tracer& tracer) {
  Outcome out;
  EndToEnd e2e;
  LayerSamples layers;
  std::vector<double> latency_ms;
  std::uint64_t round = 0;
  RunRounds(options.seconds, 1, [&] {
    const std::uint64_t seed = ServiceRoundSeed(options.seed, round++);
    const std::vector<hs::JobRecord> jobs = ServiceJobs(seed);
    std::int64_t setup_ns = 0;
    Child server = StartServer(options, seed, &setup_ns);
    std::vector<Client> clients;
    for (int c = 0; c < kConnections; ++c) {
      clients.emplace_back(ConnectAndGreet(server.port(), hs::kWireGreeting));
    }
    const std::int64_t t0 = NowNs();
    const ServiceScript script = RunServiceScript(clients, jobs, &out);
    const std::vector<Exchange>& log = script.log;
    const std::int64_t t1 = NowNs();
    FinishServiceRound(clients, server, options, jobs, script.now, &out);
    out.attempted += log.size() + 4;

    std::vector<double> round_whatif_ms;
    for (const Exchange& ex : log) {
      latency_ms.push_back(Ms(ex.ns));
      if (VerbOf(ex.request) == "whatif") {
        round_whatif_ms.push_back(Ms(ex.ns));
        const std::size_t before = out.errors.size();
        CheckWhatIfAnswers("service what-if", WhatIfBody(ex.response), &out.errors);
        CountFailed(&out, before, 1);
      }
    }
    if (!options.trace) {
      e2e.setup_s.push_back(Sec(setup_ns));
      e2e.ops_per_s.push_back(static_cast<double>(log.size()) / Sec(t1 - t0));
      return;
    }
    const Tracer::SpanId span = tracer.Reserve();
    for (const Exchange& ex : log) {
      tracer.Add("request " + VerbOf(ex.request) + " (wire)", span, ex.start_ns,
                 ex.start_ns + ex.ns, ex.request);
    }
    const std::int64_t r0 = NowNs();
    TraceServiceRound(log, seed, tracer, span, &layers, &out);
    const std::int64_t r1 = NowNs();
    tracer.AddReserved(span, "round service_mix", Tracer::kRoot, t0, r1);
    out.attempted += log.size();
    layers.Add("service.requests", static_cast<double>(log.size()));
    layers.Add("service.whatif_p50_ms", Median(round_whatif_ms));
    layers.Add("trace.overhead_ms", Ms((r1 - r0) - (t1 - t0)));
  });
  if (options.trace) {
    out.metrics = layers.Report();
  } else {
    e2e.op_p50_ms = Quantile(latency_ms, 0.50);
    e2e.op_p99_ms = Quantile(latency_ms, 0.99);
    e2e.peak_rss_mb = ChildrenPeakRssMb();
    out.metrics = e2e.Report();
  }
  return out;
}

// --- fabric_grid ----------------------------------------------------------------------

constexpr int kFabricAgents = 2;
constexpr int kFabricSeeds = 12;     // x every mechanism = the grid
constexpr int kLatencyProbes = 8;    // one-cell runs per round

/// Short `tiny` cells keep a unit's worker well inside the agent's first
/// 10 ms output poll. Units whose worker takes about 10 ms (1-2-week
/// `paper` cells) land on either side of it and so take ~21 or ~41 ms
/// through the runner's 20 ms poll, flipping from run to run.
std::vector<hs::SimSpec> FabricGrid(std::uint64_t seed) {
  std::vector<hs::SimSpec> specs;
  for (int s = 0; s < kFabricSeeds; ++s) {
    for (const std::string& mechanism : hs::MechanismNames()) {
      hs::SimSpec spec;
      spec.mechanism = mechanism;
      spec.preset = "tiny";
      spec.weeks = 1 + s % 2;
      spec.seed = seed * 1000 + static_cast<std::uint64_t>(s);
      specs.push_back(spec);
    }
  }
  return specs;
}

std::string GridCsv(const std::vector<hs::SpecResult>& rows) {
  std::ostringstream out;
  hs::CsvResultSink sink(out, hs::CsvSinkOptions{/*include_wallclock=*/false});
  for (std::size_t i = 0; i < rows.size(); ++i) sink.OnResult(i, rows[i]);
  return out.str();
}

struct Agents {
  std::vector<Child> children;
  std::string hosts;
};

/// Starts the loopback agents and waits until each greets: one set-up
/// sample.
Agents StartAgents(const Options& options, std::int64_t* setup_ns) {
  Agents agents;
  const std::int64_t t0 = NowNs();
  for (int a = 0; a < kFabricAgents; ++a) {
    const std::string port_file = options.scratch + "/agent" + std::to_string(a) + ".port";
    std::remove(port_file.c_str());
    agents.children.push_back(Child::StartWithPortFile(
        {options.bin_dir + "/hs_agent", "--port=0", "--port-file=" + port_file,
         "--worker-bin=" + options.bin_dir + "/hs_worker", "--threads=1",
         "--work-dir=" + options.scratch + "/agent" + std::to_string(a)},
        port_file, options.scratch + "/agent" + std::to_string(a) + ".log", 60.0));
  }
  for (const Child& agent : agents.children) {
    ConnectAndGreet(agent.port(), hs::kFabricGreeting);
    agents.hosts += (agents.hosts.empty() ? "" : ",") + std::string("127.0.0.1:") +
                    std::to_string(agent.port());
  }
  *setup_ns = NowNs() - t0;
  return agents;
}

/// Records a span per merged row: the fabric's units are only visible from
/// outside when their row reaches the merge, so a unit span runs from the
/// previous merge to its own.
class UnitSpanSink final : public hs::ResultSink {
 public:
  UnitSpanSink(hs::ResultSink& inner, Tracer* tracer, Tracer::SpanId parent,
               std::int64_t start)
      : inner_(inner), tracer_(tracer), parent_(parent), last_(start) {}
  void OnResult(std::size_t index, const hs::SpecResult& row) override {
    inner_.OnResult(index, row);
    if (tracer_ == nullptr) return;
    const std::int64_t now = NowNs();
    tracer_->Add("unit " + std::to_string(index) + " merged", parent_, last_, now,
                 row.spec.ToString());
    last_ = now;
  }

 private:
  hs::ResultSink& inner_;
  Tracer* tracer_;
  Tracer::SpanId parent_;
  std::int64_t last_;
};

struct FabricRun {
  std::string csv;
  hs::FabricReport report;
  std::int64_t ns = 0;
};

FabricRun RunSharded(const std::vector<hs::SimSpec>& specs, hs::ShardedRunnerOptions opts,
                     const std::string& work_dir, Tracer* tracer, Tracer::SpanId parent) {
  opts.work_dir = work_dir;
  opts.worker_threads = 1;
  hs::ShardedRunner runner(opts);
  std::ostringstream csv;
  hs::CsvResultSink sink(csv, hs::CsvSinkOptions{/*include_wallclock=*/false});
  FabricRun run;
  const std::int64_t t0 = NowNs();
  UnitSpanSink units(sink, tracer, parent, t0);
  runner.Run(specs, &units);
  run.ns = NowNs() - t0;
  run.csv = csv.str();
  run.report = runner.last_report();
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  return run;
}

/// Checks a run's merged CSV and report; every cell whose row is wrong or
/// missing counts as a failed operation.
void CheckFabricRun(const std::string& label, const FabricRun& run,
                    const std::string& reference, Outcome* out) {
  Errors* errors = &out->errors;
  CheckSameBytes(label + ": merged CSV vs in-process ExperimentRunner", reference, run.csv,
                 errors);
  out->failed += CountDifferingRows(reference, run.csv);
  if (run.report.retries != 0 || run.report.conn_failures != 0 ||
      !run.report.quarantined.empty()) {
    errors->push_back(label + ": " + std::to_string(run.report.retries) + " retries, " +
                      std::to_string(run.report.conn_failures) + " connection failures, " +
                      std::to_string(run.report.quarantined.size()) + " quarantined");
  }
}

Outcome RunFabricGrid(const Options& options, Tracer& tracer) {
  Outcome out;
  EndToEnd e2e;
  LayerSamples layers;
  const std::vector<hs::SimSpec> specs = FabricGrid(options.seed);
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());

  // The oracle and the grid's event count, in-process, before any timing.
  std::vector<hs::SpecResult> reference_rows;
  double grid_events = 0;
  {
    hs::ThreadPool pool(threads);
    hs::ExperimentRunner runner(pool);
    reference_rows = runner.Run(specs);
    std::vector<std::size_t> events(specs.size());
    pool.ParallelFor(specs.size(), [&](std::size_t i) {
      hs::SimulationSession session(specs[i]);
      session.Run();
      events[i] = session.simulator().events_processed();
    });
    for (const std::size_t e : events) grid_events += static_cast<double>(e);
  }
  const std::string reference = GridCsv(reference_rows);

  std::vector<std::vector<double>> probe_ms(kLatencyProbes);
  int round = 0;
  RunRounds(options.seconds, 1, [&] {
    std::int64_t setup_ns = 0;
    Agents agents = StartAgents(options, &setup_ns);
    hs::ShardedRunnerOptions tcp;
    tcp.hosts = agents.hosts;
    tcp.shards = specs.size();  // one-cell units
    const std::string work = options.scratch + "/runner" + std::to_string(round++);
    const FabricRun grid = RunSharded(specs, tcp, work, nullptr, Tracer::kRoot);
    CheckFabricRun("fabric grid", grid, reference, &out);
    out.attempted += specs.size();
    for (int p = 0; p < kLatencyProbes; ++p) {
      const std::size_t i = static_cast<std::size_t>(p) * specs.size() / kLatencyProbes;
      const FabricRun one = RunSharded({specs[i]}, tcp, work, nullptr, Tracer::kRoot);
      probe_ms[p].push_back(Ms(one.ns));
      CheckFabricRun("fabric one-cell run", one, GridCsv({reference_rows[i]}), &out);
      out.attempted += 1;
    }
    if (!options.trace) {
      e2e.setup_s.push_back(Sec(setup_ns));
      e2e.ops_per_s.push_back(static_cast<double>(specs.size()) / Sec(grid.ns));
      return;
    }
    const Tracer::SpanId span = tracer.Reserve();
    const FabricRun traced = RunSharded(specs, tcp, work, &tracer, span);
    const std::int64_t t1 = NowNs();
    tracer.AddReserved(span, "ShardedRunner::Run tcp x" + std::to_string(kFabricAgents),
                       Tracer::kRoot, t1 - traced.ns, t1);
    CheckFabricRun("fabric traced grid", traced, reference, &out);
    out.attempted += specs.size();

    const std::int64_t b0 = NowNs();
    for (std::size_t i = 0; i < specs.size(); i += hs::MechanismNames().size()) {
      specs[i].BuildTrace();  // one trace per seed; every mechanism shares it
    }
    const std::int64_t b1 = NowNs();
    tracer.Add("SimSpec::BuildTrace x" + std::to_string(kFabricSeeds), Tracer::kRoot, b0, b1);
    layers.Add("workload.trace_build_ms", Ms(b1 - b0));

    hs::ThreadPool one_thread(1);
    hs::ExperimentRunner runner(one_thread);
    const std::int64_t c0 = NowNs();
    const std::string in_process = GridCsv(runner.Run(specs));
    const std::int64_t c1 = NowNs();
    tracer.Add("ExperimentRunner::Run 1 thread", Tracer::kRoot, c0, c1);
    CheckSameBytes("fabric: traced in-process grid", reference, in_process, &out.errors);
    out.failed += CountDifferingRows(reference, in_process);
    const double cell_ms = Ms(c1 - c0) / static_cast<double>(specs.size());

    hs::ShardedRunnerOptions local;
    local.shards = std::max<std::size_t>(1, threads - 1);
    const Tracer::SpanId local_span = tracer.Reserve();
    const std::int64_t l0 = NowNs();
    const FabricRun local_run = RunSharded(specs, local, work, &tracer, local_span);
    tracer.AddReserved(local_span, "ShardedRunner::Run local-exec", Tracer::kRoot, l0,
                       l0 + local_run.ns);
    CheckFabricRun("fabric local-exec", local_run, reference, &out);
    out.attempted += 2 * specs.size();

    const double units = static_cast<double>(specs.size());
    const double local_units = static_cast<double>(local.shards);
    layers.Add("fabric.cell_ms", cell_ms);
    layers.Add("fabric.overhead_ms_per_unit",
               (Ms(grid.ns) * kFabricAgents - cell_ms * units) / units);
    layers.Add("fabric.local.overhead_ms_per_unit",
               (Ms(local_run.ns) * local_units - cell_ms * units) / local_units);
    layers.Add("fabric.units", units);
    layers.Add("fabric.launches", static_cast<double>(grid.report.workers_launched));
    layers.Add("fabric.retries", static_cast<double>(grid.report.retries));
    layers.Add("fabric.conn_failures", static_cast<double>(grid.report.conn_failures));
    layers.Add("sim.events", grid_events);
    layers.Add("trace.overhead_ms", Ms(traced.ns - grid.ns));
  });
  if (options.trace) {
    out.metrics = layers.Report();
  } else {
    SetOpLatencies(probe_ms, &e2e);
    e2e.peak_rss_mb = ChildrenPeakRssMb();
    out.metrics = e2e.Report();
  }
  return out;
}

}  // namespace

Outcome RunWorkload(const Options& options, Tracer& tracer) {
  if (options.workload == "paper_52w") {
    return RunSimWorkload({"paper", 52, {}, /*paper_claims=*/true}, options, tracer);
  }
  if (options.workload == "aimix_storm") {
    return RunSimWorkload({"aimix", 4, {{"load", "0.7"}}, /*paper_claims=*/false}, options, tracer);
  }
  if (options.workload == "service_mix") return RunServiceMix(options, tracer);
  if (options.workload == "fabric_grid") return RunFabricGrid(options, tracer);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace e2e
