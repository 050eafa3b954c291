// bench_hotpath: microbenchmark harness for the simulator's per-event hot
// paths. Five benchmark families cover the layers the event loop touches on
// every simulated second:
//
//   cluster_ops     platform: start/finish/reserve/release node bookkeeping
//   queue_order_*   sched: policy-ordered waiting-queue views (hot + churn)
//   sched_pass_*    sched: ExecutionEngine::RunSchedulingPass in isolation
//                   (quiet: saturated cluster, blocked queue, nothing to do;
//                   storm: AI-swarm same-tick arrival bursts that start and
//                   drain through the free pool) — pass cost tracked
//                   independently of end_to_end_cells
//   event_churn     sim: schedule/cancel/pop cycles (malleable resizes)
//   trace_gen_burst workload: modulated synthesis (burst/aimix presets)
//   end_to_end      exp: sequential ExperimentRunner cells/sec
//   session_fork    exp: mid-flight SimulationSession::Fork()s/sec (what-if)
//   session_step    exp: batch-at-a-time NextEventTime/StepTo events/sec
//
// session_fork and session_step are report-only: they have no entry in the
// committed baselines (they arrived with the hs_server work), so they show
// a trajectory from here on without invalidating the pre-refactor numbers.
//
// Methodology: steady-clock timing, one warmup run per benchmark, then R
// timed repetitions; the reported figure is the median ops/sec (medians are
// robust against one-off scheduler hiccups on shared CI runners). Results
// are written as machine-readable JSON (BENCH_hotpath.json) so every PR
// extends a perf trajectory instead of a one-off number.
//
// The committed pre-refactor baseline (bench/BENCH_hotpath_baseline.json)
// is loaded and echoed into the output together with speedup ratios;
// --baseline= overrides the path, --baseline= (empty) skips it.
//
// Flags: --quick (CI smoke: smaller sizes, fewer reps), --reps=N,
//        --out=PATH, --baseline=PATH.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/fixtures.h"
#include "exp/runner.h"
#include "exp/session.h"
#include "platform/cluster.h"
#include "sched/batch_scheduler.h"
#include "sched/policy.h"
#include "sched/queue_manager.h"
#include "sim/event_queue.h"
#include "util/cli.h"
#include "util/rng.h"

using namespace hs;

namespace {

struct BenchResult {
  std::string name;
  double median_ops_per_sec = 0.0;
  std::vector<double> reps;  // per-repetition ops/sec
};

/// Times `fn` (which returns the number of "operations" it performed):
/// one warmup call, then `reps` timed calls; returns median ops/sec.
template <typename Fn>
BenchResult RunBench(const std::string& name, int reps, Fn&& fn) {
  BenchResult out;
  out.name = name;
  fn();  // warmup
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::int64_t ops = fn();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    out.reps.push_back(static_cast<double>(ops) / std::max(secs, 1e-9));
  }
  std::vector<double> sorted = out.reps;
  std::sort(sorted.begin(), sorted.end());
  out.median_ops_per_sec = sorted[sorted.size() / 2];
  return out;
}

// --- platform: cluster bookkeeping churn ------------------------------------

/// Mixed Start/Finish/Reserve/Release churn over a cluster, shaped like the
/// scheduler's usage: StartOn with specific nodes (the tenant path that used
/// to pay a linear free-list erase per node), reservations opening and
/// closing, malleable shrink/expand. Returns ops performed.
std::int64_t ClusterChurn(int num_nodes, int rounds) {
  Cluster cluster(num_nodes);
  Rng rng(0xC105ULL);
  std::int64_t ops = 0;
  std::vector<JobId> running;
  JobId next_job = 0;
  for (int i = 0; i < rounds; ++i) {
    const int free = cluster.free_count();
    const int action = static_cast<int>(rng.UniformInt(0, 5));
    if (action <= 1 && free >= 8) {  // start a job from the free pool
      const int want = static_cast<int>(rng.UniformInt(1, std::min(free, 64)));
      running.push_back(next_job);
      cluster.StartFromFree(next_job++, want);
      ++ops;
    } else if (action == 2 && free >= 16) {  // tenant-style StartOn (specific nodes)
      std::vector<int> nodes;
      for (int n = 0; n < num_nodes && static_cast<int>(nodes.size()) < 8; ++n) {
        if (cluster.running_on(n) == kNoJob && cluster.reserved_for(n) == kNoJob) {
          nodes.push_back(n);
        }
      }
      if (!nodes.empty()) {
        running.push_back(next_job);
        cluster.StartOn(next_job++, nodes);
        ++ops;
      }
    } else if (action == 3 && free >= 8) {  // open + drop a reservation
      const JobId od = next_job++;
      cluster.ReserveFromFree(od, static_cast<int>(rng.UniformInt(1, 32)));
      cluster.Unreserve(od);
      ops += 2;
    } else if (action == 4 && !running.empty()) {  // shrink a running job
      const std::size_t pick =
          static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(running.size()) - 1));
      const JobId job = running[pick];
      const int alloc = cluster.AllocCount(job);
      if (alloc > 1) {
        cluster.ReleaseSome(job, alloc / 2);
        ++ops;
      }
    } else if (!running.empty()) {  // finish the oldest job
      cluster.Finish(running.front());
      running.erase(running.begin());
      ++ops;
    }
  }
  for (const JobId job : running) cluster.Finish(job);
  return ops + static_cast<std::int64_t>(running.size());
}

// --- sched: policy-ordered queue views ---------------------------------------

std::vector<JobRecord> MakeQueueRecords(int count) {
  std::vector<JobRecord> records(static_cast<std::size_t>(count));
  Rng rng(0x0DEULL);
  for (int i = 0; i < count; ++i) {
    JobRecord& rec = records[static_cast<std::size_t>(i)];
    rec.id = i;
    rec.size = static_cast<int>(rng.UniformInt(1, 256));
    rec.min_size = rec.size;
    rec.estimate = rng.UniformInt(600, 24 * 3600);
    rec.compute_time = rec.estimate / 2;
  }
  return records;
}

void FillQueue(QueueManager& queue, const std::vector<JobRecord>& records) {
  Rng rng(0xF111ULL);
  for (const JobRecord& rec : records) {
    WaitingJob w;
    w.id = rec.id;
    w.record = &rec;
    w.first_submit = rng.UniformInt(0, 1 << 20);
    w.enqueue_time = w.first_submit;
    w.estimate_remaining = rec.estimate;
    queue.Add(w);
  }
}

/// Repeated Ordered() views over a static queue (the quiescent-pass shape:
/// many passes between queue edits). Returns ordering calls performed.
std::int64_t QueueOrderHot(const std::vector<JobRecord>& records, int calls) {
  const auto policy = MakePolicy("SJF");
  QueueManager queue(*policy);
  FillQueue(queue, records);
  std::int64_t sink = 0;
  for (int i = 0; i < calls; ++i) {
    const auto view = queue.Ordered(/*now=*/i);
    sink += static_cast<std::int64_t>(view.size());
  }
  return sink == -1 ? 0 : calls;
}

/// Ordered() with queue churn between calls (arrivals + starts): each
/// iteration removes and re-adds a pair of jobs first.
std::int64_t QueueOrderChurn(const std::vector<JobRecord>& records, int calls) {
  const auto policy = MakePolicy("SJF");
  QueueManager queue(*policy);
  FillQueue(queue, records);
  const int n = static_cast<int>(records.size());
  std::int64_t sink = 0;
  for (int i = 0; i < calls; ++i) {
    const JobId a = i % n;
    const JobId b = (i * 7 + 1) % n;
    WaitingJob wa = queue.Remove(a);
    queue.Add(wa);
    if (b != a) {
      WaitingJob wb = queue.Remove(b);
      queue.Add(wb);
    }
    const auto view = queue.Ordered(/*now=*/i);
    sink += static_cast<std::int64_t>(view.size());
  }
  return sink == -1 ? 0 : calls;
}

// --- sched: the scheduling pass in isolation ----------------------------------

/// The pass rigs and the id pool they draw storm bursts from. Quantum-sized
/// aimix jobs (128 nodes — the smallest allocation the Theta synthesis
/// emits) are the AI-swarm component: 16 fit concurrently, so the engine
/// carries a realistic running table with free headroom left over.
struct PassRig {
  std::unique_ptr<test::EngineSandbox> sandbox;
  std::vector<JobId> small_ids;  // unstarted small jobs (storm ammunition)
};

/// A warm ExecutionEngine over an aimix trace: small (AI-swarm) jobs are
/// started directly until the cluster reaches `busy_frac`, then `backlog`
/// further jobs are enqueued as the waiting queue. High busy_frac + backlog
/// is the quiet-rig shape (saturated machine, blocked queue); low busy_frac
/// with no backlog leaves free headroom for storm rounds.
PassRig MakePassRig(int weeks, double busy_frac, int backlog) {
  SimSpec spec = SimSpec::Parse("baseline/FCFS/W5/preset=aimix/ai_frac=0.5");
  spec.weeks = weeks;
  spec.seed = 42;
  EngineConfig config;
  config.checkpoint.node_mtbf = 1000LL * 365 * kDay;  // no dumps: pass-only cost
  PassRig rig;
  rig.sandbox = std::make_unique<test::EngineSandbox>(spec.BuildTrace(), config);
  ExecutionEngine& engine = rig.sandbox->engine_;
  const Trace& trace = rig.sandbox->trace_;
  const int nodes = trace.num_nodes;
  const int total = static_cast<int>(trace.jobs.size());
  int backlog_left = backlog;
  for (JobId id = 0; id < total; ++id) {
    const JobRecord& rec = trace.jobs[static_cast<std::size_t>(id)];
    const bool small = rec.size <= 128;  // the Theta size quantum: 16 fit concurrently
    if (small && engine.cluster().busy_count() <
                     static_cast<int>(busy_frac * nodes) &&
        rec.size <= engine.cluster().free_count()) {
      engine.EnqueueFresh(id, 0);
      if (!engine.StartWaiting(id, rec.size, 0)) engine.queue().Remove(id);
    } else if (backlog_left > 0) {
      engine.EnqueueFresh(id, 0);
      --backlog_left;
    } else if (small) {
      rig.small_ids.push_back(id);
    }
  }
  return rig;
}

/// Repeated passes over a saturated cluster and an unchanged blocked queue —
/// the dominant quiescent-callback shape (most events change nothing the
/// pass could use). Returns passes performed.
std::int64_t SchedPassQuiet(test::EngineSandbox& rig, int calls) {
  std::int64_t started = 0;
  for (int i = 1; i <= calls; ++i) {
    started += rig.engine_.RunSchedulingPass(i);
  }
  return started == -1 ? 0 : calls;
}

/// AI-swarm storm rounds: every round submits a same-tick burst of small
/// jobs, runs one pass (they start through the free pool), then finishes the
/// started jobs and clears the stragglers — steady-state arrival churn.
/// Returns jobs pushed through.
std::int64_t SchedPassStorm(PassRig& rig, int burst, int rounds) {
  ExecutionEngine& engine = rig.sandbox->engine_;
  const int pool = static_cast<int>(rig.small_ids.size());
  std::int64_t ops = 0;
  int next = 0;
  std::vector<JobId> batch;
  for (int r = 1; r <= rounds; ++r) {
    const SimTime now = r;
    batch.clear();
    for (int b = 0; b < burst; ++b) {
      const JobId id = rig.small_ids[static_cast<std::size_t>(next++ % pool)];
      if (engine.IsWaiting(id) || engine.IsRunning(id)) continue;
      engine.EnqueueFresh(id, now);
      batch.push_back(id);
    }
    engine.RunSchedulingPass(now);
    for (const JobId id : batch) {
      if (engine.IsRunning(id)) {
        engine.FinishRunning(id, now);
      } else if (engine.IsWaiting(id)) {
        engine.queue().Remove(id);
      }
    }
    ops += static_cast<std::int64_t>(batch.size());
  }
  return ops;
}

// --- sim: event queue churn ---------------------------------------------------

/// Schedule/cancel/pop cycles shaped like malleable resizes: every resize
/// cancels a finish/kill pair and schedules a new one. Returns ops.
std::int64_t EventChurn(int jobs, int rounds) {
  EventQueue q;
  Rng rng(0xE7E2ULL);
  std::vector<EventId> finish(static_cast<std::size_t>(jobs), kNoEvent);
  std::vector<EventId> kill(static_cast<std::size_t>(jobs), kNoEvent);
  std::int64_t ops = 0;
  SimTime now = 0;
  for (int j = 0; j < jobs; ++j) {
    finish[static_cast<std::size_t>(j)] =
        q.Push(now + rng.UniformInt(1, 100000), EventKind::kJobFinish, j);
    kill[static_cast<std::size_t>(j)] =
        q.Push(now + rng.UniformInt(1, 200000), EventKind::kJobKill, j);
    ops += 2;
  }
  for (int i = 0; i < rounds; ++i) {
    const int j = static_cast<int>(rng.UniformInt(0, jobs - 1));
    const auto sj = static_cast<std::size_t>(j);
    // Resize: cancel the pair, reschedule it later.
    q.Cancel(finish[sj]);
    q.Cancel(kill[sj]);
    finish[sj] = q.Push(now + rng.UniformInt(1, 100000), EventKind::kJobFinish, j);
    kill[sj] = q.Push(now + rng.UniformInt(1, 200000), EventKind::kJobKill, j);
    ops += 4;
    if (i % 4 == 0 && !q.Empty()) {  // drain a little, advancing the clock
      const Event e = q.Pop();
      now = std::max(now, e.time);
      ++ops;
    }
  }
  while (!q.Empty()) {
    q.Pop();
    ++ops;
  }
  return ops;
}

// --- workload: modulated trace synthesis --------------------------------------

/// Generator-layer throughput: jobs synthesized per second for a bursty,
/// AI-blended scenario — Theta synthesis plus the workload/generators.h
/// pipeline (AI swarm blend + storm/diurnal arrival warp), the hot path of
/// the burst/diurnal/aimix presets. Returns jobs generated.
std::int64_t TraceGenBurst(int weeks) {
  SimSpec spec =
      SimSpec::Parse("baseline/FCFS/W5/preset=burst/ai_frac=0.2/diurnal_amp=0.5");
  spec.weeks = weeks;
  spec.seed = 77;
  const Trace trace = spec.BuildTrace();
  return static_cast<std::int64_t>(trace.jobs.size());
}

// --- exp: end-to-end cells/sec ------------------------------------------------

/// Sequential ExperimentRunner throughput over a small mechanism sample.
/// Single-threaded on purpose: cells/sec here is per-cell simulation cost,
/// not machine parallelism. Returns cells completed.
std::int64_t EndToEnd(int weeks, int seeds) {
  std::vector<SimSpec> specs;
  for (const char* mechanism : {"baseline", "N&PAA", "CUP&SPAA"}) {
    SimSpec base = SimSpec::Parse(std::string(mechanism) + "/FCFS/W5");
    base.weeks = weeks;
    for (const SimSpec& seeded : SeedSweep(base, seeds, 4200)) specs.push_back(seeded);
  }
  ThreadPool pool(1);
  ExperimentRunner runner(pool);
  const auto rows = runner.Run(specs);
  return static_cast<std::int64_t>(rows.size());
}

// --- exp: session fork + incremental stepping ---------------------------------

/// Fork()s/sec of a mid-flight midsize session — the hs_server what-if hot
/// path (deep copy of cluster + queues + reservations + event heap + RNG
/// streams). Returns forks performed.
std::int64_t SessionFork(const SimulationSession& session, int forks) {
  std::int64_t sink = 0;
  for (int i = 0; i < forks; ++i) {
    const std::unique_ptr<SimulationSession> fork = session.Fork();
    sink += fork->now();
  }
  return sink == -1 ? 0 : forks;
}

/// Events/sec when driving a run one timestamp batch at a time through
/// NextEventTime()/StepTo() — the server's advance/what-if stepping shape,
/// versus Run()'s single uninterrupted loop. Returns events processed.
std::int64_t SessionStep(const SimSpec& spec) {
  SimulationSession session(spec);
  for (;;) {
    const SimTime next = session.NextEventTime();
    if (next == kNever) break;
    session.StepTo(next);
  }
  return static_cast<std::int64_t>(session.simulator().events_processed());
}

// --- JSON output / baseline loading ------------------------------------------

std::string JsonDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Extracts `"median": <number>` for benchmark `name` from a prior
/// BENCH_hotpath.json. Medians-only scan — enough for trend arithmetic
/// without a JSON dependency; returns false when the file or key is absent.
bool BaselineMedian(const std::string& text, const std::string& name, double* out) {
  const auto name_pos = text.find("\"" + name + "\"");
  if (name_pos == std::string::npos) return false;
  const auto med_pos = text.find("\"median\":", name_pos);
  if (med_pos == std::string::npos) return false;
  *out = std::strtod(text.c_str() + med_pos + 9, nullptr);
  return *out > 0.0;
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv);
  const bool quick = args.GetBool("quick", false);
  const int reps =
      std::max(1, static_cast<int>(args.GetInt("reps", quick ? 3 : 5)));
  const std::string out_path = args.GetString("out", "BENCH_hotpath.json");
  // Quick and full runs use different workload sizes, so each mode has its
  // own committed pre-refactor baseline; comparing across modes would
  // report meaningless ratios.
  const std::string baseline_file = quick ? "BENCH_hotpath_baseline_quick.json"
                                          : "BENCH_hotpath_baseline.json";
#ifdef HS_SOURCE_DIR
  const std::string default_baseline =
      std::string(HS_SOURCE_DIR) + "/bench/" + baseline_file;
#else
  const std::string default_baseline = baseline_file;
#endif
  const std::string baseline_path = args.GetString("baseline", default_baseline);
  args.RejectUnknown();

  const int cluster_nodes = quick ? 1024 : 4096;
  const int cluster_rounds = quick ? 60000 : 300000;
  const int queue_jobs = quick ? 500 : 1500;
  const int order_calls_hot = quick ? 600 : 2000;
  const int order_calls_churn = quick ? 300 : 800;
  const int event_jobs = quick ? 2000 : 8000;
  const int event_rounds = quick ? 120000 : 600000;
  const int e2e_weeks = quick ? 1 : 2;
  const int e2e_seeds = quick ? 1 : 2;
  const int trace_gen_weeks = quick ? 1 : 4;
  const int fork_count = quick ? 50 : 200;
  const int pass_quiet_calls = quick ? 5000 : 20000;
  const int pass_storm_rounds = quick ? 300 : 1000;
  const int pass_storm_burst = 64;

  std::printf("=== bench_hotpath (%s: reps=%d) ===\n", quick ? "quick" : "full", reps);

  const std::vector<JobRecord> records = MakeQueueRecords(queue_jobs);
  std::vector<BenchResult> results;
  results.push_back(RunBench("cluster_ops", reps, [&] {
    return ClusterChurn(cluster_nodes, cluster_rounds);
  }));
  results.push_back(RunBench("queue_order_hot", reps, [&] {
    return QueueOrderHot(records, order_calls_hot);
  }));
  results.push_back(RunBench("queue_order_churn", reps, [&] {
    return QueueOrderChurn(records, order_calls_churn);
  }));
  {
    // Rigs are built once: the families measure steady-state pass cost, not
    // trace synthesis or warmup placement. A settling pass lets whatever can
    // still start (head + backfill) do so, so the timed passes see a
    // genuinely blocked steady state.
    auto quiet_rig = MakePassRig(/*weeks=*/1, /*busy_frac=*/0.95,
                                 /*backlog=*/2000);
    quiet_rig.sandbox->engine_.RunSchedulingPass(0);
    results.push_back(RunBench("sched_pass_quiet", reps, [&] {
      return SchedPassQuiet(*quiet_rig.sandbox, pass_quiet_calls);
    }));
    auto storm_rig = MakePassRig(/*weeks=*/1, /*busy_frac=*/0.6, /*backlog=*/0);
    results.push_back(RunBench("sched_pass_storm", reps, [&] {
      return SchedPassStorm(storm_rig, pass_storm_burst, pass_storm_rounds);
    }));
  }
  results.push_back(RunBench("event_churn", reps, [&] {
    return EventChurn(event_jobs, event_rounds);
  }));
  results.push_back(RunBench("trace_gen_burst", reps, [&] {
    return TraceGenBurst(trace_gen_weeks);
  }));
  results.push_back(RunBench("end_to_end_cells", reps, [&] {
    return EndToEnd(e2e_weeks, e2e_seeds);
  }));
  // Report-only families (no entry in the committed baselines): the
  // hs_server paths — what-if forking and batch-at-a-time stepping.
  SimSpec fork_spec = SimSpec::Parse("CUP&SPAA/FCFS/W5/preset=midsize");
  fork_spec.seed = 1;
  SimulationSession fork_session(fork_spec);
  fork_session.StepTo(3 * kDay + kHour / 2);  // mid-week, state fully warm
  results.push_back(RunBench("session_fork", reps, [&] {
    return SessionFork(fork_session, fork_count);
  }));
  results.push_back(RunBench("session_step", reps, [&] {
    return SessionStep(fork_spec);
  }));

  // Load the committed pre-refactor baseline (if present).
  std::string baseline_text;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      baseline_text = buf.str();
    }
  }

  std::ostringstream json;
  json << "{\n  \"schema\": 1,\n  \"quick\": " << (quick ? "true" : "false")
       << ",\n  \"reps\": " << reps << ",\n  \"benchmarks\": {\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    json << "    \"" << r.name << "\": {\"unit\": \"ops_per_sec\", \"median\": "
         << JsonDouble(r.median_ops_per_sec) << ", \"reps\": [";
    for (std::size_t k = 0; k < r.reps.size(); ++k) {
      if (k) json << ", ";
      json << JsonDouble(r.reps[k]);
    }
    json << "]}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  },\n  \"baseline\": ";
  if (baseline_text.empty()) {
    json << "null,\n  \"speedup_vs_baseline\": null\n";
  } else {
    std::ostringstream base, speed;
    bool first = true;
    for (const BenchResult& r : results) {
      double med = 0.0;
      if (!BaselineMedian(baseline_text, r.name, &med)) continue;
      if (!first) {
        base << ", ";
        speed << ", ";
      }
      first = false;
      base << "\"" << r.name << "\": " << JsonDouble(med);
      speed << "\"" << r.name << "\": " << JsonDouble(r.median_ops_per_sec / med);
    }
    json << "{" << base.str() << "},\n  \"speedup_vs_baseline\": {" << speed.str()
         << "}\n";
  }
  json << "}\n";

  std::ofstream out(out_path);
  out << json.str();
  out.close();

  for (const BenchResult& r : results) {
    double med = 0.0;
    const bool have_base =
        !baseline_text.empty() && BaselineMedian(baseline_text, r.name, &med);
    std::printf("  %-18s %12.3g ops/s", r.name.c_str(), r.median_ops_per_sec);
    if (have_base) std::printf("   (%.2fx vs baseline)", r.median_ops_per_sec / med);
    std::printf("\n");
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
