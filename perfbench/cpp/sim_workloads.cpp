// The two simulator workloads.
//
// sim-stream-fcfs: the paper's estimator at cluster scale. Trace
// streaming, the calendar queue, cluster allocate/release and the
// successive-approximation estimator do the work; the FCFS policy pass
// only looks at the queue head.
//
// sim-mr-backfill: policy- and vector-bound. The multi-resource engine
// runs EASY backfill over a materialized cloud-diurnal trace whose
// arrivals are compressed so a queue forms but stays bounded.
//
// Both repeat one simulation of a fixed trace for the timed budget, time
// each repeat by this thread's CPU time and report the fastest; every
// repeat (and the traced run) must produce the same result digest.
#include <algorithm>
#include <memory>
#include <vector>

#include "core/factory.hpp"
#include "core/multi_resource.hpp"
#include "exp/scenarios.hpp"
#include "obs/metrics.hpp"
#include "sched/factory.hpp"
#include "sim/mr_simulator.hpp"
#include "sim/simulator.hpp"
#include "trace/job_stream.hpp"
#include "trace/transforms.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace resmatch;

/// Both simulator workloads replay one fixed trace; --seed drives the
/// simulator's own RNG. Traces drawn from other seeds differ in queue
/// length, and so in cost per event, by more than run-to-run noise.
constexpr std::uint64_t kTraceSeed = 42;

/// One simulation and what the benchmark needs from it.
struct SimRun {
  sim::SimulationResult result;
  sim::MrSimulationResult mr;  ///< multi-resource extras (mr workload only)
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< this thread's CPU time over the simulation
  std::uint64_t digest = 0;

  [[nodiscard]] double events() const {
    return static_cast<double>(result.submitted + result.attempts);
  }
};

/// Times one untraced simulation by wall and by thread CPU time.
template <typename F>
void time_simulation(SimRun& run, F&& simulate) {
  const double c0 = thread_cpu_seconds();
  const auto t0 = Clock::now();
  simulate();
  run.wall_s = seconds_since(t0);
  run.cpu_s = thread_cpu_seconds() - c0;
}

std::uint64_t digest_of(const sim::SimulationResult& r) {
  Digest d;
  for (const std::size_t v :
       {r.submitted, r.completed, r.intrinsic_failed, r.dropped_unschedulable,
        r.dropped_attempt_cap, r.attempts, r.resource_failures,
        r.lowered_starts, r.benefiting_jobs, r.benefiting_nodes}) {
    d.add(v);
  }
  for (const double v :
       {r.makespan, r.offered_load, r.utilization, r.wasted_fraction,
        r.mean_wait, r.mean_slowdown, r.mean_bounded_slowdown, r.p95_slowdown,
        r.throughput_per_hour, r.granted_mib_nodes, r.used_mib_nodes}) {
    d.add(v);
  }
  for (const auto& pool : r.pool_utilization) {
    d.add(pool.capacity);
    d.add(pool.busy_fraction);
  }
  return d.value();
}

/// Repeat `once` until the budget is spent (at least `min_reps` times),
/// never starting a repeat the median repeat would push past the budget.
template <typename F>
std::vector<SimRun> repeat_for(double budget_s, std::size_t min_reps, F&& once) {
  std::vector<SimRun> runs;
  std::vector<double> walls;
  const auto t0 = Clock::now();
  while (runs.size() < min_reps ||
         seconds_since(t0) + median(walls) <= budget_s) {
    const auto r0 = Clock::now();
    runs.push_back(once());
    walls.push_back(seconds_since(r0));
  }
  return runs;
}

double registry_value(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
  const obs::MetricSample* s = snap.find(name);
  return s == nullptr ? 0.0 : s->value;
}

/// Metrics and gates shared by both simulator workloads. `traced` is the
/// traced run (trace mode only), `log` its spans.
void report_sim(const std::vector<SimRun>& runs, const Metric& setup,
                const SimRun* traced, const SpanLog* log,
                const obs::MetricsSnapshot* snap, double untraced_rate,
                WorkloadResult& out) {
  const sim::SimulationResult& r = runs.front().result;

  std::vector<double> rates;       // by thread CPU time
  std::vector<double> wall_rates;  // by wall time, for the report
  for (const SimRun& run : runs) {
    rates.push_back(run.events() / run.cpu_s);
    wall_rates.push_back(run.events() / run.wall_s);
    out.check(run.digest == runs.front().digest,
              "sim digest differs between repeats of one seed");
    out.attempted += run.result.submitted;
    out.failed += run.result.dropped_unschedulable + run.result.dropped_attempt_cap;
  }
  const std::size_t dropped = r.dropped_unschedulable + r.dropped_attempt_cap;
  out.check(r.completed + r.intrinsic_failed + dropped == r.submitted,
            "conservation: completed + failed + dropped != submitted");
  out.check(r.submitted > 0 && r.attempts >= r.completed + r.intrinsic_failed,
            "conservation: fewer attempts than finished jobs");

  out.end_to_end["setup_s"] = setup;
  // The fastest repeat: the machine's speed drifts by tens of percent from
  // second to second (CPU time tracks wall time, so it is not waiting for
  // a core), and interference only ever slows a repeat down.
  out.end_to_end["throughput_per_s"] = {
      *std::max_element(rates.begin(), rates.end()), "1/s", rates.size()};
  out.end_to_end["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
  out.end_to_end["kill_rate"] = {r.resource_failure_fraction(), "fraction"};
  out.end_to_end["overprovision"] = {r.overprovision_factor(), "ratio"};

  out.per_layer["bench.wall_throughput_per_s"] = {median(wall_rates), "1/s",
                                                 wall_rates.size()};
  out.per_layer["bench.median_throughput_per_s"] = {median(rates), "1/s",
                                                   rates.size()};
  out.per_layer["sim.utilization"] = {r.utilization, "fraction"};
  out.per_layer["sim.bounded_slowdown"] = {r.mean_bounded_slowdown, "ratio"};
  out.per_layer["bench.error_rate"] = {
      ratio(static_cast<double>(dropped), static_cast<double>(r.submitted)),
      "fraction"};
  out.per_layer["core.lowered_fraction"] = {r.lowered_fraction(), "fraction"};
  out.per_layer["core.attempts_per_job"] = {
      ratio(static_cast<double>(r.attempts), static_cast<double>(r.submitted)),
      "ratio"};
  out.per_layer["sim.events"] = {runs.front().events(), "count"};

  if (traced == nullptr) return;
  out.check(traced->digest == runs.front().digest,
            "sim digest differs between the untraced and the traced run");
  const double events = traced->events();
  out.check(registry_value(*snap, "resmatch_sim_events_total") == events,
            "conservation: events != submitted + attempts");

  const auto& run_t = log->totals(Layer::kSimRun);
  const auto& next_t = log->totals(Layer::kTraceNext);
  const auto& pick_t = log->totals(Layer::kSchedPick);
  std::uint64_t core_calls = 0;
  std::uint64_t core_ns = 0;
  for (const Layer l : {Layer::kCoreEstimate, Layer::kCorePreview,
                        Layer::kCoreFeedback, Layer::kCoreCancel}) {
    core_calls += log->totals(l).calls;
    core_ns += log->totals(l).ns;
  }
  const double wall_ns = static_cast<double>(run_t.ns);
  const double self_ns = wall_ns - static_cast<double>(next_t.ns + pick_t.ns + core_ns);
  const auto per_call = [](const SpanLog::Totals& t) {
    return ratio(static_cast<double>(t.ns), static_cast<double>(t.calls));
  };

  // Layers the workload does not wrap (the materialized trace and the
  // VectorEstimator of sim-mr-backfill) are left out, not reported as 0.
  if (next_t.calls > 0) {
    out.per_layer["trace.next_ns"] = {per_call(next_t), "ns", next_t.calls};
    out.per_layer["trace.share"] = {ratio(static_cast<double>(next_t.ns), wall_ns),
                                    "fraction"};
  }
  if (core_calls > 0) {
    out.per_layer["core.estimate_calls"] = {
        static_cast<double>(log->totals(Layer::kCoreEstimate).calls), "count"};
    out.per_layer["core.preview_calls"] = {
        static_cast<double>(log->totals(Layer::kCorePreview).calls), "count"};
    out.per_layer["core.feedback_calls"] = {
        static_cast<double>(log->totals(Layer::kCoreFeedback).calls), "count"};
    out.per_layer["core.call_ns"] = {
        ratio(static_cast<double>(core_ns), static_cast<double>(core_calls)), "ns",
        core_calls};
    out.per_layer["core.share"] = {ratio(static_cast<double>(core_ns), wall_ns),
                                   "fraction"};
  }
  out.per_layer["sched.pick_calls"] = {static_cast<double>(pick_t.calls), "count"};
  out.per_layer["sched.pick_ns"] = {per_call(pick_t), "ns", pick_t.calls};
  out.per_layer["sched.starts_per_pick"] = {
      ratio(static_cast<double>(log->starts()), static_cast<double>(pick_t.calls)),
      "ratio"};
  out.per_layer["sched.share"] = {ratio(static_cast<double>(pick_t.ns), wall_ns), "fraction"};
  out.per_layer["sim.self_ns_per_event"] = {ratio(self_ns, events), "ns"};
  out.per_layer["sim.self_share"] = {ratio(self_ns, wall_ns), "fraction"};
  out.per_layer["sim.schedule_p50_us"] = {
      registry_quantile_us(*snap, "resmatch_sim_schedule_seconds", 50.0), "us"};
  out.per_layer["sim.schedule_p99_us"] = {
      registry_quantile_us(*snap, "resmatch_sim_schedule_seconds", 99.0), "us"};
  out.per_layer["bench.trace_overhead"] = {
      ratio(untraced_rate, events / traced->cpu_s) - 1.0, "fraction"};
}

// --- sim-stream-fcfs ------------------------------------------------------

struct StreamInputs {
  std::unique_ptr<trace::Cm5JobStream> stream;
  sim::ClusterSpec spec;
};

/// The micro_core --scale model: the full CM5 calibration scaled to the
/// population, four capacity classes of equal size.
StreamInputs make_stream_inputs(const RunOptions& options) {
  const std::size_t jobs = options.tiny ? 20000 : 1000000;
  const std::size_t machines = jobs / 10;
  trace::Cm5ModelConfig cfg;
  cfg.seed = kTraceSeed;
  cfg.job_count = jobs;
  cfg.group_count = std::max<std::size_t>(64, jobs / 12);
  cfg.user_count = std::max<std::size_t>(8, jobs / 600);
  cfg.nominal_machines = machines;
  cfg.nominal_load = 0.9;
  StreamInputs in;
  in.stream = std::make_unique<trace::Cm5JobStream>(cfg);
  const std::size_t per_pool = machines / 4;
  in.spec = {{32.0, per_pool}, {24.0, per_pool}, {16.0, per_pool},
             {8.0, per_pool}};
  return in;
}

SimRun run_stream_once(StreamInputs& in, const RunOptions& options,
                       SpanLog* log, obs::Registry* registry) {
  in.stream->reset();
  const auto estimator = core::make_estimator("successive-approximation");
  const auto policy = sched::make_policy("fcfs");
  sim::SimulationConfig cfg;
  cfg.seed = options.seed;
  cfg.explicit_feedback = true;
  cfg.metrics = registry;

  SimRun run;
  if (log == nullptr) {
    time_simulation(run, [&] {
      run.result = sim::simulate(*in.stream, in.spec, *estimator, *policy, cfg);
    });
  } else {
    TracingStream stream(*in.stream, *log);
    TracingEstimator est(*estimator, *log, options.perturb);
    TracingPolicy pol(*policy, *log);
    log->begin_root();
    const double c0 = thread_cpu_seconds();
    const std::int64_t t0 = now_ns();
    run.result = sim::simulate(stream, in.spec, est, pol, cfg);
    const std::int64_t t1 = now_ns();
    log->end_root(Layer::kSimRun, t0, t1);
    run.wall_s = static_cast<double>(t1 - t0) * 1e-9;
    run.cpu_s = thread_cpu_seconds() - c0;
  }
  run.digest = digest_of(run.result);
  return run;
}

// --- sim-mr-backfill ------------------------------------------------------

struct MrInputs {
  trace::ScenarioWorkload scenario;
  sim::ClusterSpec spec;
};

MrInputs make_mr_inputs(const RunOptions& options) {
  MrInputs in;
  in.scenario = exp::make_scenario("cloud-diurnal", kTraceSeed,
                                   options.tiny ? 4000 : 300000);
  // Compress arrivals so a queue forms; x0.4 grows it without bound.
  in.scenario.base = trace::scale_arrivals(std::move(in.scenario.base), 0.8);
  in.spec = exp::scenario_cluster(3);
  return in;
}

SimRun run_mr_once(const MrInputs& in, const RunOptions& options, SpanLog* log,
                   obs::Registry* registry) {
  core::VectorEstimatorConfig est_cfg;
  est_cfg.dims = 3;
  est_cfg.estimator = "successive-approximation";
  core::VectorEstimator estimator(est_cfg);
  const auto policy = sched::make_policy("easy-backfill");
  sim::MrSimulationConfig cfg;
  cfg.dims = 3;
  cfg.base.seed = options.seed;
  cfg.base.explicit_feedback = true;
  cfg.base.metrics = registry;

  SimRun run;
  if (log == nullptr) {
    time_simulation(run, [&] {
      run.mr = sim::simulate_mr(in.scenario, in.spec, estimator, *policy, cfg);
    });
  } else {
    TracingPolicy pol(*policy, *log);
    log->begin_root();
    const double c0 = thread_cpu_seconds();
    const std::int64_t t0 = now_ns();
    run.mr = sim::simulate_mr(in.scenario, in.spec, estimator, pol, cfg);
    const std::int64_t t1 = now_ns();
    log->end_root(Layer::kSimRun, t0, t1);
    run.wall_s = static_cast<double>(t1 - t0) * 1e-9;
    run.cpu_s = thread_cpu_seconds() - c0;
  }
  run.result = run.mr.base;
  Digest d;
  d.add(digest_of(run.result));
  for (const std::size_t k : run.mr.kills_by_dim) d.add(k);
  d.add(run.mr.midjob_kills);
  d.add(run.mr.mean_kill_progress);
  run.digest = d.value();
  return run;
}

/// The shared run shape: untraced repeats for the budget (half of it in
/// trace mode), each building its inputs afresh, then one traced run with
/// spans and the engine's registry attached. Setting up inside every
/// repeat spreads the set-up samples over the whole run, as the
/// simulations are: the machine's speed drifts over seconds, and set-ups
/// timed back to back at the start all land in one phase of it.
template <typename Setup, typename Once>
WorkloadResult run_sim_workload(const RunOptions& options, Setup&& setup,
                                Once&& once) {
  decltype(setup()) inputs;
  std::vector<double> setup_times;
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  const std::vector<SimRun> runs = repeat_for(budget, 3, [&] {
    inputs = {};  // never hold two copies: peak RSS is the program's own
    const auto t0 = Clock::now();
    inputs = setup();
    setup_times.push_back(seconds_since(t0));
    return once(inputs, nullptr, nullptr);
  });
  const Metric setup_s{median(setup_times), "s", setup_times.size()};

  WorkloadResult out;
  if (!options.trace) {
    report_sim(runs, setup_s, nullptr, nullptr, nullptr, 0.0, out);
    return out;
  }
  std::vector<double> rates;
  for (const SimRun& run : runs) rates.push_back(run.events() / run.cpu_s);
  SpanLog log;
  obs::Registry registry;
  const SimRun traced = once(inputs, &log, &registry);
  const obs::MetricsSnapshot snap = registry.snapshot();
  report_sim(runs, setup_s, &traced, &log, &snap, median(rates), out);
  out.check(log.write(options.work_dir + "/spans.tsv"),
            "cannot write the span dump");
  return out;
}

}  // namespace

WorkloadResult run_sim_stream_fcfs(const RunOptions& options) {
  std::uint64_t next_calls = 0;
  std::size_t submitted = 0;
  std::size_t resource_failures = 0;
  WorkloadResult out = run_sim_workload(
      options, [&] { return make_stream_inputs(options); },
      [&](StreamInputs& in, SpanLog* log, obs::Registry* registry) {
        SimRun run = run_stream_once(in, options, log, registry);
        resource_failures = run.result.resource_failures;
        if (log != nullptr) {
          next_calls = log->totals(Layer::kTraceNext).calls;
          submitted = run.result.submitted;
        }
        return run;
      });
  if (options.trace) {
    out.check(next_calls == submitted + 1,
              "conservation: stream next() calls != jobs + 1");
  }
  out.per_layer["core.kills_mem"] = {static_cast<double>(resource_failures),
                                     "count"};
  return out;
}

WorkloadResult run_sim_mr_backfill(const RunOptions& options) {
  sim::MrSimulationResult mr;
  WorkloadResult out = run_sim_workload(
      options, [&] { return make_mr_inputs(options); },
      [&](const MrInputs& in, SpanLog* log, obs::Registry* registry) {
        SimRun run = run_mr_once(in, options, log, registry);
        mr = run.mr;
        return run;
      });
  const char* const kill_names[] = {"core.kills_mem", "core.kills_cpu",
                                    "core.kills_gpu"};
  for (std::size_t d = 0; d < 3; ++d) {
    out.per_layer[kill_names[d]] = {static_cast<double>(mr.kills_by_dim[d]),
                                    "count"};
  }
  out.per_layer["core.midjob_kills"] = {static_cast<double>(mr.midjob_kills),
                                        "count"};
  return out;
}

}  // namespace perfbench
