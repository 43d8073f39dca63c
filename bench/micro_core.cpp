// Micro-benchmarks (google-benchmark) for the hot paths: estimator
// estimate/feedback cycles, cluster allocation, ClassAd evaluation, and
// synthetic trace generation throughput — plus an end-to-end simulator
// benchmark (events/sec, schedule-pass p95).
//
// Extra flags (in addition to the google-benchmark ones):
//   --sim-only          run only the end-to-end simulator benchmark
//   --sim-jobs=N        trace size for the simulator benchmark (def. 3000)
//   --metrics-out=PATH  write a schema-v1 BENCH_sim.json record
//   --scale             run ONLY the cluster-scale comparison:
//                       materialized vs streamed traces, each arm in a
//                       forked child so peak RSS is per-arm, with a hard
//                       internal byte-equivalence gate across the arms
//   --scale-jobs=N      trace size for --scale (default 200000)
//   --scale-machines=N  cluster size for --scale (default 100000)
#include <benchmark/benchmark.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "match/classad.hpp"
#include "obs/bench_record.hpp"
#include "obs/metrics.hpp"
#include "sched/factory.hpp"
#include "sim/cluster.hpp"
#include "sim/simulator.hpp"
#include "sim/timeseries.hpp"
#include "trace/cm5_model.hpp"
#include "trace/job_stream.hpp"
#include "trace/transforms.hpp"

namespace {

using namespace resmatch;

trace::JobRecord bench_job(std::uint64_t i) {
  trace::JobRecord j;
  j.id = i;
  j.user = static_cast<UserId>(i % 200);
  j.app = static_cast<AppId>(i % 17);
  j.requested_mem_mib = 32.0;
  j.used_mem_mib = 5.0;
  j.nodes = 32;
  j.runtime = 100;
  return j;
}

void BM_SuccessiveApproxCycle(benchmark::State& state) {
  auto est = core::make_estimator("successive-approximation");
  est->set_ladder(core::CapacityLadder({1, 2, 4, 8, 16, 32}));
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto job = bench_job(i++ % 1000);
    const MiB grant = est->estimate(job, {});
    core::Feedback fb;
    fb.success = grant >= job.used_mem_mib;
    fb.granted_mib = grant;
    est->feedback(job, fb);
    benchmark::DoNotOptimize(grant);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SuccessiveApproxCycle);

void BM_RlEstimatorCycle(benchmark::State& state) {
  auto est = core::make_estimator("reinforcement-learning");
  est->set_ladder(core::CapacityLadder({1, 2, 4, 8, 16, 32}));
  core::SystemState sys;
  sys.busy_fraction = 0.5;
  sys.queue_length = 8;
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto job = bench_job(i++);
    const MiB grant = est->estimate(job, sys);
    core::Feedback fb;
    fb.success = grant >= job.used_mem_mib;
    fb.granted_mib = grant;
    est->feedback(job, fb);
    benchmark::DoNotOptimize(grant);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RlEstimatorCycle);

void BM_ClusterAllocateRelease(benchmark::State& state) {
  sim::Cluster cluster(sim::cm5_heterogeneous(24.0));
  for (auto _ : state) {
    auto alloc = cluster.allocate(32, 24.0);
    benchmark::DoNotOptimize(alloc);
    if (alloc) cluster.release(*alloc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClusterAllocateRelease);

void BM_ClassAdMatch(benchmark::State& state) {
  match::ClassAd job, machine;
  job.set("req_memory", 16.0);
  job.set_expr("requirements", "other.memory >= my.req_memory");
  job.set_expr("rank", "other.memory - my.req_memory");
  machine.set("memory", 32.0);
  machine.set_expr("requirements", "other.req_memory <= 64");
  for (auto _ : state) {
    const auto result = match::match_ads(job, machine);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClassAdMatch);

void BM_TraceGeneration(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto workload = trace::generate_cm5_small(7, jobs);
    benchmark::DoNotOptimize(workload.jobs.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_TraceGeneration)->Arg(1000)->Arg(10000);

// --- end-to-end simulator benchmark -------------------------------------

struct SimBench {
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  double schedule_p95_us = 0.0;
  std::uint64_t events = 0;
  sim::SimulationResult result;
};

/// One full simulation at load on a 4x scaled-up paper cluster (4096
/// machines, ~300 concurrent jobs): large enough that the running-set and
/// per-pool bookkeeping the optimizations target actually dominates. The
/// event count is exact: every arrival is one event, every start pushes
/// exactly one job-end event, and this setup schedules no availability
/// changes — so events = submitted + attempts.
SimBench run_sim_bench(std::size_t trace_jobs) {
  trace::Workload w = trace::generate_cm5_small(11, trace_jobs);
  w = trace::drop_wide_jobs(std::move(w), 4096);
  w = trace::scale_to_load(std::move(w), 4096, 0.95);
  w = trace::sort_by_submit(std::move(w));

  obs::Registry registry;
  const auto estimator = core::make_estimator("successive-approximation");
  const auto policy = sched::make_policy("fcfs");
  sim::TimeSeries ts(50.0);
  sim::SimulationConfig cfg;
  cfg.seed = 7;
  cfg.explicit_feedback = true;
  cfg.timeseries = &ts;
  cfg.metrics = &registry;

  SimBench out;
  const auto start = std::chrono::steady_clock::now();
  out.result = sim::simulate(w, sim::cm5_heterogeneous(24.0, 2048),
                             *estimator, *policy, cfg);
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.events = static_cast<std::uint64_t>(out.result.submitted) +
               static_cast<std::uint64_t>(out.result.attempts);
  out.events_per_sec = out.wall_seconds > 0.0
                           ? static_cast<double>(out.events) / out.wall_seconds
                           : 0.0;
  const auto snap = registry.snapshot();
  if (const auto* hist = snap.find("resmatch_sim_schedule_seconds")) {
    out.schedule_p95_us = hist->histogram.percentile(95.0) * 1e6;
  }
  return out;
}

/// Best-of-N: a single run lasts milliseconds, so one descheduling blip
/// can swamp it; the fastest repetition is the standard noise-robust
/// estimate of the engine's actual cost.
SimBench run_sim_bench_best(std::size_t trace_jobs, int reps = 5) {
  SimBench best = run_sim_bench(trace_jobs);
  for (int i = 1; i < reps; ++i) {
    SimBench next = run_sim_bench(trace_jobs);
    if (next.wall_seconds < best.wall_seconds) best = std::move(next);
  }
  return best;
}

void print_sim_row(const char* engine, std::size_t jobs, const SimBench& b) {
  std::printf("%-10s  %8zu  %10llu  %8.3f  %12.0f  %14.2f\n", engine, jobs,
              static_cast<unsigned long long>(b.events), b.wall_seconds,
              b.events_per_sec, b.schedule_p95_us);
}

int run_sim_section(std::size_t sim_jobs, const std::string& metrics_out) {
  std::printf("== simulator end-to-end (fcfs + successive-approximation, "
              "4096 machines) ==\n");
  std::printf("%-10s  %8s  %10s  %8s  %12s  %14s\n", "engine", "jobs",
              "events", "wall s", "events/s", "sched p95 us");

  obs::BenchRecord record("micro_core_sim");
  record.config("sim_jobs", static_cast<std::int64_t>(sim_jobs));
  record.config("policy", "fcfs");
  record.config("estimator", "successive-approximation");
  record.config("machines", static_cast<std::int64_t>(4096));

  const SimBench best = run_sim_bench_best(sim_jobs);
  print_sim_row("sim", sim_jobs, best);
  record.summary("events_total", static_cast<double>(best.events));
  record.summary("wall_seconds", best.wall_seconds);
  record.summary("events_per_sec", best.events_per_sec);
  record.summary("schedule_p95_us", best.schedule_p95_us);
  if (!metrics_out.empty()) {
    if (!record.write(metrics_out)) {
      std::fprintf(stderr, "warning: could not write %s\n",
                   metrics_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", metrics_out.c_str());
  }
  return 0;
}

// --- cluster-scale comparison -------------------------------------------
//
// Two arms over one scenario, each in a forked child so the parent can
// read the child's peak RSS from wait4() (process-wide peaks are sticky,
// so arms sharing a process would both report the larger one):
//
//   calendar   materialized trace
//   streamed   on-the-fly CM5 generation, O(jobs in flight) memory
//
// Both arms must produce a byte-identical result digest; a mismatch is a
// hard failure, making this bench double as the cluster-scale
// determinism gate CI runs at reduced size.

/// Result digest + timing shipped from the forked child over a pipe.
/// Integers exact; doubles compared bitwise (same decisions => same
/// arithmetic, process boundaries notwithstanding).
struct ScaleWire {
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t completed = 0;
  std::uint64_t attempts = 0;
  std::uint64_t resource_failures = 0;
  std::uint64_t dropped_unschedulable = 0;
  std::uint64_t dropped_attempt_cap = 0;
  std::uint64_t lowered_starts = 0;
  double utilization = 0.0;
  double makespan = 0.0;
  double mean_wait = 0.0;
  double mean_slowdown = 0.0;

  [[nodiscard]] bool same_digest(const ScaleWire& o) const {
    return completed == o.completed && attempts == o.attempts &&
           resource_failures == o.resource_failures &&
           dropped_unschedulable == o.dropped_unschedulable &&
           dropped_attempt_cap == o.dropped_attempt_cap &&
           lowered_starts == o.lowered_starts &&
           utilization == o.utilization && makespan == o.makespan &&
           mean_wait == o.mean_wait && mean_slowdown == o.mean_slowdown;
  }
};

enum class ScaleArm { kCalendar, kStreamed };

const char* scale_arm_name(ScaleArm arm) {
  return arm == ScaleArm::kCalendar ? "calendar" : "streamed";
}

/// The full CM5 calibration scaled to the requested population. Few
/// capacity classes on purpose: pool integration is O(#pools) per event,
/// and burying the event loop under a huge pool scan would measure the
/// wrong thing.
trace::Cm5ModelConfig scale_model(std::size_t jobs, std::size_t machines) {
  trace::Cm5ModelConfig cfg;
  cfg.seed = 11;
  cfg.job_count = jobs;
  cfg.group_count = std::max<std::size_t>(64, jobs / 12);
  cfg.user_count = std::max<std::size_t>(8, jobs / 600);
  cfg.nominal_machines = machines;
  cfg.nominal_load = 0.9;
  return cfg;
}

sim::ClusterSpec scale_cluster(std::size_t machines) {
  const std::size_t per_pool = std::max<std::size_t>(1, machines / 4);
  return {{32.0, per_pool}, {24.0, per_pool}, {16.0, per_pool},
          {8.0, per_pool}};
}

ScaleWire run_scale_arm(std::size_t jobs, std::size_t machines,
                        ScaleArm arm) {
  const trace::Cm5ModelConfig model = scale_model(jobs, machines);
  const sim::ClusterSpec spec = scale_cluster(machines);
  const auto estimator = core::make_estimator("successive-approximation");
  const auto policy = sched::make_policy("fcfs");
  sim::SimulationConfig cfg;
  cfg.seed = 7;
  cfg.explicit_feedback = true;

  // Trace acquisition stays OUTSIDE the timer for both arms (the
  // streamed arm's stream constructor is its generation pass); the
  // timed region is simulate() alone. Peak RSS covers the whole child —
  // the materialized arm pays for the vector, the streamed arm doesn't,
  // which is exactly the memory claim this bench records.
  sim::SimulationResult result;
  double wall = 0.0;
  if (arm == ScaleArm::kStreamed) {
    trace::Cm5JobStream stream(model);
    const auto start = std::chrono::steady_clock::now();
    result = sim::simulate(stream, spec, *estimator, *policy, cfg);
    wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count();
  } else {
    const trace::Workload w = trace::generate_cm5(model);
    const auto start = std::chrono::steady_clock::now();
    result = sim::simulate(w, spec, *estimator, *policy, cfg);
    wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count();
  }

  ScaleWire wire;
  wire.wall_seconds = wall;
  // Exact event count: one event per arrival, one per attempt's end (this
  // scenario schedules no availability changes).
  wire.events = static_cast<std::uint64_t>(result.submitted) +
                static_cast<std::uint64_t>(result.attempts);
  wire.completed = result.completed;
  wire.attempts = result.attempts;
  wire.resource_failures = result.resource_failures;
  wire.dropped_unschedulable = result.dropped_unschedulable;
  wire.dropped_attempt_cap = result.dropped_attempt_cap;
  wire.lowered_starts = result.lowered_starts;
  wire.utilization = result.utilization;
  wire.makespan = result.makespan;
  wire.mean_wait = result.mean_wait;
  wire.mean_slowdown = result.mean_slowdown;
  return wire;
}

bool run_scale_arm_forked(std::size_t jobs, std::size_t machines,
                          ScaleArm arm, ScaleWire* out,
                          double* peak_rss_mib) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    const ScaleWire wire = run_scale_arm(jobs, machines, arm);
    const ssize_t n = write(fds[1], &wire, sizeof wire);
    _exit(n == static_cast<ssize_t>(sizeof wire) ? 0 : 3);
  }
  close(fds[1]);
  ScaleWire wire;
  std::size_t got = 0;
  while (got < sizeof wire) {
    const ssize_t n = read(fds[0], reinterpret_cast<char*>(&wire) + got,
                           sizeof wire - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  struct rusage ru {};
  if (wait4(pid, &status, 0, &ru) != pid) return false;
  if (got != sizeof wire || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return false;
  }
  *out = wire;
  *peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
  return true;
}

int run_scale_section(std::size_t jobs, std::size_t machines,
                      const std::string& metrics_out) {
  std::printf("== cluster-scale simulation (fcfs + successive-approximation, "
              "%zu machines, %zu jobs) ==\n",
              machines, jobs);
  std::printf("%-10s  %10s  %8s  %12s  %12s\n", "arm", "events", "wall s",
              "events/s", "peak MiB");

  constexpr ScaleArm kArms[] = {ScaleArm::kCalendar, ScaleArm::kStreamed};
  constexpr std::size_t kArmCount = std::size(kArms);
  ScaleWire wires[kArmCount];
  double rss[kArmCount] = {};
  double eps[kArmCount] = {};
  for (std::size_t i = 0; i < kArmCount; ++i) {
    if (!run_scale_arm_forked(jobs, machines, kArms[i], &wires[i],
                              &rss[i])) {
      std::fprintf(stderr, "error: scale arm '%s' failed\n",
                   scale_arm_name(kArms[i]));
      return 1;
    }
    eps[i] = wires[i].wall_seconds > 0.0
                 ? static_cast<double>(wires[i].events) /
                       wires[i].wall_seconds
                 : 0.0;
    std::printf("%-10s  %10llu  %8.3f  %12.0f  %12.1f\n",
                scale_arm_name(kArms[i]),
                static_cast<unsigned long long>(wires[i].events),
                wires[i].wall_seconds, eps[i], rss[i]);
  }

  for (std::size_t i = 1; i < kArmCount; ++i) {
    if (!wires[0].same_digest(wires[i])) {
      std::fprintf(stderr,
                   "error: arm '%s' diverged from '%s' (completed %llu vs "
                   "%llu) — cluster-scale determinism is broken\n",
                   scale_arm_name(kArms[i]), scale_arm_name(kArms[0]),
                   static_cast<unsigned long long>(wires[i].completed),
                   static_cast<unsigned long long>(wires[0].completed));
      return 1;
    }
  }
  const double rss_ratio = rss[0] > 0.0 ? rss[1] / rss[0] : 0.0;
  std::printf("streamed peak RSS %.2fx of materialized (arms "
              "byte-identical)\n",
              rss_ratio);

  if (!metrics_out.empty()) {
    obs::BenchRecord record("micro_core_scale");
    record.config("scale_jobs", static_cast<std::int64_t>(jobs));
    record.config("scale_machines", static_cast<std::int64_t>(machines));
    record.config("policy", "fcfs");
    record.config("estimator", "successive-approximation");
    record.summary("events_total", static_cast<double>(wires[0].events));
    record.summary("events_per_sec_calendar", eps[0]);
    record.summary("events_per_sec_streamed", eps[1]);
    record.summary("peak_rss_mib_calendar", rss[0]);
    record.summary("peak_rss_mib_streamed", rss[1]);
    record.summary("rss_ratio_streamed_vs_materialized", rss_ratio);
    record.summary("equivalence_ok", 1.0);
    if (!record.write(metrics_out)) {
      std::fprintf(stderr, "warning: could not write %s\n",
                   metrics_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", metrics_out.c_str());
  }
  return 0;
}

}  // namespace

// Custom main: peel off the repo-specific flags, hand the rest to
// google-benchmark (BENCHMARK_MAIN would reject them).
int main(int argc, char** argv) {
  bool sim_only = false;
  bool scale = false;
  std::size_t sim_jobs = 3000;
  std::size_t scale_jobs = 200000;
  std::size_t scale_machines = 100000;
  std::string metrics_out;

  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sim-only") {
      sim_only = true;
    } else if (arg == "--scale") {
      scale = true;
    } else if (arg.rfind("--sim-jobs=", 0) == 0) {
      sim_jobs = static_cast<std::size_t>(
          std::strtoull(arg.c_str() + std::strlen("--sim-jobs="), nullptr, 10));
    } else if (arg.rfind("--scale-jobs=", 0) == 0) {
      scale_jobs = static_cast<std::size_t>(std::strtoull(
          arg.c_str() + std::strlen("--scale-jobs="), nullptr, 10));
    } else if (arg.rfind("--scale-machines=", 0) == 0) {
      scale_machines = static_cast<std::size_t>(std::strtoull(
          arg.c_str() + std::strlen("--scale-machines="), nullptr, 10));
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(std::strlen("--metrics-out="));
    } else {
      passthrough.push_back(argv[i]);
    }
  }

  if (scale) {
    return run_scale_section(scale_jobs, scale_machines, metrics_out);
  }

  if (!sim_only) {
    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               passthrough.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return run_sim_section(sim_jobs, metrics_out);
}
