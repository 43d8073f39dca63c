// Scenario-diversity sweep: run every workload-catalog scenario
// (SCENARIOS.md) through the multi-resource engine across an estimator
// grid.
//
// Flags (util::CliArgs; unknown options are an error):
//   --scenario=all|NAME   scenarios to run (default all synthetic models)
//   --estimators=a,b,c    estimator arms (default none,successive-
//                         approximation,quantile)
//   --dims=N              resource dimensions to pack (default 3)
//   --trace-jobs=N        jobs per generated scenario (default 2000)
//   --jobs=N              sweep workers (0 = hardware concurrency)
//   --seed=S --sim-seed=S workload / simulator seeds
//   --policy=NAME         scheduling policy (default fcfs)
//   --csv=PATH            CSV dump of the sweep rows
//   --metrics-out=PATH    schema-v1 BENCH_scenarios.json record
//   --swf=PATH            also replay an SWF trace through the
//                         stream-factory sweep (one stream per arm)
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/scenarios.hpp"
#include "obs/bench_record.hpp"
#include "obs/metrics.hpp"
#include "sim/mr_simulator.hpp"
#include "trace/job_stream.hpp"
#include "trace/scenario.hpp"
#include "util/cli.hpp"

namespace {

using namespace resmatch;

std::vector<std::string> split_csv(const std::string& value) {
  std::vector<std::string> out;
  std::string item;
  for (const char c : value) {
    if (c == ',') {
      if (!item.empty()) out.push_back(item);
      item.clear();
    } else {
      item += c;
    }
  }
  if (!item.empty()) out.push_back(item);
  return out;
}

std::string underscored(std::string name) {
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs cli(argc, argv);
  const std::string scenario_arg = cli.get("scenario", std::string("all"));
  const std::vector<std::string> estimators = split_csv(cli.get(
      "estimators", std::string("none,successive-approximation,quantile")));
  const auto dims =
      static_cast<std::size_t>(cli.get("dims", static_cast<std::int64_t>(3)));
  const auto trace_jobs = static_cast<std::size_t>(
      cli.get("trace-jobs", static_cast<std::int64_t>(2000)));
  const auto jobs =
      static_cast<std::size_t>(cli.get("jobs", static_cast<std::int64_t>(0)));
  const auto seed = static_cast<std::uint64_t>(
      cli.get("seed", static_cast<std::int64_t>(42)));
  const auto sim_seed = static_cast<std::uint64_t>(
      cli.get("sim-seed", static_cast<std::int64_t>(7)));
  const std::string policy = cli.get("policy", std::string("fcfs"));
  const std::string csv = cli.get("csv", std::string{});
  const std::string metrics_out = cli.get("metrics-out", std::string{});
  const std::string swf = cli.get("swf", std::string{});
  if (!cli.unused().empty()) {
    for (const auto& key : cli.unused()) {
      std::fprintf(stderr, "error: unknown option --%s\n", key.c_str());
    }
    std::fprintf(stderr,
                 "known options: --scenario --estimators --dims --trace-jobs "
                 "--jobs --seed --sim-seed --policy --csv --metrics-out "
                 "--swf\n");
    return 2;
  }

  std::vector<std::string> scenarios;
  if (scenario_arg == "all") {
    scenarios = exp::scenario_names();
  } else {
    scenarios = split_csv(scenario_arg);
  }

  obs::Registry registry;
  exp::ScenarioRunConfig config;
  config.dims = dims;
  config.policy = policy;
  config.sim.seed = sim_seed;
  config.job_count = trace_jobs;
  config.trace_seed = seed;

  exp::RunnerOptions runner;
  runner.jobs = jobs;
  runner.metrics = &registry;

  const exp::ScenarioSweep sweep =
      exp::scenario_sweep(scenarios, estimators, config, runner);
  for (const auto& err : sweep.errors) {
    std::fprintf(stderr, "error: task %zu failed: %s\n", err.index,
                 err.message.c_str());
  }

  std::printf(
      "%-14s %-26s dims  kills(mem/cpu/gpu) midjob  kill-rate  util\n",
      "scenario", "estimator");
  for (const auto& row : sweep.rows) {
    std::printf("%-14s %-26s %4zu  %6zu/%4zu/%4zu %6zu  %9.4f  %.4f\n",
                row.scenario.c_str(), row.estimator.c_str(), row.dims,
                row.result.kills_by_dim[kDimMem],
                row.result.kills_by_dim[kDimCpu],
                row.result.kills_by_dim[kDimGpu], row.result.midjob_kills,
                row.kill_rate(), row.result.base.utilization);
  }
  if (!csv.empty()) exp::write_scenario_csv(csv, sweep);

  // SWF replay through the stream-factory sweep: each arm gets its own
  // file cursor, so parallel workers never interleave reads.
  std::size_t swf_rows = 0;
  std::size_t swf_failed = 0;
  if (!swf.empty()) {
    std::vector<exp::RunSpec> specs;
    for (const auto& estimator : estimators) {
      exp::RunSpec spec;
      spec.estimator = estimator;
      spec.policy = policy;
      spec.sim.seed = sim_seed;
      specs.push_back(spec);
    }
    const exp::StreamFactory factory = [&swf] {
      return std::unique_ptr<trace::JobStream>(
          std::make_unique<trace::SwfJobStream>(swf));
    };
    const auto swf_sweep =
        exp::run_specs(factory, exp::scenario_cluster(1), specs, runner);
    for (std::size_t i = 0; i < swf_sweep.results.size(); ++i) {
      if (!swf_sweep.results[i]) continue;
      ++swf_rows;
      std::printf("swf            %-26s       util %.4f  completed %zu\n",
                  specs[i].estimator.c_str(),
                  swf_sweep.results[i]->utilization,
                  swf_sweep.results[i]->completed);
    }
    swf_failed = swf_sweep.errors.size();
    for (const auto& err : swf_sweep.errors) {
      std::fprintf(stderr, "error: swf arm %zu failed: %s\n", err.index,
                   err.message.c_str());
    }
  }

  if (!metrics_out.empty()) {
    obs::BenchRecord record("scenarios");
    record.config("scenario", scenario_arg);
    record.config("dims", static_cast<std::int64_t>(dims));
    record.config("trace_jobs", static_cast<std::int64_t>(trace_jobs));
    record.config("jobs", static_cast<std::int64_t>(sweep.stats.jobs));
    record.config("seed", static_cast<std::int64_t>(seed));
    record.config("sim_seed", static_cast<std::int64_t>(sim_seed));
    record.config("policy", policy);
    record.summary("rows_total", static_cast<double>(sweep.rows.size()));
    record.summary("failed_runs", static_cast<double>(sweep.stats.failed));
    std::size_t midjob = 0;
    for (const auto& row : sweep.rows) midjob += row.result.midjob_kills;
    record.summary("midjob_kills_total", static_cast<double>(midjob));
    if (!swf.empty()) {
      record.summary("swf_rows", static_cast<double>(swf_rows));
    }
    for (const auto& scenario : scenarios) {
      std::uint64_t attempts = 0, kills = 0;
      for (const auto& row : sweep.rows) {
        if (row.scenario != scenario) continue;
        attempts += row.result.base.attempts;
        kills += row.result.base.resource_failures;
      }
      record.summary("kill_rate_" + underscored(scenario),
                     attempts > 0 ? static_cast<double>(kills) /
                                        static_cast<double>(attempts)
                                  : 0.0);
    }
    record.metrics(registry.snapshot());
    if (!record.write(metrics_out)) {
      std::fprintf(stderr, "warning: could not write %s\n",
                   metrics_out.c_str());
      return 1;
    }
  }
  return (sweep.errors.empty() && swf_failed == 0) ? 0 : 1;
}
