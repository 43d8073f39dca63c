#include "exp/scenarios.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "core/multi_resource.hpp"
#include "obs/metrics.hpp"
#include "sched/factory.hpp"
#include "trace/adversarial.hpp"
#include "trace/cloud_model.hpp"
#include "trace/cm5_model.hpp"
#include "trace/flash_crowd.hpp"
#include "trace/transforms.hpp"

namespace resmatch::exp {

namespace {

// The docs-lint ground truth: scripts/check_scenarios_docs.py greps this
// initializer and requires every name to appear in SCENARIOS.md. Keep one
// name per line.
const char* const kTraceModelNames[] = {
    "cm5",
    "swf",
    "cloud-diurnal",
    "flash-crowd",
    "adversarial",
};

}  // namespace

const std::vector<std::string>& trace_model_names() {
  static const std::vector<std::string> names(std::begin(kTraceModelNames),
                                              std::end(kTraceModelNames));
  return names;
}

std::vector<std::string> scenario_names() {
  std::vector<std::string> out;
  for (const auto& name : trace_model_names()) {
    if (name != "swf") out.push_back(name);
  }
  return out;
}

trace::ScenarioWorkload make_scenario(const std::string& name,
                                      std::uint64_t seed,
                                      std::size_t job_count) {
  if (name == "cm5") {
    return trace::scenario_from(
        trace::sort_by_submit(trace::generate_cm5_small(seed, job_count)));
  }
  if (name == "cloud-diurnal") {
    trace::CloudModelConfig cfg;
    cfg.seed = seed;
    cfg.job_count = job_count;
    return trace::generate_cloud(cfg);
  }
  if (name == "flash-crowd") {
    trace::FlashCrowdConfig cfg;
    cfg.seed = seed;
    cfg.job_count = job_count;
    return trace::generate_flash_crowd(cfg);
  }
  if (name == "adversarial") {
    trace::AdversarialConfig cfg;
    cfg.seed = seed;
    cfg.job_count = job_count;
    return trace::generate_adversarial(cfg);
  }
  throw std::invalid_argument("make_scenario: unknown scenario " + name);
}

sim::ClusterSpec scenario_cluster(std::size_t dims) {
  if (dims <= 1) return sim::cm5_heterogeneous(24.0, 128);
  // Three capacity classes spanning the scenario generators' request
  // grids: a GPU-less small pool, a mid pool with a couple of GPUs, and
  // a big-memory/high-core GPU pool.
  return {{16.0, 128, 4.0, 0.0}, {24.0, 128, 8.0, 2.0}, {32.0, 64, 16.0, 4.0}};
}

ScenarioSweep scenario_sweep(const std::vector<std::string>& scenarios,
                             const std::vector<std::string>& estimators,
                             const ScenarioRunConfig& config,
                             const RunnerOptions& runner) {
  // Workload generation is serial and shared: every arm of a scenario
  // replays the identical trace (read-only during the fan-out).
  std::vector<trace::ScenarioWorkload> workloads;
  workloads.reserve(scenarios.size());
  for (const auto& name : scenarios) {
    workloads.push_back(
        make_scenario(name, config.trace_seed, config.job_count));
  }

  const std::size_t n_est = estimators.size();
  auto sweep = run_tasks(
      scenarios.size() * n_est,
      [&](std::size_t t) {
        const std::size_t s = t / n_est;
        const trace::ScenarioWorkload& scenario = workloads[s];

        sim::MrSimulationConfig cfg;
        cfg.base = config.sim;
        // Arms of one scenario share the seed so estimators stay paired.
        cfg.base.seed = derive_seed(config.sim.seed, s);
        if (core::requires_explicit_feedback(estimators[t % n_est])) {
          cfg.base.explicit_feedback = true;
        }
        cfg.dims = std::min(std::max<std::size_t>(config.dims, 1),
                            scenario.dims);

        core::VectorEstimatorConfig est_cfg;
        est_cfg.dims = cfg.dims;
        est_cfg.estimator = estimators[t % n_est];
        est_cfg.options = config.options;
        core::VectorEstimator estimator(est_cfg);
        auto policy = sched::make_policy(config.policy);

        ScenarioRow row;
        row.scenario = scenarios[s];
        row.estimator = estimators[t % n_est];
        row.dims = cfg.dims;
        row.result = sim::simulate_mr(scenario, scenario_cluster(cfg.dims),
                                      estimator, *policy, cfg);
        return row;
      },
      runner);

  ScenarioSweep out;
  out.errors = std::move(sweep.errors);
  out.stats = sweep.stats;
  out.rows.reserve(sweep.results.size());
  for (auto& row : sweep.results) {
    if (row) out.rows.push_back(std::move(*row));
  }

  if (runner.metrics) {
    runner.metrics
        ->counter("resmatch_scenario_sweeps_total",
                  "Scenario sweeps completed")
        .inc();
    runner.metrics
        ->gauge("resmatch_scenario_rows",
                "Rows produced by the last scenario sweep")
        .set(static_cast<double>(out.rows.size()));
    std::uint64_t attempts = 0, kills = 0;
    for (const auto& row : out.rows) {
      attempts += row.result.base.attempts;
      kills += row.result.base.resource_failures;
    }
    runner.metrics
        ->gauge("resmatch_scenario_kill_rate",
                "Resource kills / attempts across the last scenario sweep")
        .set(attempts > 0
                 ? static_cast<double>(kills) / static_cast<double>(attempts)
                 : 0.0);
  }
  return out;
}

void write_scenario_csv(const std::string& path, const ScenarioSweep& sweep) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("write_scenario_csv: cannot open " + path);
  }
  out << "scenario,estimator,dims,submitted,completed,attempts,"
         "resource_failures,kills_mem,kills_cpu,kills_gpu,midjob_kills,"
         "mean_kill_progress,utilization,mean_slowdown,"
         "mean_bounded_slowdown,mean_wait,"
         "lowered_starts,benefiting_jobs,dropped_unschedulable\n";
  out << std::setprecision(17);
  for (const auto& row : sweep.rows) {
    const auto& r = row.result;
    out << row.scenario << ',' << row.estimator << ',' << row.dims << ','
        << r.base.submitted << ',' << r.base.completed << ','
        << r.base.attempts << ',' << r.base.resource_failures << ','
        << r.kills_by_dim[kDimMem] << ',' << r.kills_by_dim[kDimCpu] << ','
        << r.kills_by_dim[kDimGpu] << ',' << r.midjob_kills << ','
        << r.mean_kill_progress << ',' << r.base.utilization << ','
        << r.base.mean_slowdown << ',' << r.base.mean_bounded_slowdown << ','
        << r.base.mean_wait << ','
        << r.base.lowered_starts << ',' << r.base.benefiting_jobs << ','
        << r.base.dropped_unschedulable << '\n';
  }
}

}  // namespace resmatch::exp
