// Multi-resource engine equivalence gates.
//
// The dims=1 contract: run the multi-resource engine over a flat-profile
// wrap (trace::scenario_from) of any single-resource workload and it must
// make EXACTLY the decisions of sim::simulate() — same RNG draw sequence,
// same queue mechanics, same aggregates, byte for byte. The golden grid
// digests (tests/sim_golden.hpp) anchor it to the original simulator.
//
// The dims>1 golden grid pins the vector runs of every multi-resource
// scenario at dims 2 and 3. The multi-dimension tests then pin what the
// vector path ADDS: kills attributed to the culprit dimension only, and
// footprint crossings that time kills deterministically instead of by the
// paper's uniform draw.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/runtime_predictor.hpp"
#include "exp/scenarios.hpp"
#include "sim_golden.hpp"

namespace resmatch {
namespace {

void expect_memory_blame_only(const sim::MrSimulationResult& mr) {
  // A dims=1 run can only ever blame memory, and flat profiles never
  // produce deterministic mid-job crossings.
  EXPECT_EQ(mr.kills_by_dim[kDimMem], mr.base.resource_failures);
  EXPECT_EQ(mr.kills_by_dim[kDimCpu], 0u);
  EXPECT_EQ(mr.kills_by_dim[kDimGpu], 0u);
  EXPECT_EQ(mr.midjob_kills, 0u);
}

TEST(MrEquivalence, DimsOneBitIdenticalToScalarEngine) {
  // The pinned golden grid (tests/sim_golden.hpp), dims=1.
  const trace::Workload w = golden::golden_workload();
  for (std::size_t p = 0; p < std::size(golden::kPolicies); ++p) {
    for (std::size_t e = 0; e < std::size(golden::kEstimators); ++e) {
      SCOPED_TRACE(std::string(golden::kPolicies[p]) + " / " +
                   golden::kEstimators[e]);
      sim::TimeSeries ts(golden::kSampleInterval);
      const auto mr = golden::run_mr_dims1(
          w, golden::golden_cluster(), golden::kPolicies[p],
          golden::kEstimators[e], golden::golden_config(), ts);
      EXPECT_EQ(golden::digest(mr.base, ts), golden::kGridDigests[p][e]);
      expect_memory_blame_only(mr);
    }
  }
  // Every synthetic scenario's base trace under FCFS on the paper's
  // cluster: the flat annotation at dims=1 against the scalar entry point.
  const sim::ClusterSpec cluster = exp::scenario_cluster(1);
  for (const auto& name : exp::scenario_names()) {
    const trace::ScenarioWorkload scenario = exp::make_scenario(name, 42, 1200);
    for (const char* estimator :
         {"none", "successive-approximation", "quantile"}) {
      SCOPED_TRACE(name + " / " + estimator);
      sim::SimulationConfig cfg;
      cfg.seed = 7;
      cfg.explicit_feedback = core::requires_explicit_feedback(estimator);
      sim::TimeSeries ts(golden::kSampleInterval);
      const auto mr = golden::run_mr_dims1(scenario.base, cluster, "fcfs",
                                           estimator, cfg, ts);
      EXPECT_EQ(golden::digest(mr.base, ts),
                golden::run_workload(scenario.base, cluster, "fcfs",
                                     estimator, cfg));
      expect_memory_blame_only(mr);
    }
  }
}

TEST(MrEquivalence, MultiResourceGoldenDigests) {
  // The pinned dims>1 grid (tests/sim_golden.hpp): every multi-resource
  // scenario at dims 2 and 3, by policy and estimator arm.
  for (std::size_t s = 0; s < std::size(golden::kMrScenarios); ++s) {
    const trace::ScenarioWorkload scenario =
        exp::make_scenario(golden::kMrScenarios[s], 42, 1200);
    for (const std::size_t dims : {2u, 3u}) {
      for (std::size_t p = 0; p < std::size(golden::kPolicies); ++p) {
        for (std::size_t a = 0; a < std::size(golden::kMrArms); ++a) {
          const golden::MrArm& arm = golden::kMrArms[a];
          SCOPED_TRACE(std::string(golden::kMrScenarios[s]) +
                       " dims=" + std::to_string(dims) + " / " +
                       golden::kPolicies[p] + " / " + arm.estimator +
                       (arm.explicit_feedback ? " explicit" : " implicit"));
          EXPECT_EQ(
              golden::run_scenario(scenario, dims, golden::kPolicies[p], arm),
              golden::kMrDigests[s][dims - 2][p][a]);
        }
      }
    }
  }
}

// --- multi-dimension behaviour --------------------------------------------

trace::ScenarioWorkload two_job_scenario(trace::FootprintShape second_shape) {
  // Two jobs in one similarity group (same user/app/request). The first
  // teaches last-instance a tiny GPU usage; the second's real GPU demand
  // then overruns the lowered grant — the only overrunning dimension.
  trace::ScenarioWorkload scenario;
  scenario.dims = 3;
  scenario.base.name = "two-job";

  trace::JobRecord job;
  job.id = 1;
  job.submit = 0.0;
  job.runtime = 100.0;
  job.requested_time = 100.0;
  job.nodes = 2;
  job.requested_mem_mib = 16.0;
  job.used_mem_mib = 4.0;
  job.user = 1;
  job.app = 1;
  scenario.base.jobs.push_back(job);
  trace::MrJobInfo first;
  first.requested = ResourceVector(16.0, 2.0, 4.0);
  first.used_peak = ResourceVector(4.0, 2.0, 1.0);
  scenario.mr.push_back(first);

  job.id = 2;
  job.submit = 500.0;
  job.used_mem_mib = 8.0;
  scenario.base.jobs.push_back(job);
  trace::MrJobInfo second;
  second.requested = ResourceVector(16.0, 2.0, 4.0);
  second.used_peak = ResourceVector(8.0, 2.0, 3.0);
  second.profile.shape = second_shape;
  second.profile.start_frac = 0.25;
  scenario.mr.push_back(second);
  return scenario;
}

sim::ClusterSpec two_pool_gpu_cluster() {
  return {{16.0, 4, 4.0, 1.0}, {32.0, 4, 8.0, 4.0}};
}

sim::MrSimulationResult run_two_job(trace::FootprintShape second_shape) {
  const auto scenario = two_job_scenario(second_shape);
  core::VectorEstimatorConfig est_cfg;
  est_cfg.dims = 3;
  est_cfg.estimator = "last-instance";
  core::VectorEstimator est(est_cfg);
  const auto pol = sched::make_policy("fcfs");
  sim::MrSimulationConfig cfg;
  cfg.dims = 3;
  cfg.base.seed = 3;
  cfg.base.explicit_feedback = true;
  return sim::simulate_mr(scenario, two_pool_gpu_cluster(), est, *pol, cfg);
}

TEST(MrEquivalence, KillIsAttributedToTheCulpritDimensionOnly) {
  const auto result = run_two_job(trace::FootprintShape::kFlat);
  EXPECT_EQ(result.base.submitted, 2u);
  EXPECT_EQ(result.base.completed, 2u);
  EXPECT_EQ(result.base.resource_failures, 1u);
  EXPECT_EQ(result.kills_by_dim[kDimMem], 0u);
  EXPECT_EQ(result.kills_by_dim[kDimCpu], 0u);
  EXPECT_EQ(result.kills_by_dim[kDimGpu], 1u);
  // Flat overrun: the kill time is the paper's uniform draw, not a
  // footprint crossing.
  EXPECT_EQ(result.midjob_kills, 0u);
}

TEST(MrEquivalence, FootprintCrossingTimesTheKillDeterministically) {
  const auto result = run_two_job(trace::FootprintShape::kRamp);
  // Every kill is timed by the ramp crossing, attributed to the GPU, and
  // early: grant 1 of peak 3 crosses at x = (1/3 - 1/4)/(3/4) ≈ 0.11 of
  // the runtime.
  EXPECT_GT(result.base.resource_failures, 0u);
  EXPECT_EQ(result.midjob_kills, result.base.resource_failures);
  EXPECT_EQ(result.kills_by_dim[kDimGpu], result.base.resource_failures);
  EXPECT_EQ(result.kills_by_dim[kDimMem], 0u);
  EXPECT_GT(result.mean_kill_progress, 0.0);
  EXPECT_LT(result.mean_kill_progress, 0.5);
  // The early-kill feedback difference, end to end: under a FLAT profile
  // the monitor reports the full peak at the kill, last-instance learns
  // the truth, and the retry succeeds (see the test above). Under the
  // ramp the monitor only ever sees usage-so-far ≈ the grant, the
  // estimator keeps re-granting it, and the job burns to the attempt cap
  // without completing.
  EXPECT_EQ(result.base.completed, 1u);
  EXPECT_EQ(result.base.dropped_attempt_cap, 1u);
}

TEST(MrEquivalence, RejectsUnsupportedConfig) {
  const auto scenario = two_job_scenario(trace::FootprintShape::kFlat);
  core::VectorEstimatorConfig est_cfg;
  est_cfg.dims = 3;
  core::VectorEstimator est(est_cfg);
  const auto pol = sched::make_policy("fcfs");

  // dims beyond what the scenario annotates.
  trace::ScenarioWorkload narrow =
      trace::scenario_from(golden::golden_workload());
  sim::MrSimulationConfig wide;
  wide.dims = 3;
  EXPECT_THROW((void)sim::simulate_mr(narrow, two_pool_gpu_cluster(), est,
                                      *pol, wide),
               std::invalid_argument);

  // Estimator dims must match config.dims.
  core::VectorEstimatorConfig one;
  one.dims = 1;
  core::VectorEstimator narrow_est(one);
  sim::MrSimulationConfig three;
  three.dims = 3;
  EXPECT_THROW((void)sim::simulate_mr(scenario, two_pool_gpu_cluster(),
                                      narrow_est, *pol, three),
               std::invalid_argument);
}

TEST(MrEquivalence, RuntimePredictorAtDimsOneMatchesScalarEngine) {
  // EASY backfill is the policy whose decisions read the runtime input,
  // so a predictor that drifts from the user estimates changes the run.
  const trace::Workload w = golden::golden_workload();
  sim::SimulationConfig cfg = golden::golden_config();

  core::RuntimePredictor scalar_predictor;
  cfg.runtime_predictor = &scalar_predictor;
  const std::uint64_t scalar =
      golden::run_workload(w, golden::golden_cluster(), "easy-backfill",
                           "successive-approximation", cfg);

  core::RuntimePredictor mr_predictor;
  cfg.runtime_predictor = &mr_predictor;
  sim::TimeSeries ts(golden::kSampleInterval);
  const auto mr =
      golden::run_mr_dims1(w, golden::golden_cluster(), "easy-backfill",
                           "successive-approximation", cfg, ts);
  EXPECT_EQ(golden::digest(mr.base, ts), scalar);
  EXPECT_GT(mr_predictor.predictions_scored(), 0u);
  EXPECT_EQ(mr_predictor.predictions_scored(),
            scalar_predictor.predictions_scored());
  EXPECT_EQ(mr_predictor.underprediction_fraction(),
            scalar_predictor.underprediction_fraction());
  // The predictor is not a no-op here: without it the run differs.
  EXPECT_NE(scalar, golden::kGridDigests[2][1]);
}

}  // namespace
}  // namespace resmatch
