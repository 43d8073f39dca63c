// Shared inputs and result digests for the simulator equivalence tests
// (perf_equiv_test, scale_equiv_test, mr_equiv_test).
//
// A digest is a 64-bit FNV-1a hash over every field of a
// SimulationResult — integers as-is, doubles by bit pattern, every
// pool_utilization entry — and every point of the attached TimeSeries.
// Equal digests therefore mean bit-identical results and time series.
// The pinned dims=1 digests were captured from the two engines the single
// simulation loop replaced, the seed loop and the binary-heap loop (once
// selected by SimulationConfig::baseline_loop and heap_queue). Both
// agreed on every digest. Every simulator entry point must keep
// reproducing them.
//
// The multi-resource digests (kMrDigests, kMrLoadedDigests) add the
// vector fields of an MrSimulationResult. They were captured from the
// single loop, which was the only dims>1 engine left, and re-pinned when
// policies began to check the full resource vector, as the allocator
// does; they hold its vector runs in place.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>

#include "core/factory.hpp"
#include "core/multi_resource.hpp"
#include "exp/scenarios.hpp"
#include "sched/factory.hpp"
#include "sim/mr_simulator.hpp"
#include "sim/simulator.hpp"
#include "sim/timeseries.hpp"
#include "trace/cm5_model.hpp"
#include "trace/job_stream.hpp"
#include "trace/scenario.hpp"
#include "trace/transforms.hpp"
#include "util/rng.hpp"

namespace resmatch::golden {

/// 64-bit FNV-1a over the little-endian bytes of each value added.
class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

inline std::uint64_t digest(const sim::SimulationResult& r,
                            const sim::TimeSeries& ts) {
  Fnv1a h;
  for (const std::uint64_t v :
       {r.submitted, r.completed, r.attempts, r.resource_failures,
        r.intrinsic_failed, r.dropped_unschedulable, r.dropped_attempt_cap,
        r.lowered_starts, r.benefiting_jobs, r.benefiting_nodes}) {
    h.add(v);
  }
  for (const double v :
       {r.offered_load, r.utilization, r.wasted_fraction, r.mean_wait,
        r.mean_slowdown, r.mean_bounded_slowdown, r.p95_slowdown, r.makespan,
        r.throughput_per_hour, r.granted_mib_nodes, r.used_mib_nodes}) {
    h.add(v);
  }
  h.add(std::uint64_t{r.pool_utilization.size()});
  for (const auto& pool : r.pool_utilization) {
    h.add(pool.capacity);
    h.add(pool.busy_fraction);
  }
  h.add(std::uint64_t{ts.points().size()});
  for (const auto& p : ts.points()) {
    h.add(p.time);
    h.add(p.busy_fraction);
    h.add(std::uint64_t{p.queue_length});
    h.add(std::uint64_t{p.running_jobs});
  }
  return h.value();
}

/// digest() of the base result and time series, plus the vector run's
/// per-dimension kills, mid-job kills and mean kill progress.
inline std::uint64_t digest(const sim::MrSimulationResult& r,
                            const sim::TimeSeries& ts) {
  Fnv1a h;
  h.add(digest(r.base, ts));
  for (const std::size_t kills : r.kills_by_dim) h.add(std::uint64_t{kills});
  h.add(std::uint64_t{r.midjob_kills});
  h.add(r.mean_kill_progress);
  return h.value();
}

// --- inputs ----------------------------------------------------------------

/// 1200 CM5 jobs at load 0.9 on the paper's 256-machine cluster.
inline trace::Workload golden_workload() {
  trace::Workload w = trace::generate_cm5_small(11, 1200);
  w = trace::drop_wide_jobs(std::move(w), 256);
  w = trace::scale_to_load(std::move(w), 256, 0.9);
  return trace::sort_by_submit(std::move(w));
}

inline sim::ClusterSpec golden_cluster() {
  return sim::cm5_heterogeneous(24.0, 128);
}

/// Explicit feedback with machines leaving, joining and returning.
inline sim::SimulationConfig golden_config() {
  sim::SimulationConfig cfg;
  cfg.seed = 7;
  cfg.explicit_feedback = true;
  cfg.availability = {{2000.0, 24.0, -40}, {6000.0, 32.0, 24},
                      {9000.0, 24.0, 40}};
  return cfg;
}

/// 400 CM5 jobs at load 0.85: the randomized-availability trials' trace.
inline trace::Workload churn_workload() {
  trace::Workload w = trace::generate_cm5_small(29, 400);
  w = trace::drop_wide_jobs(std::move(w), 256);
  w = trace::scale_to_load(std::move(w), 256, 0.85);
  return trace::sort_by_submit(std::move(w));
}

/// One to four random join/leave events drawn from Rng(rng_seed), with
/// simulator seed 7 + trial.
inline sim::SimulationConfig churn_config(std::uint64_t rng_seed,
                                          std::uint64_t trial) {
  util::Rng rng(rng_seed);
  sim::SimulationConfig cfg;
  cfg.seed = 7 + trial;
  cfg.explicit_feedback = true;
  const int n_events = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < n_events; ++i) {
    sim::AvailabilityEvent ev;
    ev.time = rng.uniform(500.0, 20000.0);
    ev.capacity = rng.bernoulli(0.5) ? 32.0 : 24.0;
    ev.delta = rng.uniform_int(-48, 48);
    if (ev.delta == 0) ev.delta = 8;
    cfg.availability.push_back(ev);
  }
  return cfg;
}

/// The cluster-scale model bench/micro_core --scale runs, at `jobs` jobs
/// on `machines` machines in four equal capacity classes.
inline trace::Cm5ModelConfig scale_model(std::size_t jobs,
                                         std::size_t machines) {
  trace::Cm5ModelConfig cfg;
  cfg.seed = 11;
  cfg.job_count = jobs;
  cfg.group_count = std::max<std::size_t>(64, jobs / 12);
  cfg.user_count = std::max<std::size_t>(8, jobs / 600);
  cfg.nominal_machines = machines;
  cfg.nominal_load = 0.9;
  return cfg;
}

inline sim::ClusterSpec scale_cluster(std::size_t machines) {
  const std::size_t per_pool = std::max<std::size_t>(1, machines / 4);
  return {{32.0, per_pool}, {24.0, per_pool}, {16.0, per_pool},
          {8.0, per_pool}};
}

inline sim::SimulationConfig scale_config() {
  sim::SimulationConfig cfg;
  cfg.seed = 7;
  cfg.explicit_feedback = true;
  return cfg;
}

// --- entry points ------------------------------------------------------------

/// Every run samples a 50 s time series into its digest.
inline constexpr Seconds kSampleInterval = 50.0;

inline std::uint64_t run_workload(const trace::Workload& w,
                                  const sim::ClusterSpec& spec,
                                  const std::string& policy,
                                  const std::string& estimator,
                                  sim::SimulationConfig cfg) {
  sim::TimeSeries ts(kSampleInterval);
  cfg.timeseries = &ts;
  const auto est = core::make_estimator(estimator);
  const auto pol = sched::make_policy(policy);
  return digest(sim::simulate(w, spec, *est, *pol, cfg), ts);
}

inline std::uint64_t run_stream(trace::JobStream& stream,
                                const sim::ClusterSpec& spec,
                                const std::string& policy,
                                const std::string& estimator,
                                sim::SimulationConfig cfg) {
  sim::TimeSeries ts(kSampleInterval);
  cfg.timeseries = &ts;
  const auto est = core::make_estimator(estimator);
  const auto pol = sched::make_policy(policy);
  return digest(sim::simulate(stream, spec, *est, *pol, cfg), ts);
}

/// simulate_mr at dims=1 over the flat annotation of `w`.
inline sim::MrSimulationResult run_mr_dims1(
    const trace::Workload& w, const sim::ClusterSpec& spec,
    const std::string& policy, const std::string& estimator,
    sim::SimulationConfig cfg, sim::TimeSeries& ts) {
  cfg.timeseries = &ts;
  core::VectorEstimatorConfig est_cfg;
  est_cfg.dims = 1;
  est_cfg.estimator = estimator;
  core::VectorEstimator est(est_cfg);
  const auto pol = sched::make_policy(policy);
  sim::MrSimulationConfig mr_cfg;
  mr_cfg.base = cfg;
  mr_cfg.dims = 1;
  return sim::simulate_mr(trace::scenario_from(w), spec, est, *pol, mr_cfg);
}

inline std::uint64_t run_mr(const trace::Workload& w,
                            const sim::ClusterSpec& spec,
                            const std::string& policy,
                            const std::string& estimator,
                            const sim::SimulationConfig& cfg) {
  sim::TimeSeries ts(kSampleInterval);
  return digest(run_mr_dims1(w, spec, policy, estimator, cfg, ts).base, ts);
}

/// An estimator arm of the multi-resource grid.
struct MrArm {
  const char* estimator;
  bool explicit_feedback;
};

/// simulate_mr of `scenario` at `dims` on exp::scenario_cluster(dims),
/// sim seed 7.
inline std::uint64_t run_scenario(const trace::ScenarioWorkload& scenario,
                                  std::size_t dims, const std::string& policy,
                                  const MrArm& arm) {
  sim::TimeSeries ts(kSampleInterval);
  sim::MrSimulationConfig cfg;
  cfg.base.seed = 7;
  cfg.base.explicit_feedback = arm.explicit_feedback;
  cfg.base.timeseries = &ts;
  cfg.dims = dims;
  core::VectorEstimatorConfig est_cfg;
  est_cfg.dims = dims;
  est_cfg.estimator = arm.estimator;
  core::VectorEstimator est(est_cfg);
  const auto pol = sched::make_policy(policy);
  return digest(sim::simulate_mr(scenario, exp::scenario_cluster(dims), est,
                                 *pol, cfg),
                ts);
}

/// cloud-diurnal at 2000 jobs with arrivals compressed to 0.8 of their
/// gaps, as perfbench's sim-mr-backfill loads it: a queue forms, so the
/// three policies decide differently.
inline trace::ScenarioWorkload loaded_scenario() {
  trace::ScenarioWorkload scenario =
      exp::make_scenario("cloud-diurnal", 42, 2000);
  scenario.base = trace::scale_arrivals(std::move(scenario.base), 0.8);
  return scenario;
}

/// `pinned` must come out of simulate(Workload), simulate(JobStream&)
/// and simulate_mr at dims=1 alike.
inline void expect_every_entry_point(std::uint64_t pinned,
                                     const trace::Workload& w,
                                     const sim::ClusterSpec& spec,
                                     const std::string& policy,
                                     const std::string& estimator,
                                     const sim::SimulationConfig& cfg) {
  EXPECT_EQ(run_workload(w, spec, policy, estimator, cfg), pinned)
      << "simulate(Workload)";
  trace::VectorJobStream stream(w);
  EXPECT_EQ(run_stream(stream, spec, policy, estimator, cfg), pinned)
      << "simulate(JobStream&)";
  EXPECT_EQ(run_mr(w, spec, policy, estimator, cfg), pinned)
      << "simulate_mr at dims=1";
}

// --- pinned digests ----------------------------------------------------------

inline constexpr const char* kPolicies[] = {"fcfs", "sjf", "easy-backfill"};
inline constexpr const char* kEstimators[] = {
    "none", "successive-approximation", "last-instance", "quantile"};

/// golden_workload x golden_cluster x golden_config, by policy and
/// estimator (kPolicies x kEstimators).
inline constexpr std::uint64_t kGridDigests[3][4] = {
    {0xC7EF330444B32CE2ULL, 0x85A54BC94EEDC47DULL, 0xBA94B3169BFBC9CCULL,
     0xAC97E04EAFE5A611ULL},
    {0x25E89B4A0F181A07ULL, 0xE4A7A1E0D6E0694CULL, 0x1A95615F91D2156BULL,
     0xF51F1B5564E31AA0ULL},
    {0xF4696FD441CE03C5ULL, 0x1A061782C943BF2DULL, 0xAE71B8B2122A79B9ULL,
     0x88D19FAACFAC665AULL},
};

/// The multi-resource scenarios and estimator arms of the dims>1 grid.
inline constexpr const char* kMrScenarios[] = {"cloud-diurnal", "flash-crowd",
                                               "adversarial"};
inline constexpr MrArm kMrArms[] = {{"successive-approximation", false},
                                    {"successive-approximation", true},
                                    {"quantile", true}};

/// run_scenario over make_scenario(name, 42, 1200), by scenario, dims
/// (2, 3), policy (kPolicies) and arm (kMrArms). The two SA arms agree:
/// successive approximation reads only success, so explicit feedback's
/// per-dimension blame never reaches it. On flash-crowd and adversarial
/// the three policies make the same decisions at this size.
inline constexpr std::uint64_t kMrDigests[3][2][3][3] = {
    // cloud-diurnal: dims=2, then dims=3
    {{{0x0B16F9ACD3C482A6ULL, 0x0B16F9ACD3C482A6ULL, 0x460CE25647315100ULL},
      {0x82605992FA5F3716ULL, 0x82605992FA5F3716ULL, 0xCA183AA5142CCE84ULL},
      {0xA3E7EC17EC3056D6ULL, 0xA3E7EC17EC3056D6ULL, 0x98AFD8059A359435ULL}},
     {{0x0853C7ECAED02E72ULL, 0x0853C7ECAED02E72ULL, 0x1BB56F21136D1BFBULL},
      {0x7E7ACB4565F065DCULL, 0x7E7ACB4565F065DCULL, 0xE8815C7E26F03222ULL},
      {0x46BCE3E532939746ULL, 0x46BCE3E532939746ULL, 0xC8242C0EA0EBE8E9ULL}}},
    // flash-crowd: dims=2, then dims=3
    {{{0xE2A6264DD603E090ULL, 0xE2A6264DD603E090ULL, 0x0F318FA5D80B7A5EULL},
      {0xE2A6264DD603E090ULL, 0xE2A6264DD603E090ULL, 0x0F318FA5D80B7A5EULL},
      {0xE2A6264DD603E090ULL, 0xE2A6264DD603E090ULL, 0x0F318FA5D80B7A5EULL}},
     {{0xBB5252A4E51BB7B5ULL, 0xBB5252A4E51BB7B5ULL, 0xC0FA3013D2964AFBULL},
      {0xBB5252A4E51BB7B5ULL, 0xBB5252A4E51BB7B5ULL, 0xC0FA3013D2964AFBULL},
      {0xBB5252A4E51BB7B5ULL, 0xBB5252A4E51BB7B5ULL, 0xC0FA3013D2964AFBULL}}},
    // adversarial: dims=2, then dims=3
    {{{0xE2E64C99F1979A35ULL, 0xE2E64C99F1979A35ULL, 0x6B3559C8E2B50DC4ULL},
      {0xE2E64C99F1979A35ULL, 0xE2E64C99F1979A35ULL, 0x6B3559C8E2B50DC4ULL},
      {0xE2E64C99F1979A35ULL, 0xE2E64C99F1979A35ULL, 0x6B3559C8E2B50DC4ULL}},
     {{0xDA0C78DE692280A9ULL, 0xDA0C78DE692280A9ULL, 0xD900ECDD4620C630ULL},
      {0xDA0C78DE692280A9ULL, 0xDA0C78DE692280A9ULL, 0xD900ECDD4620C630ULL},
      {0xDA0C78DE692280A9ULL, 0xDA0C78DE692280A9ULL, 0xD900ECDD4620C630ULL}}},
};

/// run_scenario over loaded_scenario(), by dims (2, 3), policy
/// (kPolicies) and arm (kMrArms). Unlike the 1200-job grid, every policy
/// gives its own digest here.
inline constexpr std::uint64_t kMrLoadedDigests[2][3][3] = {
    {{0x9E236E9A2106757BULL, 0x9E236E9A2106757BULL, 0x36B72DF9D546BBEDULL},
     {0x3897CF300917882EULL, 0x3897CF300917882EULL, 0x87055FF6AF942B11ULL},
     {0x6994D9D6A7895656ULL, 0x6994D9D6A7895656ULL, 0x1FBC7AE669E0307EULL}},
    {{0xD0D3E061775928F8ULL, 0xD0D3E061775928F8ULL, 0xB80073786C25E0FAULL},
     {0xBD1635BE351E5FDDULL, 0xBD1635BE351E5FDDULL, 0x4FB67F4120644302ULL},
     {0x4CB035097CD74289ULL, 0x4CB035097CD74289ULL, 0x3B5CF42AC61CC093ULL}},
};

}  // namespace resmatch::golden
