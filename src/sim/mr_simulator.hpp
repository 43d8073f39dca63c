// Multi-resource simulation: vector bin-packing in the same event loop as
// sim::simulate() (src/sim/simulator.cpp).
//
// Jobs carry a per-node request VECTOR (memory, CPU, GPU); pools advertise
// a capacity vector; a machine qualifies only when it covers every
// estimated dimension; and a running job is killed when its time-varying
// footprint crosses its grant in ANY dimension (the culprit dimension —
// and only it — sees resource_failure in the estimator feedback, so blame
// never smears across resources).
//
// Within-job usage follows the job's trace::FootprintProfile: flat jobs
// fail at the paper's uniformly-drawn time, while ramp/step/plateau jobs
// fail exactly when the profile first crosses the grant — so early kills
// (low observed usage) and late kills (near-peak observed usage) give the
// estimator genuinely different explicit feedback.
//
// Equivalence contract: sim::simulate() is this loop at dims == 1 over the
// flat annotation of each record (trace::scenario_from), so a dims=1 run
// over a flat-profile scenario makes byte-identical decisions to the
// scalar entry points by construction. tests/mr_equiv_test.cpp pins it.
#pragma once

#include <array>
#include <cstddef>

#include "core/multi_resource.hpp"
#include "sim/cluster.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/scenario.hpp"

namespace resmatch::sim {

struct MrSimulationConfig {
  SimulationConfig base;
  /// Resource dimensions the engine packs (1 = memory only).
  std::size_t dims = 1;
};

struct MrSimulationResult {
  SimulationResult base;
  /// Resource kills attributed to each dimension (memory, CPU, GPU).
  std::array<std::size_t, kMaxResourceDims> kills_by_dim{};
  /// Resource kills timed by a footprint crossing (non-flat profiles)
  /// rather than the paper's uniform draw.
  std::size_t midjob_kills = 0;
  /// Mean fraction of the runtime completed when a resource kill fired.
  double mean_kill_progress = 0.0;
};

/// Run one multi-resource simulation. `scenario.base.jobs` must be sorted
/// by submit time and `scenario.mr` parallel to it (trace::scenario_from
/// or one of the scenario generators). config.dims must be in
/// [1, scenario.dims] and equal estimator.dims(); violations throw
/// std::invalid_argument. The estimator's per-dimension ladders are
/// installed from the cluster.
[[nodiscard]] MrSimulationResult simulate_mr(
    const trace::ScenarioWorkload& scenario, const ClusterSpec& cluster_spec,
    core::VectorEstimator& estimator, sched::SchedulingPolicy& policy,
    const MrSimulationConfig& config = {});

}  // namespace resmatch::sim
