// The trace-driven cluster simulator (paper §3.1).
//
// Reproduces the paper's simulation methodology:
//   * jobs arrive per the trace and enter the scheduler queue;
//   * at each scheduling point the policy picks queued jobs to start; the
//     estimator has already rewritten each job's effective request, and a
//     job is granted exactly that capacity on every machine it occupies
//     (memory-limit semantics: machine capacity bounds the grant, the
//     grant bounds the job);
//   * a job granted less than it actually uses "fails after a random
//     time, drawn uniformly between zero and the execution run-time" and
//     "returns to the head of the queue";
//   * the estimator receives feedback after every attempt — implicit
//     (success flag only) or explicit (plus true usage and failure cause).
//
// The run is fully deterministic given the seed. Scalar runs are the
// dims=1 case of the multi-resource loop (sim/mr_simulator.hpp): memory
// is the only dimension, every footprint is flat, and the estimator is
// driven through a core::VectorEstimator that borrows it.
#pragma once

#include <cstdint>

#include "core/estimator.hpp"
#include "core/runtime_predictor.hpp"
#include "sched/policy.hpp"
#include "sim/cluster.hpp"
#include "sim/metrics.hpp"
#include "trace/job_record.hpp"

namespace resmatch::obs {
class Registry;
}

namespace resmatch::trace {
class JobStream;
}

namespace resmatch::sim {

/// A scheduled change in machine availability (paper §1: machines join
/// and leave dynamically). Applies to an existing capacity class.
struct AvailabilityEvent {
  Seconds time = 0.0;
  MiB capacity = 0.0;
  /// Positive: machines join. Negative: machines leave (busy ones drain).
  long long delta = 0;
};

struct SimulationConfig {
  AllocationPolicy allocation = AllocationPolicy::kBestFit;
  /// Explicit feedback: report true usage and failure cause to the
  /// estimator (paper §2.1). Implicit (false) reports only success/failure.
  bool explicit_feedback = false;
  std::uint64_t seed = 7;
  /// Bounded-slowdown runtime floor (Feitelson's tau), seconds.
  Seconds bounded_slowdown_tau = 10.0;
  /// Safety valve: a job repeatedly under-provisioned beyond this many
  /// attempts is dropped (and counted) instead of looping forever.
  std::uint32_t max_attempts_per_job = 64;
  /// Optional occupancy/queue sampler (not owned; must outlive the run).
  class TimeSeries* timeseries = nullptr;
  /// Optional learned runtime prediction (Tsafrir-style): when set, the
  /// scheduler's runtime inputs (backfilling reservations) use predictions
  /// instead of user estimates, and the predictor observes completions.
  /// Not owned; must outlive the run.
  core::RuntimePredictor* runtime_predictor = nullptr;
  /// Machine join/leave schedule. Utilization is measured against the
  /// time-integrated machine count when this is non-empty.
  std::vector<AvailabilityEvent> availability;
  /// Optional engine observability (not owned; must outlive the run):
  /// exports resmatch_sim_events_total, resmatch_sim_events_per_sec,
  /// resmatch_sim_wall_seconds, the resmatch_sim_schedule_seconds
  /// scheduler-decision histogram, and the per-dimension kill counters
  /// (resmatch_sim_kill_{mem,cpu,gpu}_total, resmatch_sim_midjob_kills_total).
  /// Wall-clock feeds metrics only — the simulated timeline stays
  /// seed-deterministic.
  obs::Registry* metrics = nullptr;
};

/// Run one simulation. `workload` must be sorted by submit time (see
/// trace::sort_by_submit); violating that is an error. The estimator and
/// policy are mutated (they learn / keep state) — pass fresh instances for
/// independent runs.
[[nodiscard]] SimulationResult simulate(const trace::Workload& workload,
                                        const ClusterSpec& cluster_spec,
                                        core::Estimator& estimator,
                                        sched::SchedulingPolicy& policy,
                                        const SimulationConfig& config = {});

/// Run one simulation from a job stream without materializing the trace:
/// peak memory is O(jobs in the system), not O(trace length). The stream
/// must yield jobs in non-decreasing submit order (checked as records are
/// pulled). Byte-identical to materializing the same stream and calling
/// the overload above.
[[nodiscard]] SimulationResult simulate(trace::JobStream& stream,
                                        const ClusterSpec& cluster_spec,
                                        core::Estimator& estimator,
                                        sched::SchedulingPolicy& policy,
                                        const SimulationConfig& config = {});

}  // namespace resmatch::sim
