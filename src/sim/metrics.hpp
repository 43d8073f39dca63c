// Simulation outcome metrics, following Feitelson's definitions (the
// paper cites [5] for utilization and slowdown).
#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

namespace resmatch::sim {

struct SimulationResult {
  std::string estimator_name;
  std::string policy_name;

  // --- population --------------------------------------------------------
  std::size_t submitted = 0;
  std::size_t completed = 0;            ///< ran to successful completion
  std::size_t intrinsic_failed = 0;     ///< failed for non-resource reasons
  std::size_t dropped_unschedulable = 0;  ///< could never fit the cluster
  std::size_t dropped_attempt_cap = 0;  ///< exceeded the retry safety valve

  // --- execution attempts -------------------------------------------------
  std::size_t attempts = 0;           ///< job starts (including failed runs)
  std::size_t resource_failures = 0;  ///< starts killed by under-provision
  std::size_t lowered_starts = 0;     ///< starts granted less than requested

  // --- time and work -------------------------------------------------------
  Seconds makespan = 0.0;           ///< first submit to last event
  double offered_load = 0.0;        ///< demanded / available node-seconds
  double utilization = 0.0;         ///< productive node-seconds fraction
  double wasted_fraction = 0.0;     ///< failed-run node-seconds fraction

  // --- responsiveness (over completed jobs) --------------------------------
  double mean_wait = 0.0;
  double mean_slowdown = 0.0;           ///< (wait + run) / run
  double mean_bounded_slowdown = 0.0;   ///< runtime floored at tau
  double p95_slowdown = 0.0;
  double throughput_per_hour = 0.0;

  // --- estimation effectiveness --------------------------------------------
  /// Jobs whose grant opened machines their raw request could not use
  /// (the paper's §3.2 "benefiting jobs"), and their total node count.
  std::size_t benefiting_jobs = 0;
  std::size_t benefiting_nodes = 0;

  /// Memory the estimator committed vs. what the job touched, both in
  /// MiB weighted by node count, summed over successful completions
  /// (failed runs would conflate under-provision kills with headroom).
  /// Their ratio is the overprovisioning factor the paper's Figure 1
  /// measures for raw requests — 1.0 is a perfect oracle.
  double granted_mib_nodes = 0.0;
  double used_mib_nodes = 0.0;

  /// Per-capacity-class occupancy: what fraction of each pool's
  /// node-seconds were busy. Explains WHERE utilization was won or lost
  /// (the Figure 5 mechanism: without estimation the small pool idles).
  struct PoolUtilization {
    MiB capacity = 0.0;
    double busy_fraction = 0.0;
  };
  std::vector<PoolUtilization> pool_utilization;

  [[nodiscard]] double lowered_fraction() const noexcept {
    return attempts == 0
               ? 0.0
               : static_cast<double>(lowered_starts) /
                     static_cast<double>(attempts);
  }
  [[nodiscard]] double resource_failure_fraction() const noexcept {
    return attempts == 0
               ? 0.0
               : static_cast<double>(resource_failures) /
                     static_cast<double>(attempts);
  }
  /// Mean granted/used memory over successful completions (node-weighted).
  /// 0 when nothing completed or usage was unrecorded.
  [[nodiscard]] double overprovision_factor() const noexcept {
    return used_mib_nodes <= 0.0 ? 0.0
                                 : granted_mib_nodes / used_mib_nodes;
  }
};

}  // namespace resmatch::sim
