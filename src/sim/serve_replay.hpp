// serve_replay — decision-equivalence harness for the online service.
//
// Replays one workload through the simulator twice: once with the offline
// SuccessiveApproximationEstimator, once with a svc::Matchd instance stood
// behind the svc::MatchdEstimator adapter, and compares the two grant
// streams decision by decision.
//
// This is the enforcement of matchd's determinism contract: driven
// serially (which the discrete-event simulator is, even when matchd runs
// its worker pool — the adapter waits for each enqueued request), the
// service must produce byte-identical decisions to the offline estimator,
// because both run the same core::SaGroupState transitions over the same
// similarity grouping. Any nonzero mismatch count is a bug in the service
// layer, not a tolerable drift.
#pragma once

#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "svc/matchd.hpp"

namespace resmatch::sim {

struct ServeReplayConfig {
  SimulationConfig sim;
  /// Service construction; workers > 0 routes every decision through the
  /// admission queue and worker pool. Leave store.max_groups at its large
  /// default for equivalence — eviction intentionally forgets state the
  /// offline estimator remembers.
  svc::MatchdConfig matchd;
  std::string policy = "fcfs";
};

/// One compared decision (i-th estimator grant of the replay).
struct ReplayDecision {
  JobId job_id = 0;
  MiB offline_mib = 0.0;
  MiB service_mib = 0.0;

  [[nodiscard]] bool matches() const noexcept {
    return offline_mib == service_mib;  // byte-identical, no epsilon
  }
};

struct ServeReplayResult {
  SimulationResult offline;
  SimulationResult service;
  /// Decisions compared (grant stream length; both runs must agree).
  std::size_t decisions = 0;
  /// Decisions whose grants differ — must be 0 for a serial drive.
  std::size_t mismatches = 0;
  /// First few differing decisions, for diagnostics.
  std::vector<ReplayDecision> first_mismatches;
  /// Service-side counters after the replay.
  svc::MatchdStats stats;

  [[nodiscard]] bool identical() const noexcept {
    return mismatches == 0 &&
           offline.utilization == service.utilization &&
           offline.mean_slowdown == service.mean_slowdown;
  }
};

/// Run the paired replay. Fresh estimator, service, and policy instances
/// are created per run so the comparison starts from identical state.
[[nodiscard]] ServeReplayResult serve_replay(const trace::Workload& workload,
                                             const ClusterSpec& cluster_spec,
                                             ServeReplayConfig config = {});

// --- crash-recovery equivalence ---------------------------------------------

/// Configuration for crash_replay. `matchd.durability.wal_dir` must be
/// set — the crashed service is recovered from its WAL.
struct CrashReplayConfig {
  svc::MatchdConfig matchd;
  /// Submissions served before the simulated crash. 0 = crash before any
  /// traffic (recovery of an empty log must also work).
  std::size_t crash_after = 0;
  /// Leave a torn half-frame at one WAL tail, as a mid-write power cut
  /// would; replay must drop it and still match.
  bool torn_tail = false;
};

struct CrashReplayResult {
  /// Decisions compared (one per job; both drives see every job).
  std::size_t decisions = 0;
  /// Decisions whose grants differ between the fault-free reference run
  /// and the crashed-and-recovered run — must be 0.
  std::size_t mismatches = 0;
  std::vector<ReplayDecision> first_mismatches;
  /// What the restarted service reconstructed from disk.
  svc::RecoveryStats recovery;
  /// Why recover() failed; empty when it succeeded. The workload still
  /// finishes (on whatever the failed recovery left in the store), but
  /// the run is not identical.
  std::string recovery_error;
  /// Counters of the restarted (post-recovery) service.
  svc::MatchdStats stats;

  [[nodiscard]] bool identical() const noexcept {
    return mismatches == 0 && recovery_error.empty();
  }
};

/// The durability contract, end to end: drive the workload (submit +
/// explicit feedback per job, arrival order) through a WAL-backed service,
/// crash it after `crash_after` submissions, recover a fresh instance from
/// the same WAL directory, finish the workload there, and compare the
/// concatenated grant stream byte-for-byte against one uninterrupted
/// fault-free run. With every committed mutation logged (wal_flush_every
/// == 1), the crash must be invisible in the decision stream.
[[nodiscard]] CrashReplayResult crash_replay(const trace::Workload& workload,
                                             const ClusterSpec& cluster_spec,
                                             CrashReplayConfig config);

}  // namespace resmatch::sim
