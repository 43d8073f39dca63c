// Scheduling-policy interface.
//
// The paper stresses that the estimator "is independent and can be
// integrated with different scheduling policies (e.g., FCFS,
// shortest-job-first, backfilling)" (§1.3). This layer realizes that
// separation: a policy only decides WHICH queued job to try next; the
// estimator has already rewritten each job's effective request, and the
// simulator owns actual placement.
//
// Policies see the same resource vector the allocator checks. A job fits
// when enough free machines cover its preview on EVERY dimension
// (Psychas & Ghaderi's feasibility, PAPERS.md); coordinates beyond the
// run's active dimensions are zero, and a zero request is covered by any
// machine, so a memory-only run compares memory alone.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "util/resource_vector.hpp"
#include "util/types.hpp"

namespace resmatch::sched {

/// A job waiting in the scheduler queue. `preview` is the estimator's
/// (rounded) per-node request vector for the current attempt.
struct QueuedJob {
  std::size_t trace_index = 0;  ///< the simulator's handle for the job
  std::uint32_t nodes = 1;
  /// Preview-memoization state (simulator hot path; policies ignore
  /// it): while the estimator still reports `preview_epoch` for the job,
  /// `preview` is current and the head-refresh preview call can be
  /// skipped. Declared beside `nodes` so the entry packs into 56 bytes.
  bool preview_memoized = false;
  std::uint64_t preview_epoch = 0;
  ResourceVector preview{};
  Seconds requested_time = 0.0;  ///< user runtime estimate (backfill input)
};

/// A job currently executing, as visible to policies (backfilling needs
/// expected completion times to compute the head job's reservation).
struct RunningJobInfo {
  Seconds expected_end = 0.0;  ///< start + user runtime estimate
  std::uint32_t nodes = 1;
  ResourceVector granted{};    ///< per-node capacity the job runs with

  /// Exact-value equality: EASY compares each position of the running
  /// set with the entry it saw there on its last pass, and updates its
  /// kept by-end order only where the two differ.
  friend bool operator==(const RunningJobInfo&,
                         const RunningJobInfo&) = default;
};

/// Read-only cluster capacity queries available to policies. A machine
/// covers a request when its capacity is at least the request on every
/// dimension.
class ClusterView {
 public:
  virtual ~ClusterView() = default;

  /// Free machines covering `request`.
  [[nodiscard]] virtual std::size_t eligible_free(
      const ResourceVector& request) const = 0;

  /// Free machines covering `request` that the allocator would take, in
  /// its own pool order, before it reaches a free machine covering
  /// `reserved`: the machines a job can have without touching any that
  /// `reserved` could use (EASY's below-class backfill rule).
  [[nodiscard]] virtual std::size_t eligible_free_before(
      const ResourceVector& request, const ResourceVector& reserved) const = 0;
};

/// Decides the next queued job to attempt. The simulator calls pick_next
/// repeatedly at each scheduling point, starting the returned job if it
/// truly fits, until the policy returns nullopt.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Index into `queue` of the next job to start, or nullopt to wait.
  /// Implementations must only return jobs that fit right now on every
  /// dimension (fits_now); the simulator treats a non-fitting pick as a
  /// policy bug. The order of `running` is unspecified.
  [[nodiscard]] virtual std::optional<std::size_t> pick_next(
      const std::deque<QueuedJob>& queue, const ClusterView& cluster,
      const std::vector<RunningJobInfo>& running, Seconds now) = 0;
};

/// True when the job can start immediately: at least `job.nodes` free
/// machines cover its preview.
[[nodiscard]] bool fits_now(const QueuedJob& job, const ClusterView& cluster);

}  // namespace resmatch::sched
