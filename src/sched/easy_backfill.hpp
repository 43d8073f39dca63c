// EASY backfilling, adapted to heterogeneous, multi-resource pools.
//
// Classic EASY: the queue head gets a reservation at the earliest time
// enough machines will be free (the shadow time, computed from running
// jobs' expected completions); a lower-priority job may jump ahead only if
// doing so cannot delay that reservation.
//
// Heterogeneity adaptation: a machine serves a job when its capacity
// covers the job's per-node preview on every dimension. The shadow
// computation counts free machines covering the HEAD's preview plus the
// machines of running jobs whose grant covers it, and a backfill
// candidate is safe when either
//   (a) its expected termination (user estimate) precedes the shadow time,
//   (b) it does not touch machines that cover the head at all: the
//       allocator, walking its own pool order, finds enough free machines
//       covering the candidate before it reaches a free machine covering
//       the head (ClusterView::eligible_free_before; under worst-fit that
//       walk starts at the biggest pools), or
//   (c) even after it takes machines, the head-covering free count at the
//       shadow time still covers the head job ("extra nodes" rule).
// All three checks are conservative with respect to the actual allocator,
// so a backfilled job can never postpone the head beyond its reservation.
//
// The running set arrives in no particular order. The by-end order sorts
// it on a total order (expected end, then nodes, then grant), so the
// reservation depends on the running set alone, not on its arrival order.
// The policy keeps that order across passes and, on each pass, updates
// it only where `running` differs position by position from the set it
// last saw. The simulator's index appends on a start and swap-removes on
// an end, so a pass usually touches one or two positions; any other
// reordering is still handled correctly, at more cost.
#pragma once

#include "sched/policy.hpp"

namespace resmatch::sched {

class EasyBackfillPolicy final : public SchedulingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "easy-backfill"; }

  [[nodiscard]] std::optional<std::size_t> pick_next(
      const std::deque<QueuedJob>& queue, const ClusterView& cluster,
      const std::vector<RunningJobInfo>& running, Seconds now) override;

 private:
  struct Reservation {
    Seconds shadow_time = 0.0;   ///< earliest time the head job can start
    std::size_t extra_nodes = 0; ///< head-covering nodes spare at shadow time
  };

  /// Bring by_end_ and last_running_ up to `running`: at each position
  /// where the two differ, erase the old entry from by_end_ and insert the
  /// new one in order; entries past the shorter vector are erased or
  /// inserted. Costs one compare pass plus O(n) per changed position.
  void refresh_by_end(const std::vector<RunningJobInfo>& running);

  /// The head's reservation given `available`, the free machines that
  /// cover its preview now (fewer than it needs).
  [[nodiscard]] Reservation compute_reservation(const QueuedJob& head,
                                                std::size_t available,
                                                Seconds now) const;

  /// The entries of last_running_, sorted on the by-end order. Kept
  /// across passes; equal entries are identical, so it is exactly the
  /// sequence a fresh sort of the running set would give.
  std::vector<RunningJobInfo> by_end_;
  /// The running set by_end_ holds, in the order the last pass received
  /// it; the next pass diffs against it position by position.
  std::vector<RunningJobInfo> last_running_;
};

}  // namespace resmatch::sched
