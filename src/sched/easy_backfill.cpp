#include "sched/easy_backfill.hpp"

#include <algorithm>
#include <limits>
#include <tuple>

namespace resmatch::sched {

void EasyBackfillPolicy::refresh_by_end(
    const std::vector<RunningJobInfo>& running) {
  if (running == last_running_) return;  // by_end_ is still that set, sorted
  last_running_.assign(running.begin(), running.end());
  by_end_.assign(running.begin(), running.end());
  // A total order: entries that compare equal are identical, so the
  // sorted sequence does not depend on the order `running` arrived in.
  std::sort(by_end_.begin(), by_end_.end(),
            [](const RunningJobInfo& a, const RunningJobInfo& b) {
              return std::tie(a.expected_end, a.nodes, a.granted.v) <
                     std::tie(b.expected_end, b.nodes, b.granted.v);
            });
}

EasyBackfillPolicy::Reservation EasyBackfillPolicy::compute_reservation(
    const QueuedJob& head, const ClusterView& cluster, Seconds now) const {
  Reservation r;
  std::size_t available = cluster.eligible_free(head.preview);
  if (available >= head.nodes) {
    // Head can start immediately; everything free beyond its need is spare.
    r.shadow_time = now;
    r.extra_nodes = available - head.nodes;
    return r;
  }
  // Walk running jobs in completion order, crediting the head-covering
  // machines they release. Conservative: a running job's machines count
  // only when its grant covers the head's request, since every machine
  // the allocator gave it covers that grant.
  for (const RunningJobInfo& job : by_end_) {
    if (job.granted.covers(head.preview, kMaxResourceDims)) {
      available += job.nodes;
    }
    if (available >= head.nodes) {
      r.shadow_time = std::max(job.expected_end, now);
      r.extra_nodes = available - head.nodes;
      return r;
    }
  }
  // Even draining everything is not enough (the head needs machines the
  // cluster lacks at this capacity); no reservation can be honoured, so
  // allow unrestricted backfilling.
  r.shadow_time = std::numeric_limits<double>::infinity();
  r.extra_nodes = std::numeric_limits<std::size_t>::max();
  return r;
}

std::optional<std::size_t> EasyBackfillPolicy::pick_next(
    const std::deque<QueuedJob>& queue, const ClusterView& cluster,
    const std::vector<RunningJobInfo>& running, Seconds now) {
  if (queue.empty()) return std::nullopt;
  if (fits_now(queue.front(), cluster)) return 0;

  const QueuedJob& head = queue.front();
  refresh_by_end(running);
  const Reservation res = compute_reservation(head, cluster, now);

  for (std::size_t i = 1; i < queue.size(); ++i) {
    const QueuedJob& candidate = queue[i];
    if (!fits_now(candidate, cluster)) continue;

    // (a) Finishes before the head's reservation.
    const Seconds expected_end = now + candidate.requested_time;
    if (expected_end <= res.shadow_time) return i;

    // (b) Cannot touch head-covering machines: the allocator fills the
    // candidate before it reaches a free machine covering the head. A
    // candidate whose request covers the head's has no such machines
    // (every machine covering it covers the head), so the guard saves
    // the pool walk.
    if (!candidate.preview.covers(head.preview, kMaxResourceDims) &&
        cluster.eligible_free_before(candidate.preview, head.preview) >=
            candidate.nodes) {
      return i;
    }

    // (c) Extra-nodes rule: head-covering spare capacity at the shadow
    // time absorbs the candidate even if it runs long.
    if (candidate.nodes <= res.extra_nodes) return i;
  }
  return std::nullopt;
}

}  // namespace resmatch::sched
