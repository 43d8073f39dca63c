#include "sched/easy_backfill.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <tuple>

namespace resmatch::sched {

namespace {

/// EASY's by-end order, a total order: entries that compare equal are
/// identical, so the sorted sequence does not depend on the order
/// `running` arrived in.
bool ends_before(const RunningJobInfo& a, const RunningJobInfo& b) {
  return std::tie(a.expected_end, a.nodes, a.granted.v) <
         std::tie(b.expected_end, b.nodes, b.granted.v);
}

/// Remove one entry identical to `job` from the sorted `by_end`.
void erase_sorted(std::vector<RunningJobInfo>& by_end,
                  const RunningJobInfo& job) {
  const auto it =
      std::lower_bound(by_end.begin(), by_end.end(), job, ends_before);
  assert(it != by_end.end() && *it == job);
  by_end.erase(it);
}

/// Insert `job` into the sorted `by_end`, after every entry equal to it.
void insert_sorted(std::vector<RunningJobInfo>& by_end,
                   const RunningJobInfo& job) {
  by_end.insert(
      std::upper_bound(by_end.begin(), by_end.end(), job, ends_before), job);
}

}  // namespace

void EasyBackfillPolicy::refresh_by_end(
    const std::vector<RunningJobInfo>& running) {
  // Position by position, swap the old entry for the new one; an
  // unchanged position removes and adds the same entry, so it is skipped.
  const std::size_t common = std::min(running.size(), last_running_.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (running[i] == last_running_[i]) continue;
    erase_sorted(by_end_, last_running_[i]);
    insert_sorted(by_end_, running[i]);
    last_running_[i] = running[i];
  }
  for (std::size_t i = common; i < last_running_.size(); ++i) {
    erase_sorted(by_end_, last_running_[i]);
  }
  for (std::size_t i = common; i < running.size(); ++i) {
    insert_sorted(by_end_, running[i]);
  }
  last_running_.resize(common);
  last_running_.insert(last_running_.end(), running.begin() + common,
                       running.end());
}

EasyBackfillPolicy::Reservation EasyBackfillPolicy::compute_reservation(
    const QueuedJob& head, std::size_t available, Seconds now) const {
  Reservation r;
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
  const QueuedJob& head = queue.front();
  const std::size_t head_free = cluster.eligible_free(head.preview);
  if (head_free >= head.nodes) return 0;  // fits_now(head)

  refresh_by_end(running);
  const Reservation res = compute_reservation(head, head_free, now);

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
