#include "core/bracketing.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace resmatch::core {

namespace {
constexpr double kGrantEps = 1e-9;
}  // namespace

BracketingEstimator::BracketingEstimator(BracketingConfig config,
                                         SimilarityKeyFn key_fn)
    : config_(config), index_(std::move(key_fn)) {
  assert(config_.convergence_ratio > 1.0);
}

BracketingEstimator::GroupState& BracketingEstimator::state_for(
    const trace::JobRecord& job) {
  const GroupId gid = index_.group_of(job);
  if (gid >= groups_.size()) {
    GroupState fresh;
    fresh.lo = 0.0;
    // The request is sufficient by assumption: it seeds the bracket top.
    fresh.hi = job.requested_mem_mib;
    groups_.resize(gid + 1, fresh);
  }
  return groups_[gid];
}

MiB BracketingEstimator::next_probe(const GroupState& g,
                                    const trace::JobRecord& /*job*/) const {
  const MiB safe = ladder_.round_up(g.hi);
  if (g.probe_outstanding) return safe;  // serialize experiments
  // First run at the request (hi is assumed, not yet demonstrated).
  if (!g.hi_confirmed) return safe;

  // Converged when the bracket is tight...
  if (g.lo > 0.0 && g.hi / g.lo <= config_.convergence_ratio) return safe;

  // Geometric midpoint; with no failure yet the bracket bottom is the
  // smallest rung (or hi/16 without a ladder) so early probes descend fast.
  const MiB floor =
      g.lo > 0.0 ? g.lo
                 : (ladder_.empty() ? g.hi / 16.0
                                    : std::min(ladder_.min(), g.hi));
  MiB mid = std::sqrt(std::max(floor, 1e-6) * std::max(g.hi, 1e-6));
  MiB probe = ladder_.round_up(mid);
  if (probe + kGrantEps >= safe) {
    // On a coarse ladder the midpoint rounds back onto the safe rung
    // (e.g. bracket [24, 32] on a {24, 32} cluster). Guarantee progress
    // by stepping to the next rung below instead.
    const auto below = ladder_.next_below(safe);
    if (!below) return safe;
    probe = *below;
  }
  // Only grants strictly inside (lo, hi) carry information.
  if (probe + kGrantEps >= safe) return safe;
  if (probe <= g.lo + kGrantEps) return safe;
  return probe;
}

MiB BracketingEstimator::preview(const trace::JobRecord& job,
                                 const SystemState& /*state*/) const {
  const auto gid = index_.find(job);
  if (!gid || *gid >= groups_.size()) {
    return ladder_.round_up(job.requested_mem_mib);
  }
  return next_probe(groups_[*gid], job);
}

MiB BracketingEstimator::estimate(const trace::JobRecord& job,
                                  const SystemState& /*state*/) {
  GroupState& g = state_for(job);
  const MiB granted = next_probe(g, job);
  const MiB safe = ladder_.round_up(g.hi);
  if (granted + kGrantEps < safe) {
    g.probe_outstanding = true;
    g.probe_grant = granted;
  }
  return granted;
}

void BracketingEstimator::cancel(const trace::JobRecord& job, MiB granted) {
  const auto gid = index_.find(job);
  if (!gid || *gid >= groups_.size()) return;
  GroupState& g = groups_[*gid];
  if (g.probe_outstanding && std::fabs(granted - g.probe_grant) <= kGrantEps) {
    g.probe_outstanding = false;
  }
}

void BracketingEstimator::feedback(const trace::JobRecord& job,
                                   const Feedback& fb) {
  GroupState& g = state_for(job);
  if (g.probe_outstanding &&
      std::fabs(fb.granted_mib - g.probe_grant) <= kGrantEps) {
    g.probe_outstanding = false;
  }

  if (fb.success) {
    // A success anywhere tightens the top of the bracket.
    if (fb.granted_mib < g.hi) g.hi = fb.granted_mib;
    g.hi_confirmed = true;
    return;
  }

  if (fb.granted_mib + kGrantEps < g.hi) {
    // Failure strictly inside the bracket: raise the bottom.
    g.lo = std::max(g.lo, fb.granted_mib);
  } else {
    // Failure AT (or above) the believed-safe capacity: a higher-usage
    // member or a false positive. Widen upward — hi was wrong for this
    // member — capped at the request, which is sufficient by assumption.
    g.lo = std::max(g.lo, fb.granted_mib);
    const auto rung = ladder_.next_above(g.hi);
    MiB widened = rung ? *rung : job.requested_mem_mib;
    widened = std::min(widened, std::max(job.requested_mem_mib, g.hi));
    g.hi = std::max(g.hi, widened);
    // Keep the invariant lo < hi.
    if (g.lo + kGrantEps >= g.hi) g.lo = 0.0;
  }
}

std::optional<MiB> BracketingEstimator::group_capacity(
    const trace::JobRecord& job) const {
  const auto gid = index_.find(job);
  if (!gid || *gid >= groups_.size()) return std::nullopt;
  return groups_[*gid].hi;
}

}  // namespace resmatch::core
