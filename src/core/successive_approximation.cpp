#include "core/successive_approximation.hpp"

#include <cassert>

namespace resmatch::core {

SuccessiveApproximationEstimator::SuccessiveApproximationEstimator(
    SuccessiveApproxConfig config, SimilarityKeyFn key_fn)
    : config_(config), index_(std::move(key_fn)) {
  assert(config_.alpha > 1.0);
  assert(config_.beta >= 0.0 && config_.beta < 1.0);
}

GroupId SuccessiveApproximationEstimator::group_for(
    const trace::JobRecord& job) {
  const GroupId gid = index_.group_of(job);
  if (gid >= groups_.size()) {
    // New group: Algorithm 1 line 4 — E_i <- R, alpha_i <- alpha.
    groups_.resize(gid + 1,
                   SaGroupState::fresh(job.requested_mem_mib, config_.alpha));
  }
  return gid;
}

const SaGroupState* SuccessiveApproximationEstimator::find_state(
    const trace::JobRecord& job) const {
  const auto gid = index_.find(job);
  if (!gid || *gid >= groups_.size()) return nullptr;
  return &groups_[*gid];
}

MiB SuccessiveApproximationEstimator::preview(const trace::JobRecord& job,
                                              const SystemState& /*state*/) const {
  const SaGroupState* g = find_state(job);
  // Unknown group: the first estimate will be the request (line 4).
  if (g == nullptr) return ladder_.round_up(job.requested_mem_mib);
  return g->preview(ladder_);
}

std::optional<std::uint64_t> SuccessiveApproximationEstimator::preview_epoch(
    const trace::JobRecord& job) const {
  const SaGroupState* g = find_state(job);
  if (g == nullptr) return 0;
  // Live groups start at epoch 1 and every externally reachable mutation
  // bumps before returning, so 0 never collides with a group state.
  return g->epoch;
}

void SuccessiveApproximationEstimator::cancel(const trace::JobRecord& job,
                                              MiB granted) {
  const auto gid = index_.find(job);
  if (!gid || *gid >= groups_.size()) return;
  groups_[*gid].cancel(granted);
}

MiB SuccessiveApproximationEstimator::estimate(const trace::JobRecord& job,
                                               const SystemState& /*state*/) {
  const GroupId gid = group_for(job);
  const MiB granted = groups_[gid].commit(ladder_);
  if (config_.record_trajectories) {
    if (gid >= grants_.size()) grants_.resize(gid + 1);
    if (grants_[gid].size() < config_.trajectory_cap) {
      grants_[gid].push_back(granted);
    }
  }
  return granted;
}

void SuccessiveApproximationEstimator::feedback(const trace::JobRecord& job,
                                                const Feedback& fb) {
  SaGroupState& g = groups_[group_for(job)];
  const bool success =
      g.apply_feedback(fb, job.requested_mem_mib, ladder_, config_.beta);
  if (success) {
    ++successes_;
  } else {
    ++failures_;
  }
}

std::optional<MiB> SuccessiveApproximationEstimator::group_estimate(
    const trace::JobRecord& job) const {
  const SaGroupState* g = find_state(job);
  if (g == nullptr) return std::nullopt;
  return g->estimate;
}

std::vector<MiB> SuccessiveApproximationEstimator::trajectory(
    const trace::JobRecord& job) const {
  const auto gid = index_.find(job);
  if (!gid || *gid >= grants_.size()) return {};
  return grants_[*gid];
}

}  // namespace resmatch::core
