#include "core/successive_approximation.hpp"

#include <cassert>

namespace resmatch::core {

SuccessiveApproximationEstimator::SuccessiveApproximationEstimator(
    SuccessiveApproxConfig config, SimilarityKeyFn key_fn)
    : config_(config), index_(std::move(key_fn)) {
  assert(config_.alpha > 1.0);
  assert(config_.beta >= 0.0 && config_.beta < 1.0);
}

GroupId SuccessiveApproximationEstimator::group_for(const trace::JobRecord& job,
                                                   GroupHandle& group) {
  if (group.resolved()) return group.id();
  const GroupId gid = index_.group_of(job);
  if (gid >= groups_.size()) {
    // New group: Algorithm 1 line 4 — E_i <- R, alpha_i <- alpha.
    groups_.resize(gid + 1,
                   SaGroupState::fresh(job.requested_mem_mib, config_.alpha));
  }
  group.resolve(gid);
  return gid;
}

const SaGroupState* SuccessiveApproximationEstimator::find_state(
    const trace::JobRecord& job, GroupHandle& group) const {
  if (!group.resolved()) {
    // Look only: a preview must not create the group (see GroupHandle).
    const auto gid = index_.find(job);
    if (!gid) return nullptr;
    group.resolve(*gid);
  }
  assert(group.id() < groups_.size());
  return &groups_[group.id()];
}

MiB SuccessiveApproximationEstimator::preview(const trace::JobRecord& job,
                                              const SystemState& state) const {
  GroupHandle group;
  return preview_with(job, group, state);
}

std::optional<std::uint64_t> SuccessiveApproximationEstimator::preview_epoch(
    const trace::JobRecord& job) const {
  GroupHandle group;
  return preview_epoch_with(job, group);
}

void SuccessiveApproximationEstimator::cancel(const trace::JobRecord& job,
                                              MiB granted) {
  GroupHandle group;
  cancel_with(job, group, granted);
}

MiB SuccessiveApproximationEstimator::estimate(const trace::JobRecord& job,
                                               const SystemState& state) {
  GroupHandle group;
  return estimate_with(job, group, state);
}

void SuccessiveApproximationEstimator::feedback(const trace::JobRecord& job,
                                                const Feedback& fb) {
  GroupHandle group;
  feedback_with(job, group, fb);
}

MiB SuccessiveApproximationEstimator::preview_with(
    const trace::JobRecord& job, GroupHandle& group,
    const SystemState& /*state*/) const {
  const SaGroupState* g = find_state(job, group);
  // Unknown group: the first estimate will be the request (line 4).
  if (g == nullptr) return ladder_.round_up(job.requested_mem_mib);
  return g->preview(ladder_);
}

std::optional<std::uint64_t>
SuccessiveApproximationEstimator::preview_epoch_with(
    const trace::JobRecord& job, GroupHandle& group) const {
  const SaGroupState* g = find_state(job, group);
  if (g == nullptr) return 0;
  // Live groups start at epoch 1 and every externally reachable mutation
  // bumps before returning, so 0 never collides with a group state.
  return g->epoch;
}

void SuccessiveApproximationEstimator::cancel_with(const trace::JobRecord& job,
                                                   GroupHandle& group,
                                                   MiB granted) {
  if (find_state(job, group) == nullptr) return;
  groups_[group.id()].cancel(granted);
}

MiB SuccessiveApproximationEstimator::estimate_with(
    const trace::JobRecord& job, GroupHandle& group,
    const SystemState& /*state*/) {
  const GroupId gid = group_for(job, group);
  const MiB granted = groups_[gid].commit(ladder_);
  if (config_.record_trajectories) {
    if (gid >= grants_.size()) grants_.resize(gid + 1);
    if (grants_[gid].size() < config_.trajectory_cap) {
      grants_[gid].push_back(granted);
    }
  }
  return granted;
}

void SuccessiveApproximationEstimator::feedback_with(
    const trace::JobRecord& job, GroupHandle& group, const Feedback& fb) {
  SaGroupState& g = groups_[group_for(job, group)];
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
  GroupHandle group;
  const SaGroupState* g = find_state(job, group);
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
