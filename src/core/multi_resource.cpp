#include "core/multi_resource.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "core/factory.hpp"
#include "util/rng.hpp"

namespace resmatch::core {

MultiResourceEstimator::MultiResourceEstimator(std::size_t dimensions,
                                               MultiResourceConfig config)
    : dims_(dimensions), config_(config) {
  assert(dimensions >= 1);
  assert(config.alpha > 1.0);
  assert(config.beta >= 0.0 && config.beta < 1.0);
}

std::vector<double> MultiResourceEstimator::estimate(
    GroupId group, const std::vector<double>& requested) {
  assert(requested.size() == dims_);
  auto [it, inserted] = groups_.try_emplace(group);
  GroupState& g = it->second;
  if (inserted) {
    g.estimate = requested;
    g.last_good = requested;
    g.alpha.assign(dims_, config_.alpha);
  }
  // Probe exactly one coordinate below its last-good value; all others
  // stay at last-good so a failure has a single possible culprit.
  std::vector<double> out = g.last_good;
  const std::size_t k = g.probe % dims_;
  if (g.alpha[k] > 1.0) {
    out[k] = g.last_good[k] / g.alpha[k];
  }
  g.estimate = out;
  g.awaiting_feedback = true;
  return out;
}

void MultiResourceEstimator::feedback(GroupId group, bool success) {
  const auto it = groups_.find(group);
  if (it == groups_.end()) return;
  GroupState& g = it->second;
  if (!g.awaiting_feedback) return;
  g.awaiting_feedback = false;

  const std::size_t k = g.probe % dims_;
  if (success) {
    // The probed value worked; adopt it and move to the next coordinate.
    g.last_good = g.estimate;
  } else {
    // Blame is unambiguous: only coordinate k was below last-good.
    g.alpha[k] = std::max(1.0, config_.beta * g.alpha[k]);
  }
  g.probe = (g.probe + 1) % dims_;
}

std::optional<std::vector<double>> MultiResourceEstimator::last_good(
    GroupId group) const {
  const auto it = groups_.find(group);
  if (it == groups_.end()) return std::nullopt;
  return it->second.last_good;
}

// --- VectorEstimator -------------------------------------------------------

VectorEstimator::VectorEstimator(VectorEstimatorConfig config)
    : config_(std::move(config)) {
  if (config_.dims < 1 || config_.dims > kMaxResourceDims) {
    throw std::invalid_argument("VectorEstimator: dims out of range");
  }
  owned_.reserve(config_.dims);
  for (std::size_t d = 0; d < config_.dims; ++d) {
    owned_.push_back(make_estimator(config_.estimator, config_.options));
    dims_est_[d] = owned_.back().get();
  }
}

VectorEstimator::VectorEstimator(Estimator& scalar) {
  config_.estimator = scalar.name();
  dims_est_[0] = &scalar;
}

bool VectorEstimator::requires_explicit_feedback() const {
  return core::requires_explicit_feedback(config_.estimator);
}

void VectorEstimator::set_ladder(std::size_t dim, CapacityLadder ladder) {
  if (dim >= config_.dims) {
    throw std::out_of_range("VectorEstimator::set_ladder: dim out of range");
  }
  dims_est_[dim]->set_ladder(std::move(ladder));
}

trace::JobRecord VectorEstimator::shim(const trace::JobRecord& job,
                                       const ResourceVector& requested,
                                       std::size_t d) const {
  // Dimension 0 must see the caller's record untouched — the dims=1
  // transparency contract — so the caller never pays a copy there.
  assert(d > 0);
  trace::JobRecord copy = job;
  copy.requested_mem_mib = requested[d];
  copy.used_mem_mib = 0.0;  // never a learning signal; explicit fb carries it
  return copy;
}

ResourceVector VectorEstimator::preview(const trace::JobRecord& job,
                                        const ResourceVector& requested,
                                        std::span<GroupHandle> groups,
                                        const SystemState& state) const {
  assert(groups.size() >= config_.dims);
  ResourceVector out;
  out[0] = dims_est_[0]->preview_with(job, groups[0], state);
  for (std::size_t d = 1; d < config_.dims; ++d) {
    out[d] =
        dims_est_[d]->preview_with(shim(job, requested, d), groups[d], state);
  }
  return out;
}

ResourceVector VectorEstimator::estimate(const trace::JobRecord& job,
                                         const ResourceVector& requested,
                                         std::span<GroupHandle> groups,
                                         const SystemState& state) {
  assert(groups.size() >= config_.dims);
  ResourceVector out;
  out[0] = dims_est_[0]->estimate_with(job, groups[0], state);
  for (std::size_t d = 1; d < config_.dims; ++d) {
    out[d] =
        dims_est_[d]->estimate_with(shim(job, requested, d), groups[d], state);
  }
  return out;
}

std::optional<std::uint64_t> VectorEstimator::preview_epoch(
    const trace::JobRecord& job, const ResourceVector& requested,
    std::span<GroupHandle> groups) const {
  assert(groups.size() >= config_.dims);
  const auto first = dims_est_[0]->preview_epoch_with(job, groups[0]);
  if (!first) return std::nullopt;
  if (config_.dims == 1) return first;  // transparency: scalar epoch as-is
  std::uint64_t combined = util::mix64(*first);
  for (std::size_t d = 1; d < config_.dims; ++d) {
    const auto epoch =
        dims_est_[d]->preview_epoch_with(shim(job, requested, d), groups[d]);
    if (!epoch) return std::nullopt;
    combined = util::mix64(combined ^ (*epoch + 0x9E3779B97F4A7C15ULL * d));
  }
  return combined;
}

void VectorEstimator::cancel(const trace::JobRecord& job,
                             const ResourceVector& requested,
                             std::span<GroupHandle> groups,
                             const ResourceVector& granted) {
  assert(groups.size() >= config_.dims);
  dims_est_[0]->cancel_with(job, groups[0], granted[0]);
  for (std::size_t d = 1; d < config_.dims; ++d) {
    dims_est_[d]->cancel_with(shim(job, requested, d), groups[d], granted[d]);
  }
}

void VectorEstimator::feedback(const trace::JobRecord& job,
                               const ResourceVector& requested,
                               std::span<GroupHandle> groups,
                               const VectorFeedback& fb) {
  assert(groups.size() >= config_.dims);
  for (std::size_t d = 0; d < config_.dims; ++d) {
    Feedback f;
    f.success = fb.success;
    f.granted_mib = fb.granted[d];
    if (fb.explicit_feedback) {
      f.used_mib = fb.used[d];
      f.resource_failure = fb.dim_failure[d];
    }
    if (d == 0) {
      dims_est_[0]->feedback_with(job, groups[0], f);
    } else {
      dims_est_[d]->feedback_with(shim(job, requested, d), groups[d], f);
    }
  }
}

}  // namespace resmatch::core
