#include "core/quantile_estimator.hpp"

#include <algorithm>
#include <cmath>

namespace resmatch::core {

QuantileEstimator::QuantileEstimator(QuantileEstimatorConfig config)
    : config_(config),
      regressor_(ml::kJobFeatureCount,
                 {config.tau, config.learning_rate}),
      margin_(config.margin) {
  config_.max_margin = std::max(config_.max_margin, config_.min_margin);
  margin_ = std::clamp(margin_, config_.min_margin, config_.max_margin);
  if (config_.ewma_horizon == 0) config_.ewma_horizon = 1;
}

MiB QuantileEstimator::estimate(const trace::JobRecord& job,
                                const SystemState& state) {
  // Prediction is stateless; the model itself advances only in feedback().
  return preview(job, state);
}

MiB QuantileEstimator::preview(const trace::JobRecord& job,
                               const SystemState& /*state*/) const {
  if (!warm()) {
    return ladder_.round_up(job.requested_mem_mib);
  }
  const double predicted_target = regressor_.predict(ml::job_features(job));
  const MiB predicted = ml::target_to_mib(predicted_target) * margin_;
  // A request is a safe upper bound; never estimate above it.
  const MiB target = std::clamp(predicted, 0.0, job.requested_mem_mib);
  return ladder_.round_up(target);
}

void QuantileEstimator::feedback(const trace::JobRecord& job,
                                 const Feedback& fb) {
  const double lambda = 1.0 / static_cast<double>(config_.ewma_horizon);

  // Risk-aware margin control, driven by every attempt outcome (kills are
  // visible even when usage is not). Widening is deliberately much faster
  // than narrowing: a kill costs a re-execution, slack only capacity.
  const bool killed = fb.resource_failure.value_or(!fb.success);
  kill_ += lambda * ((killed ? 1.0 : 0.0) - kill_);
  if (warm()) {
    if (kill_ > config_.target_kill_rate) {
      margin_ *= 1.02;
    } else if (kill_ < config_.target_kill_rate / 2.0) {
      margin_ /= 1.005;
    }
    margin_ = std::clamp(margin_, config_.min_margin, config_.max_margin);
  }

  // Quantile regression requires explicit feedback; without a usage
  // observation there is nothing to learn from.
  if (!fb.used_mib) return;
  trace::JobRecord labeled = job;
  labeled.used_mem_mib = *fb.used_mib;
  const auto features = ml::job_features(labeled);
  const double target = ml::usage_target(labeled);
  // Prequential scoring: judge the prediction BEFORE training on the
  // observation, so coverage_ honestly estimates out-of-sample coverage.
  const bool covered = regressor_.predict(features) >= target;
  coverage_ += lambda * ((covered ? 1.0 : 0.0) - coverage_);
  regressor_.update(features, target);
}

std::vector<double> QuantileEstimator::save_state() const {
  std::vector<double> out;
  const auto model = regressor_.state();
  out.reserve(4 + model.size());
  out.push_back(kStateVersion);
  out.push_back(margin_);
  out.push_back(coverage_);
  out.push_back(kill_);
  out.insert(out.end(), model.begin(), model.end());
  return out;
}

bool QuantileEstimator::load_state(const std::vector<double>& state) {
  if (state.size() < 4 || state[0] != kStateVersion) return false;
  const double margin = state[1];
  const double coverage = state[2];
  const double kill = state[3];
  if (!std::isfinite(margin) || margin < config_.min_margin ||
      margin > config_.max_margin) {
    return false;
  }
  if (!(coverage >= 0.0 && coverage <= 1.0) || !(kill >= 0.0 && kill <= 1.0)) {
    return false;
  }
  if (!regressor_.restore({state.begin() + 4, state.end()})) return false;
  margin_ = margin;
  coverage_ = coverage;
  kill_ = kill;
  return true;
}

std::optional<ModelStats> QuantileEstimator::model_stats() const {
  ModelStats stats;
  stats.coverage = coverage_;
  stats.margin = margin_;
  stats.observations = regressor_.observations();
  return stats;
}

}  // namespace resmatch::core
