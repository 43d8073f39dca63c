// Online quantile-regression estimator (explicit feedback, no similarity
// groups — the learning quadrant of the paper's Table 1, upper-bound
// flavoured).
//
// The ridge estimator predicts the *mean* of log-usage, then papers over
// under-prediction with a fixed multiplicative margin. That is the wrong
// loss for capacity planning: granting below actual usage kills the job,
// granting above merely wastes capacity, so the penalty is asymmetric.
// This estimator regresses a configurable high percentile (default 0.95)
// of log2 used memory directly, via pinball-loss SGD over the same
// ml::job_features — the subgradient steps are intrinsically upper-bound
// biased (an under-prediction moves the plane up tau/(1-tau) times as hard
// as an over-prediction moves it down).
//
// On top of the raw quantile prediction sits a risk-aware safety margin:
// feedback tracks the observed kill (resource-failure) rate as an EWMA and
// widens the margin when kills exceed the configured target rate, narrows
// it when kills run well below target. Widening is much faster than
// narrowing — a kill costs a re-execution, slack costs only capacity.
//
// Held-out quality is tracked prequentially: each labeled observation is
// first scored (did the current model's prediction cover the actual
// usage?) and only then trained on, so coverage_ is an honest estimate of
// out-of-sample coverage. The ensemble estimator keys its per-group
// hand-over on this number.
#pragma once

#include "core/estimator.hpp"
#include "ml/features.hpp"
#include "ml/quantile.hpp"

namespace resmatch::core {

struct QuantileEstimatorConfig {
  /// Target percentile of log2 used memory (upper-bound biased).
  double tau = 0.95;
  /// Pinball-loss SGD step size.
  double learning_rate = 0.5;
  /// Pass requests through until this many labeled observations are seen.
  std::size_t min_observations = 100;
  /// Initial multiplicative headroom over the predicted quantile.
  double margin = 1.10;
  /// Risk-aware margin bounds: never below min (raw prediction) nor above
  /// max (at which point the model is not earning its keep). A floor
  /// below 1.0 measurably backfires: shaving the raw quantile converts
  /// slack into kills, and every kill both forces a retry and swings the
  /// controller, costing more capacity than the shave saved.
  double min_margin = 1.0;
  double max_margin = 4.0;
  /// Acceptable resource-failure rate; the margin controller steers the
  /// observed kill EWMA toward this.
  double target_kill_rate = 0.02;
  /// Horizon (in observations) of the kill-rate and coverage EWMAs.
  std::size_t ewma_horizon = 128;
};

class QuantileEstimator final : public Estimator {
 public:
  explicit QuantileEstimator(QuantileEstimatorConfig config = {});

  [[nodiscard]] std::string name() const override { return "quantile"; }

  [[nodiscard]] MiB estimate(const trace::JobRecord& job,
                             const SystemState& state) override;

  [[nodiscard]] MiB preview(const trace::JobRecord& job,
                            const SystemState& state) const override;

  void feedback(const trace::JobRecord& job, const Feedback& fb) override;

  [[nodiscard]] std::vector<double> save_state() const override;
  [[nodiscard]] bool load_state(const std::vector<double>& state) override;
  [[nodiscard]] std::optional<ModelStats> model_stats() const override;

  /// Enough labeled observations to trust predictions over pass-through.
  [[nodiscard]] bool warm() const noexcept {
    return regressor_.observations() >= config_.min_observations;
  }

  /// Prequential coverage of the raw (margin-free) prediction.
  [[nodiscard]] double coverage() const noexcept { return coverage_; }

  [[nodiscard]] double margin() const noexcept { return margin_; }

  [[nodiscard]] std::size_t observations() const noexcept {
    return regressor_.observations();
  }

 private:
  /// Layout version stamped first in save_state() blobs.
  static constexpr double kStateVersion = 1.0;

  QuantileEstimatorConfig config_;
  ml::OnlineQuantileRegressor regressor_;
  double margin_;
  /// Prequential EWMAs (horizon config_.ewma_horizon): fraction of recent
  /// observations covered by the raw prediction / killed for resources.
  double coverage_ = 0.0;
  double kill_ = 0.0;
};

}  // namespace resmatch::core
