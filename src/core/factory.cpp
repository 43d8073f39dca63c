#include "core/factory.hpp"

#include <stdexcept>

#include "core/bracketing.hpp"

namespace resmatch::core {

std::vector<std::string> estimator_names() {
  return {"none",
          "successive-approximation",
          "bracketing",
          "last-instance",
          "reinforcement-learning",
          "regression-ridge",
          "regression-knn",
          "quantile",
          "ensemble"};
}

std::unique_ptr<Estimator> make_estimator(const std::string& name,
                                          const EstimatorOptions& options) {
  if (name == "none") {
    return std::make_unique<NoEstimator>();
  }
  if (name == "successive-approximation") {
    SuccessiveApproxConfig cfg;
    cfg.alpha = options.alpha;
    cfg.beta = options.beta;
    cfg.record_trajectories = options.record_trajectories;
    return std::make_unique<SuccessiveApproximationEstimator>(cfg);
  }
  if (name == "bracketing") {
    return std::make_unique<BracketingEstimator>();
  }
  if (name == "last-instance") {
    LastInstanceConfig cfg;
    cfg.window = options.window;
    cfg.margin = options.margin;
    return std::make_unique<LastInstanceEstimator>(cfg);
  }
  if (name == "reinforcement-learning") {
    RlEstimatorConfig cfg;
    cfg.seed = options.seed;
    cfg.max_pending = options.rl_max_pending;
    return std::make_unique<RlEstimator>(cfg);
  }
  if (name == "regression-ridge" || name == "regression-knn") {
    RegressionConfig cfg;
    cfg.model = name == "regression-ridge" ? RegressionModel::kRidge
                                           : RegressionModel::kKnn;
    cfg.margin = options.regression_margin;
    cfg.min_observations = options.min_observations;
    cfg.max_burned_keys = options.max_burned_keys;
    return std::make_unique<RegressionEstimator>(cfg);
  }
  if (name == "quantile") {
    QuantileEstimatorConfig cfg;
    cfg.tau = options.quantile_tau;
    cfg.min_observations = options.min_observations;
    return std::make_unique<QuantileEstimator>(cfg);
  }
  if (name == "ensemble") {
    EnsembleConfig cfg;
    cfg.alpha = options.alpha;
    cfg.beta = options.beta;
    cfg.quantile.tau = options.quantile_tau;
    cfg.quantile.min_observations = options.min_observations;
    cfg.coverage_threshold = options.coverage_threshold;
    return std::make_unique<EnsembleEstimator>(cfg);
  }
  throw std::invalid_argument("unknown estimator: " + name);
}

bool requires_explicit_feedback(const std::string& name) {
  return name == "last-instance" || name == "regression-ridge" ||
         name == "regression-knn" || name == "quantile" || name == "ensemble";
}

}  // namespace resmatch::core
