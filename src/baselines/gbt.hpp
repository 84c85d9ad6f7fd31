// Gradient-boosted regression trees (XGBoost-style squared-loss boosting).
//
// For squared loss, each boosting round fits a shallow tree to the current
// residuals and adds shrinkage * prediction to the model — Friedman's
// gradient boosting, which is what XGBoost reduces to with squared loss
// and no regularization terms. Multi-output targets boost one model per
// output column (as xgboost does). Defaults follow xgboost
// (100 rounds, eta = 0.3, max_depth = 6).
#pragma once

#include "baselines/tree.hpp"

namespace geonas::baselines {

struct GradientBoostingConfig {
  std::size_t n_rounds = 100;
  double learning_rate = 0.3;  // xgboost eta
  TreeConfig tree{.max_depth = 6,
                  .min_samples_split = 2,
                  .min_samples_leaf = 1,
                  .max_features = 1.0};
};

class GradientBoosting final : public Regressor {
 public:
  explicit GradientBoosting(
      GradientBoostingConfig config = GradientBoostingConfig{})
      : cfg_(config) {}

  void fit(const Matrix& x, const Matrix& y) override;
  [[nodiscard]] Matrix predict(const Matrix& x) const override;
  [[nodiscard]] std::string name() const override { return "XGBoost"; }

 private:
  GradientBoostingConfig cfg_;
  std::vector<std::vector<DecisionTree>> stages_;  // [output][round]
  std::vector<double> base_;                       // initial prediction
  std::size_t n_outputs_ = 0;
};

}  // namespace geonas::baselines
