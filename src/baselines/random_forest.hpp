// Bagged random-forest regressor (Breiman): an ensemble of deep
// multi-output CART trees fitted on bootstrap resamples, predictions
// averaged. Defaults mirror scikit-learn's RandomForestRegressor
// (100 trees, unbounded-ish depth, max_features = 1.0 for regression).
#pragma once

#include <cstdint>

#include "baselines/tree.hpp"

namespace geonas::baselines {

struct RandomForestConfig {
  std::size_t n_trees = 100;
  std::uint64_t seed = 0;
};

class RandomForest final : public Regressor {
 public:
  explicit RandomForest(RandomForestConfig config = RandomForestConfig{})
      : cfg_(config) {}

  void fit(const Matrix& x, const Matrix& y) override;
  [[nodiscard]] Matrix predict(const Matrix& x) const override;
  [[nodiscard]] std::string name() const override { return "RandomForest"; }

  [[nodiscard]] std::size_t size() const noexcept { return trees_.size(); }

 private:
  RandomForestConfig cfg_;
  std::vector<DecisionTree> trees_;
  std::size_t n_outputs_ = 0;
};

}  // namespace geonas::baselines
