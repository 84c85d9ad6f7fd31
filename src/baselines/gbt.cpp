#include "baselines/gbt.hpp"

#include <cstdint>
#include <stdexcept>

namespace geonas::baselines {

namespace {
/// Seed of the stream that gives each round's tree its seed. Every round
/// fits all rows.
constexpr std::uint64_t kSeed = 0;
}  // namespace

void GradientBoosting::fit(const Matrix& x, const Matrix& y) {
  check_fit_args(x, y, "GradientBoosting");
  const std::size_t n = x.rows();
  n_outputs_ = y.cols();
  stages_.assign(n_outputs_, {});
  base_.assign(n_outputs_, 0.0);
  Rng rng(kSeed);

  for (std::size_t o = 0; o < n_outputs_; ++o) {
    // Base score: the target mean.
    double mean = 0.0;
    for (std::size_t r = 0; r < n; ++r) mean += y(r, o);
    mean /= static_cast<double>(n);
    base_[o] = mean;

    Matrix residual(n, 1);
    for (std::size_t r = 0; r < n; ++r) residual(r, 0) = y(r, o) - mean;

    stages_[o].reserve(cfg_.n_rounds);
    std::vector<double> pred(1);
    for (std::size_t round = 0; round < cfg_.n_rounds; ++round) {
      DecisionTree tree(cfg_.tree, rng.next());
      tree.fit(x, residual);
      for (std::size_t r = 0; r < n; ++r) {
        tree.predict_row(x.row_span(r), pred);
        residual(r, 0) -= cfg_.learning_rate * pred[0];
      }
      stages_[o].push_back(std::move(tree));
    }
  }
}

Matrix GradientBoosting::predict(const Matrix& x) const {
  if (stages_.empty()) {
    throw std::logic_error("GradientBoosting: predict before fit");
  }
  Matrix out(x.rows(), n_outputs_);
  std::vector<double> pred(1);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t o = 0; o < n_outputs_; ++o) {
      double acc = base_[o];
      for (const DecisionTree& tree : stages_[o]) {
        tree.predict_row(x.row_span(r), pred);
        acc += cfg_.learning_rate * pred[0];
      }
      out(r, o) = acc;
    }
  }
  return out;
}

}  // namespace geonas::baselines
