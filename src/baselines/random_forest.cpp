#include "baselines/random_forest.hpp"

#include <stdexcept>

namespace geonas::baselines {

namespace {
/// Deep trees on every feature (scikit-learn's regression default).
constexpr TreeConfig kTree{.max_depth = 24,
                           .min_samples_split = 2,
                           .min_samples_leaf = 1,
                           .max_features = 1.0};
}  // namespace

void RandomForest::fit(const Matrix& x, const Matrix& y) {
  check_fit_args(x, y, "RandomForest");
  trees_.clear();
  trees_.reserve(cfg_.n_trees);
  n_outputs_ = y.cols();
  Rng rng(cfg_.seed);
  std::vector<std::size_t> bootstrap(x.rows());
  for (std::size_t t = 0; t < cfg_.n_trees; ++t) {
    for (std::size_t i = 0; i < bootstrap.size(); ++i) {
      bootstrap[i] = rng.uniform_index(x.rows());
    }
    DecisionTree tree(kTree, rng.next());
    tree.fit_rows(x, y, bootstrap);
    trees_.push_back(std::move(tree));
  }
}

Matrix RandomForest::predict(const Matrix& x) const {
  if (trees_.empty()) throw std::logic_error("RandomForest: predict before fit");
  Matrix out(x.rows(), n_outputs_, 0.0);
  std::vector<double> row(n_outputs_);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (const DecisionTree& tree : trees_) {
      tree.predict_row(x.row_span(r), row);
      for (std::size_t o = 0; o < n_outputs_; ++o) out(r, o) += row[o];
    }
  }
  out *= 1.0 / static_cast<double>(trees_.size());
  return out;
}

}  // namespace geonas::baselines
