// Classical baselines: OLS exactness, tree/forest/boosting behaviour,
// NARX windows, and the manual-LSTM factory.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/gbt.hpp"
#include "baselines/linear.hpp"
#include "baselines/manual_lstm.hpp"
#include "baselines/narx.hpp"
#include "baselines/random_forest.hpp"
#include "baselines/reference.hpp"
#include "baselines/tree.hpp"
#include "tensor/blas.hpp"
#include "tensor/random.hpp"
#include "tensor/stats.hpp"

namespace geonas::baselines {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (double& v : m.flat()) v = rng.uniform(-1.0, 1.0);
  return m;
}

TEST(Linear, RecoversExactLinearMap) {
  Rng rng(1);
  const Matrix x = random_matrix(100, 4, rng);
  Matrix w(4, 2);
  for (double& v : w.flat()) v = rng.uniform(-2.0, 2.0);
  Matrix y = matmul(x, w);
  LinearForecaster lin;
  lin.fit(x, y);
  const Matrix pred = lin.predict(x);
  EXPECT_GT(r2_score(y, pred), 0.999999);
}

TEST(Linear, InterceptIsLearned) {
  Rng rng(2);
  const Matrix x = random_matrix(60, 2, rng);
  Matrix y(60, 1);
  for (std::size_t i = 0; i < 60; ++i) {
    y(i, 0) = 3.0 * x(i, 0) - 1.5 * x(i, 1) + 7.0;
  }
  LinearForecaster lin;
  lin.fit(x, y);
  EXPECT_NEAR(lin.intercept()[0], 7.0, 1e-8);
  EXPECT_NEAR(lin.weights()(0, 0), 3.0, 1e-8);
}

TEST(Linear, Validation) {
  LinearForecaster lin;
  EXPECT_THROW((void)lin.predict(Matrix(1, 1)), std::logic_error);
  EXPECT_THROW(lin.fit(Matrix(0, 1), Matrix(0, 1)), std::invalid_argument);
  Rng rng(3);
  lin.fit(random_matrix(10, 3, rng), random_matrix(10, 1, rng));
  EXPECT_THROW((void)lin.predict(Matrix(2, 4)), std::invalid_argument);
}

TEST(Tree, FitsPiecewiseConstantExactly) {
  // y = sign(x0): one split suffices.
  Matrix x(40, 1), y(40, 1);
  for (std::size_t i = 0; i < 40; ++i) {
    x(i, 0) = static_cast<double>(i) - 19.5;
    y(i, 0) = x(i, 0) > 0.0 ? 1.0 : -1.0;
  }
  DecisionTree tree({.max_depth = 3});
  tree.fit(x, y);
  const Matrix pred = tree.predict(x);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_DOUBLE_EQ(pred(i, 0), y(i, 0));
  }
  EXPECT_LE(tree.depth(), 3u);
}

TEST(Tree, MultiOutputSharedSplits) {
  Rng rng(4);
  const Matrix x = random_matrix(80, 3, rng);
  Matrix y(80, 2);
  for (std::size_t i = 0; i < 80; ++i) {
    y(i, 0) = x(i, 0) > 0.0 ? 2.0 : -2.0;
    y(i, 1) = x(i, 0) > 0.0 ? -1.0 : 1.0;  // same structure, both outputs
  }
  DecisionTree tree({.max_depth = 2});
  tree.fit(x, y);
  const Matrix pred = tree.predict(x);
  EXPECT_GT(r2_score(y, pred), 0.99);
}

TEST(Tree, MaxDepthLimitsMemorization) {
  Rng rng(5);
  const Matrix x = random_matrix(100, 2, rng);
  const Matrix y = random_matrix(100, 1, rng);  // pure noise
  DecisionTree shallow({.max_depth = 1});
  shallow.fit(x, y);
  DecisionTree deep({.max_depth = 20});
  deep.fit(x, y);
  // Deeper trees memorize noise better on the training set.
  EXPECT_GT(r2_score(y, deep.predict(x)), r2_score(y, shallow.predict(x)));
}

TEST(Tree, DeterministicForSeed) {
  Rng rng(6);
  const Matrix x = random_matrix(50, 4, rng);
  const Matrix y = random_matrix(50, 2, rng);
  DecisionTree a({.max_depth = 6, .max_features = 0.5}, 9);
  DecisionTree b({.max_depth = 6, .max_features = 0.5}, 9);
  a.fit(x, y);
  b.fit(x, y);
  EXPECT_EQ(a.predict(x), b.predict(x));
}

TEST(RandomForest, BeatsSingleTreeOnNoisyData) {
  Rng rng(7);
  const std::size_t n = 200;
  Matrix x = random_matrix(n, 3, rng);
  Matrix y(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    y(i, 0) = std::sin(2.0 * x(i, 0)) + 0.4 * x(i, 1) + 0.3 * rng.normal();
  }
  // Held-out split.
  const auto rows = [](const Matrix& m, std::size_t r0, std::size_t r1) {
    Matrix out(r1 - r0, m.cols());
    for (std::size_t r = r0; r < r1; ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) out(r - r0, c) = m(r, c);
    }
    return out;
  };
  const Matrix x_train = rows(x, 0, 150), x_test = rows(x, 150, n);
  const Matrix y_train = rows(y, 0, 150), y_test = rows(y, 150, n);

  DecisionTree tree({.max_depth = 24});
  tree.fit(x_train, y_train);
  RandomForest forest({.n_trees = 30, .seed = 3});
  forest.fit(x_train, y_train);
  EXPECT_EQ(forest.size(), 30u);

  const double tree_r2 = r2_score(y_test, tree.predict(x_test));
  const double forest_r2 = r2_score(y_test, forest.predict(x_test));
  EXPECT_GT(forest_r2, tree_r2);
}

TEST(GradientBoosting, FitsSmoothFunction) {
  Rng rng(8);
  const std::size_t n = 150;
  Matrix x = random_matrix(n, 2, rng);
  Matrix y(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    y(i, 0) = x(i, 0) * x(i, 0) + 0.5 * x(i, 1);
  }
  GradientBoosting gbt({.n_rounds = 60, .learning_rate = 0.2,
                        .tree = {.max_depth = 3}});
  gbt.fit(x, y);
  EXPECT_GT(r2_score(y, gbt.predict(x)), 0.95);
}

TEST(GradientBoosting, TreesCannotExtrapolateTrends) {
  // The mechanism behind Table II's tree-method collapse on 1990-2018:
  // tree predictions saturate outside the training range while a linear
  // model extrapolates.
  Matrix x(50, 1), y(50, 1);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = static_cast<double>(i);
    y(i, 0) = 2.0 * static_cast<double>(i);
  }
  GradientBoosting gbt({.n_rounds = 50, .learning_rate = 0.3});
  gbt.fit(x, y);
  LinearForecaster lin;
  lin.fit(x, y);

  Matrix x_future(1, 1);
  x_future(0, 0) = 200.0;  // far outside training support
  const double tree_pred = gbt.predict(x_future)(0, 0);
  const double lin_pred = lin.predict(x_future)(0, 0);
  EXPECT_NEAR(lin_pred, 400.0, 1e-6);
  EXPECT_LT(tree_pred, 120.0);  // saturates near the training maximum
}

TEST(NARX, FlattenUnflattenRoundTrip) {
  Rng rng(9);
  Tensor3 w(4, 3, 2);
  for (double& v : w.flat()) v = rng.normal();
  const Matrix flat = flatten_windows(w);
  EXPECT_EQ(flat.rows(), 4u);
  EXPECT_EQ(flat.cols(), 6u);
  const Tensor3 back = unflatten_windows(flat, 3, 2);
  EXPECT_EQ(back, w);
  EXPECT_THROW((void)unflatten_windows(flat, 4, 2), std::invalid_argument);
}

TEST(NARX, WrapsRegressorEndToEnd) {
  // Seq-to-seq identity task through the NARX adapter.
  Rng rng(10);
  Tensor3 x(60, 4, 2), y(60, 4, 2);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.flat()[i] = rng.normal();
    y.flat()[i] = 2.0 * x.flat()[i];
  }
  LinearForecaster lin;
  NARXForecaster narx(lin);
  narx.fit(x, y);
  const Tensor3 pred = narx.predict(x);
  EXPECT_EQ(pred.dim1(), 4u);
  EXPECT_EQ(pred.dim2(), 2u);
  EXPECT_GT(r2_score(std::span<const double>(y.flat()),
                     std::span<const double>(pred.flat())),
            0.999);
  EXPECT_EQ(narx.name(), "Linear");
}

TEST(Reference, PersistenceRepeatsLastState) {
  Tensor3 x(2, 3, 2);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.flat()[i] = static_cast<double>(i);
  }
  const Tensor3 pred = persistence_forecast(x, 4);
  EXPECT_EQ(pred.dim1(), 4u);
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_DOUBLE_EQ(pred(0, t, 0), x(0, 2, 0));
    EXPECT_DOUBLE_EQ(pred(1, t, 1), x(1, 2, 1));
  }
  EXPECT_THROW((void)persistence_forecast(Tensor3{}, 2),
               std::invalid_argument);
}

TEST(Reference, ClimatologyLearnsDampedPersistence) {
  // Target = 0.5 * last input + 1.0 per lead: the damped-persistence model
  // recovers it exactly.
  Rng rng(11);
  const std::size_t n = 100, k = 4, f = 2;
  Tensor3 x(n, k, f), y(n, k, f);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t t = 0; t < k; ++t) {
      for (std::size_t m = 0; m < f; ++m) x(i, t, m) = rng.normal();
    }
    for (std::size_t t = 0; t < k; ++t) {
      for (std::size_t m = 0; m < f; ++m) {
        y(i, t, m) = 0.5 * x(i, k - 1, m) + 1.0;
      }
    }
  }
  WindowClimatology clim;
  clim.fit(x, y);
  const Tensor3 pred = clim.predict(x);
  EXPECT_GT(r2_score(std::span<const double>(y.flat()),
                     std::span<const double>(pred.flat())),
            0.999);
  EXPECT_THROW((void)WindowClimatology().predict(x), std::logic_error);
}

TEST(Reference, ClimatologyBeatsNothingOnPureNoise) {
  // On i.i.d. noise targets the climatology collapses to the mean window
  // (slope ~ 0): R^2 ~ 0, never strongly negative.
  Rng rng(12);
  Tensor3 x(200, 3, 1), y(200, 3, 1);
  for (double& v : x.flat()) v = rng.normal();
  for (double& v : y.flat()) v = rng.normal();
  WindowClimatology clim;
  clim.fit(x, y);
  const Tensor3 pred = clim.predict(x);
  const double r2 = r2_score(std::span<const double>(y.flat()),
                             std::span<const double>(pred.flat()));
  EXPECT_GT(r2, -0.1);
  EXPECT_LT(r2, 0.1);
}

TEST(ManualLSTM, GridMatchesPaperTable2) {
  const auto grid = table2_manual_grid();
  ASSERT_EQ(grid.size(), 8u);  // {40, 80, 120, 200} x {1, 5}
  EXPECT_EQ(grid[0].name(), "LSTM-40x1");
  EXPECT_EQ(grid[7].name(), "LSTM-200x5");
}

TEST(ManualLSTM, BuildsTrainableStack) {
  const ManualLSTMSpec spec{.hidden_units = 8, .hidden_layers = 2,
                            .features = 3};
  nn::GraphNetwork net = build_manual_lstm(spec);
  net.init_params(1);
  // LSTM(3->8) + LSTM(8->8) + LSTM(8->3).
  const std::size_t expected = 4 * 8 * (3 + 8 + 1) + 4 * 8 * (8 + 8 + 1) +
                               4 * 3 * (8 + 3 + 1);
  EXPECT_EQ(net.param_count(), expected);
  Tensor3 x(2, 4, 3, 0.1);
  EXPECT_EQ(net.forward(x).dim2(), 3u);
  EXPECT_THROW(build_manual_lstm({.hidden_units = 0}), std::invalid_argument);
}

}  // namespace
}  // namespace geonas::baselines
