// Dense layer: shapes, Keras-style time distribution, gradient checks for
// every activation, and parameter bookkeeping.
#include <gtest/gtest.h>

#include "gradient_check.hpp"
#include "nn/dense.hpp"

namespace geonas::nn {
namespace {

using testing::check_layer_gradients;
using testing::LayerDriver;
using testing::random_tensor;

TEST(Dense, OutputShape) {
  Dense layer(3, 7);
  Rng rng(1);
  layer.init_params(rng);
  const Tensor3 x = random_tensor(4, 5, 3, rng);
  LayerDriver driver(layer);
  const Tensor3 y = driver.forward(x, false);
  EXPECT_EQ(y.dim0(), 4u);
  EXPECT_EQ(y.dim1(), 5u);
  EXPECT_EQ(y.dim2(), 7u);
}

TEST(Dense, TimeDistributedConsistency) {
  // The same feature vector at different (batch, time) positions must map
  // to the same output.
  Dense layer(2, 3);
  Rng rng(2);
  layer.init_params(rng);
  Tensor3 x(2, 2, 2);
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t t = 0; t < 2; ++t) {
      x(b, t, 0) = 0.3;
      x(b, t, 1) = -0.7;
    }
  }
  LayerDriver driver(layer);
  const Tensor3 y = driver.forward(x, false);
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t t = 0; t < 2; ++t) {
      for (std::size_t f = 0; f < 3; ++f) {
        EXPECT_DOUBLE_EQ(y(b, t, f), y(0, 0, f));
      }
    }
  }
}

TEST(Dense, ParamCount) {
  Dense with_bias(4, 6);
  EXPECT_EQ(with_bias.param_count(), 4u * 6u + 6u);
  Dense no_bias(4, 6, Activation::kIdentity, /*use_bias=*/false);
  EXPECT_EQ(no_bias.param_count(), 4u * 6u);
}

TEST(Dense, RejectsBadInput) {
  Dense layer(3, 2);
  Rng rng(3);
  layer.init_params(rng);
  const Tensor3 wrong = random_tensor(1, 2, 5, rng);
  LayerDriver driver(layer);
  EXPECT_THROW((void)driver.forward(wrong, false), std::invalid_argument);
  EXPECT_THROW(Dense(0, 2), std::invalid_argument);
}

class DenseGradient : public ::testing::TestWithParam<Activation> {};

TEST_P(DenseGradient, MatchesFiniteDifferences) {
  Dense layer(3, 4, GetParam());
  Rng rng(10 + static_cast<int>(GetParam()));
  layer.init_params(rng);
  const Tensor3 x = random_tensor(2, 3, 3, rng, 0.8);
  const Tensor3 target = random_tensor(2, 3, 4, rng, 0.8);
  check_layer_gradients(layer, x, target);
}

INSTANTIATE_TEST_SUITE_P(Activations, DenseGradient,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kReLU,
                                           Activation::kTanh,
                                           Activation::kSigmoid));

TEST(Dense, NoBiasGradient) {
  Dense layer(2, 3, Activation::kIdentity, /*use_bias=*/false);
  Rng rng(20);
  layer.init_params(rng);
  const Tensor3 x = random_tensor(2, 2, 2, rng);
  const Tensor3 target = random_tensor(2, 2, 3, rng);
  check_layer_gradients(layer, x, target);
}

TEST(Dense, NameIncludesActivation) {
  EXPECT_EQ(Dense(1, 8).name(), "Dense(8)");
  EXPECT_EQ(Dense(1, 8, Activation::kReLU).name(), "Dense(8)[relu]");
}

TEST(Dense, GlorotInitBounded) {
  Dense layer(100, 100);
  Rng rng(30);
  layer.init_params(rng);
  const double limit = std::sqrt(6.0 / 200.0);
  const Matrix* w = layer.parameters()[0];
  for (double v : w->flat()) {
    EXPECT_LE(std::abs(v), limit + 1e-12);
  }
}

}  // namespace
}  // namespace geonas::nn
