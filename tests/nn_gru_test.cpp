// GRU layer: BPTT gradient checks, sequence semantics, and Dropout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "gradient_check.hpp"
#include "nn/dropout.hpp"
#include "nn/gru.hpp"

namespace geonas::nn {
namespace {

using testing::check_layer_gradients;
using testing::LayerDriver;
using testing::random_tensor;

TEST(GRU, OutputShapeReturnsFullSequence) {
  GRU layer(3, 6);
  Rng rng(1);
  layer.init_params(rng);
  const Tensor3 x = random_tensor(4, 7, 3, rng);
  LayerDriver driver(layer);
  const Tensor3 y = driver.forward(x, false);
  EXPECT_EQ(y.dim0(), 4u);
  EXPECT_EQ(y.dim1(), 7u);
  EXPECT_EQ(y.dim2(), 6u);
}

TEST(GRU, ParamCountMatchesKeras) {
  // Keras GRU (reset_after=False): 3 * units * (input + units + 1).
  GRU layer(5, 16);
  EXPECT_EQ(layer.param_count(), 3u * 16u * (5u + 16u + 1u));
}

TEST(GRU, StatelessAcrossCalls) {
  GRU layer(2, 4);
  Rng rng(2);
  layer.init_params(rng);
  const Tensor3 x = random_tensor(1, 5, 2, rng);
  LayerDriver driver(layer);
  EXPECT_EQ(driver.forward(x, false), driver.forward(x, false));
}

TEST(GRU, CausalInTime) {
  GRU layer(2, 3);
  Rng rng(3);
  layer.init_params(rng);
  Tensor3 x = random_tensor(1, 6, 2, rng);
  LayerDriver driver(layer);
  const Tensor3 before = driver.forward(x, false);
  x(0, 5, 1) += 5.0;
  const Tensor3 after = driver.forward(x, false);
  for (std::size_t t = 0; t < 5; ++t) {
    for (std::size_t u = 0; u < 3; ++u) {
      EXPECT_DOUBLE_EQ(before(0, t, u), after(0, t, u));
    }
  }
}

TEST(GRU, GradientMatchesFiniteDifferencesSmall) {
  GRU layer(2, 3);
  Rng rng(4);
  layer.init_params(rng);
  const Tensor3 x = random_tensor(2, 3, 2, rng, 0.7);
  const Tensor3 target = random_tensor(2, 3, 3, rng, 0.5);
  check_layer_gradients(layer, x, target, 1e-5, 2e-6);
}

TEST(GRU, GradientMatchesFiniteDifferencesLongerSequence) {
  GRU layer(3, 4);
  Rng rng(5);
  layer.init_params(rng);
  const Tensor3 x = random_tensor(1, 8, 3, rng, 0.6);
  const Tensor3 target = random_tensor(1, 8, 4, rng, 0.5);
  check_layer_gradients(layer, x, target, 1e-5, 3e-6);
}

TEST(GRU, GradientMatchesFiniteDifferencesTightTolerance) {
  GRU layer(3, 5);
  Rng rng(10);
  layer.init_params(rng);
  const Tensor3 x = random_tensor(2, 4, 3, rng, 0.6);
  const Tensor3 target = random_tensor(2, 4, 5, rng, 0.5);
  check_layer_gradients(layer, x, target, 1e-5, 1e-6);
}

TEST(GRU, ForwardMatchesScalarReferenceAtPaperScale) {
  // Paper-scale shape (batch 32, units 40, 8 steps): the split z/r and
  // candidate recurrent GEMMs must agree with a plain per-sample scalar
  // recurrence to round-off.
  constexpr std::size_t kB = 32, kT = 8, kIn = 5, kU = 40;
  GRU layer(kIn, kU);
  Rng rng(11);
  layer.init_params(rng);
  const Tensor3 x = random_tensor(kB, kT, kIn, rng, 0.8);
  LayerDriver driver(layer);
  const Tensor3 y = driver.forward(x, false);

  const Matrix& wx = *layer.parameters()[0];
  const Matrix& wh = *layer.parameters()[1];
  const Matrix& b = *layer.parameters()[2];
  std::vector<double> h(kU), a(3 * kU);
  for (std::size_t bi = 0; bi < kB; ++bi) {
    std::fill(h.begin(), h.end(), 0.0);
    for (std::size_t t = 0; t < kT; ++t) {
      // z and r see the raw previous state.
      for (std::size_t j = 0; j < 2 * kU; ++j) {
        double acc = b(0, j);
        for (std::size_t i = 0; i < kIn; ++i) acc += x(bi, t, i) * wx(i, j);
        for (std::size_t u = 0; u < kU; ++u) acc += h[u] * wh(u, j);
        a[j] = 1.0 / (1.0 + std::exp(-acc));
      }
      // The candidate sees r .* h_{t-1}.
      for (std::size_t j = 2 * kU; j < 3 * kU; ++j) {
        double acc = b(0, j);
        for (std::size_t i = 0; i < kIn; ++i) acc += x(bi, t, i) * wx(i, j);
        for (std::size_t u = 0; u < kU; ++u) {
          acc += a[kU + u] * h[u] * wh(u, j);
        }
        a[j] = std::tanh(acc);
      }
      for (std::size_t u = 0; u < kU; ++u) {
        h[u] = (1.0 - a[u]) * h[u] + a[u] * a[2 * kU + u];
        ASSERT_NEAR(y(bi, t, u), h[u], 1e-10)
            << "b=" << bi << " t=" << t << " u=" << u;
      }
    }
  }
}

TEST(GRU, RejectsBadShapes) {
  EXPECT_THROW(GRU(0, 4), std::invalid_argument);
  EXPECT_THROW(GRU(4, 0), std::invalid_argument);
  GRU layer(3, 4);
  Rng rng(6);
  layer.init_params(rng);
  const Tensor3 wrong = random_tensor(1, 2, 5, rng);
  LayerDriver driver(layer);
  EXPECT_THROW((void)driver.forward(wrong, false), std::invalid_argument);
}

TEST(GRU, Name) { EXPECT_EQ(GRU(5, 32).name(), "GRU(32)"); }

TEST(Dropout, IdentityAtInference) {
  Dropout layer(0.5);
  Rng rng(7);
  layer.init_params(rng);
  const Tensor3 x = random_tensor(2, 3, 4, rng);
  LayerDriver driver(layer);
  EXPECT_EQ(driver.forward(x, false), x);
}

TEST(Dropout, TrainingZeroesAndRescales) {
  Dropout layer(0.5);
  Rng rng(8);
  layer.init_params(rng);
  Tensor3 x(1, 1, 10000, 1.0);
  LayerDriver driver(layer);
  const Tensor3 y = driver.forward(x, true);
  std::size_t zeros = 0;
  double sum = 0.0;
  for (double v : y.flat()) {
    if (v == 0.0) {
      ++zeros;
    } else {
      EXPECT_DOUBLE_EQ(v, 2.0);  // 1 / (1 - 0.5)
    }
    sum += v;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.5, 0.03);
  // Inverted dropout keeps the expectation.
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.06);
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout layer(0.3);
  Rng rng(9);
  layer.init_params(rng);
  const Tensor3 x = random_tensor(1, 2, 50, rng);
  LayerDriver driver(layer);
  const Tensor3 y = driver.forward(x, true);
  Tensor3 g(1, 2, 50, 1.0);
  const auto grads = driver.backward(g);
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y.flat()[i] == 0.0) {
      EXPECT_DOUBLE_EQ(grads[0].flat()[i], 0.0);
    } else {
      EXPECT_NEAR(grads[0].flat()[i], 1.0 / 0.7, 1e-12);
    }
  }
}

TEST(Dropout, RateValidation) {
  EXPECT_THROW(Dropout(-0.1), std::invalid_argument);
  EXPECT_THROW(Dropout(1.0), std::invalid_argument);
  EXPECT_NO_THROW(Dropout(0.0));
}

}  // namespace
}  // namespace geonas::nn
