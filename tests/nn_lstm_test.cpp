// LSTM layer: full BPTT gradient checks, sequence semantics, state reset
// between batches, and parameter accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "gradient_check.hpp"
#include "nn/lstm.hpp"

namespace geonas::nn {
namespace {

using testing::check_layer_gradients;
using testing::LayerDriver;
using testing::random_tensor;

TEST(LSTM, OutputShapeReturnsFullSequence) {
  LSTM layer(3, 6);
  Rng rng(1);
  layer.init_params(rng);
  const Tensor3 x = random_tensor(4, 7, 3, rng);
  const Tensor3 y = LayerDriver(layer).forward(x, false);
  EXPECT_EQ(y.dim0(), 4u);
  EXPECT_EQ(y.dim1(), 7u);  // return_sequences=true
  EXPECT_EQ(y.dim2(), 6u);
}

TEST(LSTM, ParamCountMatchesKeras) {
  // Keras LSTM: 4 * units * (input + units + 1).
  LSTM layer(5, 16);
  EXPECT_EQ(layer.param_count(), 4u * 16u * (5u + 16u + 1u));
}

TEST(LSTM, HiddenStateResetsBetweenCalls) {
  LSTM layer(2, 4);
  Rng rng(2);
  layer.init_params(rng);
  const Tensor3 x = random_tensor(1, 5, 2, rng);
  LayerDriver driver(layer);
  const Tensor3 y1 = driver.forward(x, false);
  const Tensor3 y2 = driver.forward(x, false);
  EXPECT_EQ(y1, y2);  // stateless across calls (Keras default)
}

TEST(LSTM, CausalInTime) {
  // Output at time t must not depend on inputs at times > t.
  LSTM layer(2, 3);
  Rng rng(3);
  layer.init_params(rng);
  Tensor3 x = random_tensor(1, 6, 2, rng);
  LayerDriver driver(layer);
  const Tensor3 y_before = driver.forward(x, false);
  x(0, 5, 0) += 10.0;  // perturb the last step only
  const Tensor3 y_after = driver.forward(x, false);
  for (std::size_t t = 0; t < 5; ++t) {
    for (std::size_t u = 0; u < 3; ++u) {
      EXPECT_DOUBLE_EQ(y_before(0, t, u), y_after(0, t, u)) << "t=" << t;
    }
  }
  // ... and the final step must change.
  double diff = 0.0;
  for (std::size_t u = 0; u < 3; ++u) {
    diff += std::abs(y_before(0, 5, u) - y_after(0, 5, u));
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(LSTM, BatchIndependence) {
  // Each batch element evolves independently.
  LSTM layer(2, 3);
  Rng rng(4);
  layer.init_params(rng);
  const Tensor3 x = random_tensor(2, 4, 2, rng);
  Tensor3 x0(1, 4, 2), x1(1, 4, 2);
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t f = 0; f < 2; ++f) {
      x0(0, t, f) = x(0, t, f);
      x1(0, t, f) = x(1, t, f);
    }
  }
  LayerDriver driver(layer);
  const Tensor3 joint = driver.forward(x, false);
  const Tensor3 solo0 = driver.forward(x0, false);
  const Tensor3 solo1 = driver.forward(x1, false);
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t u = 0; u < 3; ++u) {
      EXPECT_NEAR(joint(0, t, u), solo0(0, t, u), 1e-12);
      EXPECT_NEAR(joint(1, t, u), solo1(0, t, u), 1e-12);
    }
  }
}

TEST(LSTM, ForgetGateBiasIsOne) {
  LSTM layer(3, 4);
  Rng rng(5);
  layer.init_params(rng);
  const Matrix* b = layer.parameters()[2];
  for (std::size_t u = 0; u < 4; ++u) {
    EXPECT_DOUBLE_EQ((*b)(0, u), 0.0);           // input gate
    EXPECT_DOUBLE_EQ((*b)(0, 4 + u), 1.0);       // forget gate
    EXPECT_DOUBLE_EQ((*b)(0, 8 + u), 0.0);       // candidate
    EXPECT_DOUBLE_EQ((*b)(0, 12 + u), 0.0);      // output gate
  }
}

TEST(LSTM, GradientMatchesFiniteDifferencesSmall) {
  LSTM layer(2, 3);
  Rng rng(6);
  layer.init_params(rng);
  const Tensor3 x = random_tensor(2, 3, 2, rng, 0.7);
  const Tensor3 target = random_tensor(2, 3, 3, rng, 0.5);
  check_layer_gradients(layer, x, target, 1e-5, 2e-6);
}

TEST(LSTM, GradientMatchesFiniteDifferencesLongerSequence) {
  LSTM layer(3, 4);
  Rng rng(7);
  layer.init_params(rng);
  const Tensor3 x = random_tensor(1, 8, 3, rng, 0.6);
  const Tensor3 target = random_tensor(1, 8, 4, rng, 0.5);
  check_layer_gradients(layer, x, target, 1e-5, 3e-6);
}

TEST(LSTM, GradientMatchesFiniteDifferencesTightTolerance) {
  // The batched-GEMM formulation must hold analytic gradients to 1e-6
  // against central differences across both batch and time.
  LSTM layer(3, 5);
  Rng rng(9);
  layer.init_params(rng);
  const Tensor3 x = random_tensor(2, 4, 3, rng, 0.6);
  const Tensor3 target = random_tensor(2, 4, 5, rng, 0.5);
  check_layer_gradients(layer, x, target, 1e-5, 1e-6);
}

TEST(LSTM, ForwardMatchesScalarReferenceAtPaperScale) {
  // Paper-scale shape (batch 32, units 40, 8 steps): the whole-sequence
  // input GEMM + per-step recurrent GEMM must agree with a plain
  // per-sample scalar recurrence to round-off.
  constexpr std::size_t kB = 32, kT = 8, kIn = 5, kU = 40;
  LSTM layer(kIn, kU);
  Rng rng(10);
  layer.init_params(rng);
  const Tensor3 x = random_tensor(kB, kT, kIn, rng, 0.8);
  const Tensor3 y = LayerDriver(layer).forward(x, false);

  const Matrix& wx = *layer.parameters()[0];
  const Matrix& wh = *layer.parameters()[1];
  const Matrix& b = *layer.parameters()[2];
  std::vector<double> h(kU), c(kU), z(4 * kU);
  for (std::size_t bi = 0; bi < kB; ++bi) {
    std::fill(h.begin(), h.end(), 0.0);
    std::fill(c.begin(), c.end(), 0.0);
    for (std::size_t t = 0; t < kT; ++t) {
      for (std::size_t j = 0; j < 4 * kU; ++j) {
        double acc = b(0, j);
        for (std::size_t i = 0; i < kIn; ++i) acc += x(bi, t, i) * wx(i, j);
        for (std::size_t u = 0; u < kU; ++u) acc += h[u] * wh(u, j);
        z[j] = acc;
      }
      for (std::size_t u = 0; u < kU; ++u) {
        const double ig = 1.0 / (1.0 + std::exp(-z[u]));
        const double fg = 1.0 / (1.0 + std::exp(-z[kU + u]));
        const double gg = std::tanh(z[2 * kU + u]);
        const double og = 1.0 / (1.0 + std::exp(-z[3 * kU + u]));
        c[u] = fg * c[u] + ig * gg;
        h[u] = og * std::tanh(c[u]);
        ASSERT_NEAR(y(bi, t, u), h[u], 1e-10)
            << "b=" << bi << " t=" << t << " u=" << u;
      }
    }
  }
}

TEST(LSTM, RejectsBadShapes) {
  EXPECT_THROW(LSTM(0, 4), std::invalid_argument);
  EXPECT_THROW(LSTM(4, 0), std::invalid_argument);
  LSTM layer(3, 4);
  Rng rng(8);
  layer.init_params(rng);
  const Tensor3 wrong = random_tensor(1, 2, 5, rng);
  EXPECT_THROW((void)LayerDriver(layer).forward(wrong, false),
               std::invalid_argument);
}

TEST(LSTM, ForwardBeyondLatestBindThrowsNamingLayer) {
  // A layer owns no arena: a forward the latest bind() does not fit is
  // refused, never rebound behind the owner's back.
  LSTM layer(3, 4);
  Rng rng(11);
  layer.init_params(rng);
  tensor::Arena arena;
  layer.bind(arena, {.batch = 4, .steps = 5, .features = 3});
  const Tensor3 fits = random_tensor(4, 5, 3, rng);
  const Tensor3* fits_ptr = &fits;
  Tensor3 out(4, 5, 4);
  layer.forward_into({&fits_ptr, 1}, out, false);

  const Tensor3 x = random_tensor(8, 5, 3, rng);
  const Tensor3* ptr = &x;
  Tensor3 wide(8, 5, 4);
  try {
    layer.forward_into({&ptr, 1}, wide, false);
    FAIL() << "batch 8 ran on workspaces bound for batch 4";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("LSTM(4)"), std::string::npos)
        << e.what();
  }
  // An inference bind carves no backward scratch: training is refused too.
  EXPECT_THROW(layer.forward_into({&fits_ptr, 1}, out, true),
               std::logic_error);
}

TEST(LSTM, Name) { EXPECT_EQ(LSTM(5, 96).name(), "LSTM(96)"); }

}  // namespace
}  // namespace geonas::nn
