// Helpers shared by the nn tests: a driver that runs a standalone layer
// the way GraphNetwork runs its nodes, and finite-difference gradient
// checks.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <span>
#include <vector>

#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "tensor/arena.hpp"
#include "tensor/matrix.hpp"
#include "tensor/random.hpp"

namespace geonas::nn::testing {

/// Runs one standalone layer as GraphNetwork runs a node: before a
/// forward that outgrows the latest bind it resets a test-owned arena
/// and rebinds the layer for the grown shape, then calls forward_into /
/// backward_into on tensors it allocates. The layer must outlive it.
class LayerDriver {
 public:
  explicit LayerDriver(Layer& layer) : layer_(&layer) {}

  Tensor3 forward(std::span<const Tensor3* const> inputs, bool training) {
    const Tensor3& x = *inputs[0];
    if (!shape_.fits(x, training)) {
      const WorkspaceShape grown = shape_.grown(x, training);
      shape_ = {};  // a throwing bind leaves the layer unbound
      arena_.reset();
      layer_->bind(arena_, grown);
      shape_ = grown;
    }
    in_shapes_.clear();
    for (const Tensor3* in : inputs) {
      in_shapes_.push_back(Tensor3(in->dim0(), in->dim1(), in->dim2()));
    }
    Tensor3 out(x.dim0(), x.dim1(), layer_->output_features(x.dim2()));
    layer_->forward_into(inputs, out, training);
    return out;
  }

  Tensor3 forward(const Tensor3& x, bool training) {
    const Tensor3* ptr = &x;
    return forward({&ptr, 1}, training);
  }

  /// One gradient per input of the latest forward.
  std::vector<Tensor3> backward(const Tensor3& grad_output) {
    std::vector<Tensor3> grads = in_shapes_;
    std::vector<Tensor3*> ptrs;
    for (Tensor3& g : grads) ptrs.push_back(&g);
    layer_->backward_into(grad_output, ptrs);
    return grads;
  }

 private:
  Layer* layer_;
  tensor::Arena arena_;
  WorkspaceShape shape_;
  std::vector<Tensor3> in_shapes_;  // zero tensors shaped like the inputs
};

inline Tensor3 random_tensor(std::size_t b, std::size_t t, std::size_t f,
                             Rng& rng, double scale = 1.0) {
  Tensor3 x(b, t, f);
  for (double& v : x.flat()) v = scale * rng.normal();
  return x;
}

/// Checks every parameter gradient and the input gradient of a
/// single-input layer against central finite differences of the MSE loss.
inline void check_layer_gradients(Layer& layer, const Tensor3& input,
                                  const Tensor3& target, double eps = 1e-5,
                                  double tol = 1e-6) {
  LayerDriver driver(layer);
  auto loss_of = [&](const Tensor3& x) {
    return mse_loss(target, driver.forward(x, /*training=*/false));
  };

  // Analytic gradients.
  layer.zero_grad();
  const Tensor3 out = driver.forward(input, /*training=*/true);
  const auto input_grads = driver.backward(mse_grad(target, out));
  ASSERT_EQ(input_grads.size(), 1u);

  // Parameter gradients.
  const auto params = layer.parameters();
  const auto grads = layer.gradients();
  ASSERT_EQ(params.size(), grads.size());
  for (std::size_t p = 0; p < params.size(); ++p) {
    const auto gflat = grads[p]->flat();
    // Each write re-acquires the mutable span: Matrix::version() only
    // advances on mutable-accessor calls, and the layers' prepacked
    // weight panels use it to notice changes. Perturbing through a span
    // cached across loss evaluations would mutate the weights invisibly
    // and the packed forward would keep serving stale panels.
    for (std::size_t i = 0; i < gflat.size(); ++i) {
      const double saved = params[p]->flat()[i];
      params[p]->flat()[i] = saved + eps;
      const double up = loss_of(input);
      params[p]->flat()[i] = saved - eps;
      const double down = loss_of(input);
      params[p]->flat()[i] = saved;
      const double numeric = (up - down) / (2.0 * eps);
      ASSERT_NEAR(gflat[i], numeric, tol)
          << "param " << p << " element " << i;
    }
  }

  // Input gradient.
  Tensor3 x = input;
  auto xflat = x.flat();
  const auto iglat = input_grads[0].flat();
  ASSERT_EQ(iglat.size(), xflat.size());
  for (std::size_t i = 0; i < xflat.size(); ++i) {
    const double saved = xflat[i];
    xflat[i] = saved + eps;
    const double up = loss_of(x);
    xflat[i] = saved - eps;
    const double down = loss_of(x);
    xflat[i] = saved;
    ASSERT_NEAR(iglat[i], (up - down) / (2.0 * eps), tol)
        << "input element " << i;
  }
}

}  // namespace geonas::nn::testing
