// Activation functions: scalar derivatives and span transforms.
//
// The per-element loops call the span transforms below, which dispatch
// the transcendental activations to the vectorized tensor::vmath
// backend; nn code never calls std::exp/std::tanh itself (see
// tools/geonas_lint.py, transcendental-in-nn). tensor::vref holds the
// scalar reference.
#pragma once

#include <span>

namespace geonas::nn {

/// Derivative expressed in terms of the activation value s = sigmoid(x).
inline double sigmoid_grad_from_value(double s) noexcept { return s * (1.0 - s); }

/// Derivative in terms of the activation value t = tanh(x).
inline double tanh_grad_from_value(double t) noexcept { return 1.0 - t * t; }

inline double relu(double x) noexcept { return x > 0.0 ? x : 0.0; }
inline double relu_grad_from_input(double x) noexcept { return x > 0.0 ? 1.0 : 0.0; }

/// Supported activations for Dense layers.
enum class Activation { kIdentity, kReLU, kTanh, kSigmoid };

/// In-place span activation through the tensor::vmath backend — what
/// the Dense/Merge forward passes call instead of per-element loops.
void apply_activation(Activation a, std::span<double> x);

/// In-place gradient-through-activation: dz[i] *= d(act)/dx at element
/// i, given the cached pre-activations and activation values. All three
/// spans must have equal length.
void activation_grad_mul(Activation a, std::span<double> dz,
                         std::span<const double> pre,
                         std::span<const double> post);

[[nodiscard]] const char* activation_name(Activation a) noexcept;

}  // namespace geonas::nn
