// Scalar activation functions, their derivatives, and span transforms.
//
// The scalar functions are the per-element reference used by callers
// that touch single values (initializers, tests, the RL heads). Hot
// per-element loops in the nn layers must not call them — they route
// through the span transforms below, which dispatch to the vectorized
// tensor::vmath backend (see tools/geonas_lint.py, transcendental-in-nn).
#pragma once

#include <cmath>
#include <span>

namespace geonas::nn {

/// Numerically stable two-sided sigmoid: exp only ever sees a
/// non-positive argument, so large |x| saturates to exactly 0/1 instead
/// of overflowing exp(-x) to inf on the way (the naive 1/(1+exp(-x))
/// does at x <= -709.8).
inline double sigmoid(double x) noexcept {
  // geonas-lint: allow(transcendental-in-nn) scalar reference; loops use tensor::vmath
  const double e = std::exp(-std::fabs(x));
  const double num = std::signbit(x) ? e : 1.0;
  return num / (1.0 + e);
}
/// Derivative expressed in terms of the activation value s = sigmoid(x).
inline double sigmoid_grad_from_value(double s) noexcept { return s * (1.0 - s); }

// geonas-lint: allow(transcendental-in-nn) scalar reference; loops use tensor::vmath
inline double tanh_act(double x) noexcept { return std::tanh(x); }
/// Derivative in terms of the activation value t = tanh(x).
inline double tanh_grad_from_value(double t) noexcept { return 1.0 - t * t; }

inline double relu(double x) noexcept { return x > 0.0 ? x : 0.0; }
inline double relu_grad_from_input(double x) noexcept { return x > 0.0 ? 1.0 : 0.0; }

/// Supported activations for Dense layers.
enum class Activation { kIdentity, kReLU, kTanh, kSigmoid };

inline double apply_activation(Activation a, double x) noexcept {
  switch (a) {
    case Activation::kReLU: return relu(x);
    case Activation::kTanh: return tanh_act(x);
    case Activation::kSigmoid: return sigmoid(x);
    case Activation::kIdentity: break;
  }
  return x;
}

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
