#include "nn/dense.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "hpc/parallel_for.hpp"
#include "tensor/blas.hpp"
#include "tensor/gemm_kernel.hpp"

namespace geonas::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features,
             Activation activation, bool use_bias)
    : in_(in_features),
      out_(out_features),
      activation_(activation),
      use_bias_(use_bias),
      w_(in_features, out_features),
      b_(1, out_features),
      w_grad_(in_features, out_features),
      b_grad_(1, out_features),
      pack_sites_{{{&w_pack_, &w_, Trans::kNone},
                   {&w_t_pack_, &w_, Trans::kTranspose}}} {
  if (in_ == 0 || out_ == 0) {
    throw std::invalid_argument("Dense: zero-sized feature dimension");
  }
}

void Dense::init_params(Rng& rng) {
  // Glorot/Xavier uniform — matches Keras's Dense default.
  const double limit = std::sqrt(6.0 / static_cast<double>(in_ + out_));
  for (double& v : w_.flat()) v = rng.uniform(-limit, limit);
  b_.fill(0.0);
}

std::unique_ptr<Layer> Dense::clone() const {
  auto copy = std::make_unique<Dense>(in_, out_, activation_, use_bias_);
  copy->w_ = w_;
  copy->b_ = b_;
  return copy;
}

void Dense::bind_workspace(tensor::Arena& arena, const WorkspaceShape& shape) {
  if (shape.features != in_) {
    throw std::invalid_argument("Dense: input feature dim " +
                                std::to_string(shape.features) + " != " +
                                std::to_string(in_));
  }
  if (shape.training && activation_ != Activation::kIdentity) {
    // An identity Dense backpropagates through grad_output directly; only
    // a real activation needs the pre-/post-activation caches.
    const std::size_t rows = shape.batch * shape.steps;
    preact_cache_.bind(arena, rows, out_);
    output_cache_.bind(arena, rows, out_);
    dz_.bind(arena, rows, out_);
  }
}

void Dense::forward_into(std::span<const Tensor3* const> inputs, Tensor3& out,
                         bool training) {
  const Tensor3& x = single_input(inputs, "Dense");
  require_bound(x, training);
  const std::size_t rows = x.dim0() * x.dim1();

  // Treat [B,T,F] as (B*T) x F; both tensors are contiguous row-major,
  // so the whole layer is one fork-join over row slices: each chunk runs
  // its rows of the GEMM (against the prepacked weight panel,
  // re-validated per pass) inline, then the bias and the activation on
  // the same rows while they are in cache.
  w_pack_.ensure(w_, Trans::kNone);
  const double* bias = use_bias_ ? b_.flat().data() : nullptr;
  const bool cache = training && activation_ != Activation::kIdentity;
  double* preact = cache ? preact_cache_.flat().data() : nullptr;
  double* postact = cache ? output_cache_.flat().data() : nullptr;
  const double* xp = x.flat().data();
  double* op = out.flat().data();
  const double flops = 2.0 * static_cast<double>(rows) *
                       static_cast<double>(in_) * static_cast<double>(out_);
  hpc::parallel_for(
      0, rows, flops, detail::kMR, [&](std::size_t lo, std::size_t hi) {
        const std::size_t n = (hi - lo) * out_;
        double* orows = op + lo * out_;
        gemm_raw(Trans::kNone, hi - lo, 1.0, xp + lo * in_, in_, w_pack_,
                 0.0, orows, out_);
        if (bias != nullptr) {
          for (std::size_t r = 0; r < hi - lo; ++r) {
            double* orow = orows + r * out_;
            for (std::size_t j = 0; j < out_; ++j) orow[j] += bias[j];
          }
        }
        if (activation_ == Activation::kIdentity) return;
        if (preact != nullptr) std::copy_n(orows, n, preact + lo * out_);
        // Span form dispatches tanh/sigmoid to the tensor::vmath backend.
        apply_activation(activation_, {orows, n});
        if (postact != nullptr) std::copy_n(orows, n, postact + lo * out_);
      });
  if (training) input_cache_ = &x;
}

void Dense::backward_into(const Tensor3& grad_output,
                          std::span<Tensor3* const> input_grads) {
  if (input_cache_ == nullptr) {
    throw std::logic_error("Dense::backward: no cached training forward");
  }
  const std::size_t batch = input_cache_->dim0();
  const std::size_t steps = input_cache_->dim1();
  if (grad_output.dim0() != batch || grad_output.dim1() != steps ||
      grad_output.dim2() != out_ || input_grads.size() != 1 ||
      input_grads[0] == nullptr) {
    throw std::invalid_argument("Dense::backward: gradient shape mismatch");
  }
  const std::size_t rows = batch * steps;

  // Gradient through the activation; an identity activation passes
  // grad_output straight into the GEMMs without a copy.
  const double* dz = grad_output.flat().data();
  if (activation_ != Activation::kIdentity) {
    const std::size_t n = rows * out_;
    std::copy(grad_output.flat().begin(), grad_output.flat().end(),
              dz_.flat().begin());
    activation_grad_mul(activation_, dz_.flat().first(n),
                        preact_cache_.flat().first(n),
                        output_cache_.flat().first(n));
    dz = dz_.flat().data();
  }

  // dW += X^T dZ and, in the same fork-join over the rows of
  // [W_grad; b_grad], the bias gradient (the gradient of a constant-one
  // input row) as the last row: every column sum runs rows ascending.
  // Then dX = dZ W^T as one slab GEMM against the prepacked transposed
  // panel. Matrix::flat() bumps the version counter, so the gradient
  // pointers are taken here rather than in the chunks.
  Tensor3& dx = *input_grads[0];
  w_t_pack_.ensure(w_, Trans::kTranspose);
  const double* xp = input_cache_->flat().data();
  double* wg = w_grad_.flat().data();
  double* bg = use_bias_ ? b_grad_.flat().data() : nullptr;
  const std::size_t grad_rows = in_ + (use_bias_ ? 1 : 0);
  const double weight_flops = 2.0 * static_cast<double>(rows) *
                              static_cast<double>(out_) *
                              static_cast<double>(grad_rows);
  hpc::parallel_for(
      0, grad_rows, weight_flops, detail::kMR,
      [&](std::size_t lo, std::size_t hi) {
        if (lo < in_) {
          const std::size_t end = std::min(hi, in_);
          gemm_raw(Trans::kTranspose, Trans::kNone, end - lo, out_, rows, 1.0,
                   xp + lo, in_, dz, out_, 1.0, wg + lo * out_, out_);
        }
        if (bg != nullptr && hi == grad_rows) {
          for (std::size_t r = 0; r < rows; ++r) {
            const double* dzrow = dz + r * out_;
            for (std::size_t j = 0; j < out_; ++j) bg[j] += dzrow[j];
          }
        }
      });
  gemm_raw(Trans::kNone, rows, 1.0, dz, out_, w_t_pack_, 0.0,
           dx.flat().data(), in_);
}

std::vector<Matrix*> Dense::parameters() {
  if (use_bias_) return {&w_, &b_};
  return {&w_};
}

std::vector<Matrix*> Dense::gradients() {
  if (use_bias_) return {&w_grad_, &b_grad_};
  return {&w_grad_};
}

std::string Dense::name() const {
  std::string n = "Dense(" + std::to_string(out_) + ")";
  if (activation_ != Activation::kIdentity) {
    n += std::string("[") + activation_name(activation_) + "]";
  }
  return n;
}

}  // namespace geonas::nn
