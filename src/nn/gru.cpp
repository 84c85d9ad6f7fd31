#include "nn/gru.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "hpc/parallel_for.hpp"
#include "tensor/blas.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/vmath.hpp"

namespace geonas::nn {

GRU::GRU(std::size_t in_features, std::size_t units)
    : in_(in_features),
      units_(units),
      wx_(in_features, 3 * units),
      wh_(units, 3 * units),
      b_(1, 3 * units),
      wx_grad_(in_features, 3 * units),
      wh_grad_(units, 3 * units),
      b_grad_(1, 3 * units),
      pack_sites_{{{&wx_pack_, &wx_, Trans::kNone, 0, 3 * units},
                   {&wh_zr_pack_, &wh_, Trans::kNone, 0, 2 * units},
                   {&wh_h_pack_, &wh_, Trans::kNone, 2 * units, units},
                   {&wh_zr_t_pack_, &wh_, Trans::kTranspose, 0, 2 * units},
                   {&wh_h_t_pack_, &wh_, Trans::kTranspose, 2 * units, units},
                   {&wx_t_pack_, &wx_, Trans::kTranspose, 0, 3 * units}}} {
  if (in_ == 0 || units_ == 0) {
    throw std::invalid_argument("GRU: zero-sized dimension");
  }
}

void GRU::init_params(Rng& rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(in_ + 3 * units_));
  for (double& v : wx_.flat()) v = rng.uniform(-limit, limit);
  const double rscale = 1.0 / std::sqrt(static_cast<double>(units_));
  for (double& v : wh_.flat()) v = rng.normal(0.0, rscale);
  b_.fill(0.0);
}

std::unique_ptr<Layer> GRU::clone() const {
  auto copy = std::make_unique<GRU>(in_, units_);
  copy->wx_ = wx_;
  copy->wh_ = wh_;
  copy->b_ = b_;
  return copy;
}

void GRU::bind_workspace(tensor::Arena& arena, const WorkspaceShape& shape) {
  if (shape.features != in_) {
    throw std::invalid_argument("GRU: input feature dim " +
                                std::to_string(shape.features) + " != " +
                                std::to_string(in_));
  }
  const std::size_t batch = shape.batch, steps = shape.steps;
  const std::size_t g3 = 3 * units_;
  const std::size_t rows = batch * steps;
  x_tm_.bind(arena, rows, in_);
  gates_.bind(arena, rows, g3);
  h_seq_.bind(arena, (steps + 1) * batch, units_);
  rh_.bind(arena, rows, units_);
  if (shape.training) {
    da_.bind(arena, rows, g3);
    dh_.bind(arena, batch, units_);
    drh_.bind(arena, batch, units_);
  }
}

void GRU::forward_into(std::span<const Tensor3* const> inputs, Tensor3& out,
                       bool training) {
  const Tensor3& x = single_input(inputs, "GRU");
  require_bound(x, training);
  const std::size_t batch = x.dim0(), steps = x.dim1();
  const std::size_t g3 = 3 * units_;
  const std::size_t rows = batch * steps;
  batch_ = batch;

  // Weight panels: packed once, re-validated per pass (a version-counter
  // compare unless the optimizer touched the weights since last pack).
  wx_pack_.ensure(wx_, Trans::kNone);
  wh_zr_pack_.ensure_block(wh_, Trans::kNone, 0, 2 * units_);
  wh_h_pack_.ensure_block(wh_, Trans::kNone, 2 * units_, units_);
  const double* bias = b_.flat().data();

  // The whole pass is one fork-join over batch-row slices (see
  // LSTM::forward_into): each chunk zeroes its rows of h_0, gathers its
  // rows of x time-major, projects them through Wx and adds the bias,
  // then steps them through the recurrence.
  const double flops = 2.0 * static_cast<double>(rows) *
                       static_cast<double>(g3) *
                       static_cast<double>(in_ + units_);
  hpc::parallel_for(
      0, batch, flops, detail::kMR, [&](std::size_t lo, std::size_t hi) {
        const std::size_t n = hi - lo;
        std::fill_n(h_seq_.flat().data() + lo * units_, n * units_, 0.0);
        project_input_rows(x, lo, hi, x_tm_, wx_pack_, bias, gates_);
        for (std::size_t t = 0; t < steps; ++t) {
          const std::size_t row = t * batch + lo;
          double* a = gates_.flat().data() + row * g3;
          const double* h_prev = h_seq_.flat().data() + row * units_;
          // z/r recurrent terms see the raw previous state: the [z | r]
          // column block of Wh, prepacked as its own (units x 2*units)
          // panel.
          gemm_raw(Trans::kNone, n, 1.0, h_prev, units_, wh_zr_pack_, 1.0, a,
                   g3);
          // Fused z/r gate sigmoids + the candidate's recurrent input
          // r .* h_{t-1} (tensor::vmath).
          double* rh = rh_.flat().data() + row * units_;
          tensor::gru_pointwise_zr(n, units_, a, h_prev, rh);
          // Candidate recurrent term against the [h] column block of Wh.
          gemm_raw(Trans::kNone, n, 1.0, rh, units_, wh_h_pack_, 1.0,
                   a + 2 * units_, g3);
          // Fused candidate tanh + state blend, scattered straight into
          // the batch-major output (tensor::vmath).
          double* h_new = h_seq_.flat().data() + (row + batch) * units_;
          tensor::gru_pointwise_out(
              n, units_, a, h_prev, h_new,
              out.flat().data() + (lo * steps + t) * units_, steps * units_);
        }
      });
}

void GRU::backward_into(const Tensor3& grad_output,
                        std::span<Tensor3* const> input_grads) {
  if (!bound().training) {
    throw std::logic_error("GRU::backward: no training forward");
  }
  const std::size_t batch = batch_, steps = bound().steps;
  if (grad_output.dim0() != batch || grad_output.dim1() != steps ||
      grad_output.dim2() != units_ || input_grads.size() != 1 ||
      input_grads[0] == nullptr) {
    throw std::invalid_argument("GRU::backward: gradient shape mismatch");
  }
  const std::size_t g3 = 3 * units_;
  const std::size_t rows = batch * steps;

  // dh_ carries state across timesteps and must start the recursion at
  // zero; every other workspace row is fully overwritten below.
  std::fill_n(dh_.flat().data(), batch * units_, 0.0);

  // Transposed weight panels for the input-gradient GEMMs (packed once;
  // transposition happened at pack time, so BPTT reads them forward).
  wh_h_t_pack_.ensure_block(wh_, Trans::kTranspose, 2 * units_, units_);
  wh_zr_t_pack_.ensure_block(wh_, Trans::kTranspose, 0, 2 * units_);
  wx_t_pack_.ensure(wx_, Trans::kTranspose);

  // BPTT data path: one fork-join over batch-row slices (see
  // LSTM::backward_into); for t = T-1..0 each chunk runs its rows of:
  //   through h_new = (1 - z) h_prev + z hh: the z and candidate
  //     pre-activation gradients, dh_ rewritten with the direct
  //     (1 - z) path (tensor::vmath);
  //   d(r .* h_prev) = da_h Uh^T over the candidate column block;
  //   through rh = r .* h_prev: the r-gate gradient, dh_ += drh .* r;
  //   dh_{t-1} += da_zr W_zr^T, and the dX_t rows = dA_t Wx^T written
  //     straight into the batch-major [B, T, in] result.
  double* dx = input_grads[0]->flat().data();
  const double data_flops = 2.0 * static_cast<double>(rows) *
                            static_cast<double>(g3) *
                            static_cast<double>(units_ + in_);
  hpc::parallel_for(
      0, batch, data_flops, detail::kMR, [&](std::size_t lo, std::size_t hi) {
        const std::size_t n = hi - lo;
        double* dh = dh_.flat().data() + lo * units_;
        double* drh = drh_.flat().data() + lo * units_;
        for (std::size_t t = steps; t-- > 0;) {
          const std::size_t row = t * batch + lo;
          const double* gates = gates_.flat().data() + row * g3;
          const double* h_prev = h_seq_.flat().data() + row * units_;
          double* da = da_.flat().data() + row * g3;
          tensor::gru_pointwise_backward_zh(
              n, units_, gates, h_prev,
              grad_output.flat().data() + (lo * steps + t) * units_,
              steps * units_, dh, da);
          gemm_raw(Trans::kNone, n, 1.0, da + 2 * units_, g3, wh_h_t_pack_,
                   0.0, drh, units_);
          tensor::gru_pointwise_backward_r(n, units_, gates, h_prev, drh, dh,
                                           da);
          gemm_raw(Trans::kNone, n, 1.0, da, g3, wh_zr_t_pack_, 1.0, dh,
                   units_);
          gemm_raw(Trans::kNone, n, 1.0, da, g3, wx_t_pack_, 0.0,
                   dx + (lo * steps + t) * in_, steps * in_);
        }
      });

  // Weight gradients: one fork-join over the rows of [Wx_grad; Wh_grad;
  // b_grad] (see LSTM::backward_into): Wx_grad += X^T dA as one K = T*B
  // product; for t = T-1..0, Wh_grad[:, z|r] += h_{t-1}^T da_zr and
  // Wh_grad[:, h] += rh^T da_h; the bias row reduced t descending.
  const double weight_flops = 2.0 * static_cast<double>(rows) *
                              static_cast<double>(g3) *
                              static_cast<double>(in_ + units_ + 1);
  // Matrix::flat() bumps the version counter: take the gradient pointers
  // once here rather than in every chunk (see LSTM::backward_into).
  double* wxg = wx_grad_.flat().data();
  double* whg = wh_grad_.flat().data();
  double* bg = b_grad_.flat().data();
  hpc::parallel_for(
      0, in_ + units_ + 1, weight_flops, detail::kMR,
      [&](std::size_t lo, std::size_t hi) {
        if (lo < in_) {
          const std::size_t end = std::min(hi, in_);
          gemm_raw(Trans::kTranspose, Trans::kNone, end - lo, g3, rows, 1.0,
                   x_tm_.flat().data() + lo, in_, da_.flat().data(), g3, 1.0,
                   wxg + lo * g3, g3);
        }
        if (hi > in_ && lo < in_ + units_) {
          const std::size_t h_lo = std::max(lo, in_) - in_;
          const std::size_t h_hi = std::min(hi, in_ + units_) - in_;
          double* whg_rows = whg + h_lo * g3;
          for (std::size_t t = steps; t-- > 0;) {
            const double* da = da_.flat().data() + t * batch * g3;
            gemm_raw(Trans::kTranspose, Trans::kNone, h_hi - h_lo, 2 * units_,
                     batch, 1.0,
                     h_seq_.flat().data() + t * batch * units_ + h_lo, units_,
                     da, g3, 1.0, whg_rows, g3);
            gemm_raw(Trans::kTranspose, Trans::kNone, h_hi - h_lo, units_,
                     batch, 1.0, rh_.flat().data() + t * batch * units_ + h_lo,
                     units_, da + 2 * units_, g3, 1.0, whg_rows + 2 * units_,
                     g3);
          }
        }
        if (hi == in_ + units_ + 1) {
          tensor::recurrent_bias_grad(steps, batch, g3, da_.flat().data(),
                                      bg);
        }
      });
}

std::vector<Matrix*> GRU::parameters() { return {&wx_, &wh_, &b_}; }
std::vector<Matrix*> GRU::gradients() {
  return {&wx_grad_, &wh_grad_, &b_grad_};
}

std::string GRU::name() const { return "GRU(" + std::to_string(units_) + ")"; }

}  // namespace geonas::nn
