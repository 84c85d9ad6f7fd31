#include "nn/lstm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "hpc/parallel_for.hpp"
#include "tensor/blas.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/vmath.hpp"

namespace geonas::nn {

namespace {

/// The input half of the forward for batch rows [lo, hi) of `x`
/// [batch, steps, in]: gathers those rows into the time-major `x_tm`
/// (row t * batch + b), projects them through the packed Wx into
/// `gates` and adds `bias`. The projection is one GEMM per timestep, or
/// one over the whole sequence when the rows are the whole batch (they
/// are then contiguous). Every gate element gets the operations of a
/// whole-sequence projection GEMM, in order — its K-ordered x*Wx chain,
/// which an M split never changes, then + b — so the bits do not depend
/// on the slicing.
void project_input_rows(const Tensor3& x, std::size_t lo, std::size_t hi,
                        tensor::ArenaMatrix& x_tm,
                        const tensor::PackedPanels& wx, const double* bias,
                        tensor::ArenaMatrix& gates) {
  const std::size_t batch = x.dim0(), steps = x.dim1(), in = x.dim2();
  const std::size_t g = wx.n(), n = hi - lo;
  for (std::size_t b = lo; b < hi; ++b) {
    const double* src = x.flat().data() + b * steps * in;
    for (std::size_t t = 0; t < steps; ++t) {
      std::copy_n(src + t * in, in, x_tm.row_span(t * batch + b).begin());
    }
  }
  if (n == batch) {
    gemm_raw(Trans::kNone, steps * batch, 1.0, x_tm.flat().data(), in, wx,
             0.0, gates.flat().data(), g);
  }
  for (std::size_t t = 0; t < steps; ++t) {
    const std::size_t row = t * batch + lo;
    double* z = gates.flat().data() + row * g;
    if (n != batch) {
      gemm_raw(Trans::kNone, n, 1.0, x_tm.flat().data() + row * in, in, wx,
               0.0, z, g);
    }
    for (std::size_t r = 0; r < n; ++r) {
      double* zrow = z + r * g;
      for (std::size_t j = 0; j < g; ++j) zrow[j] += bias[j];
    }
  }
}

}  // namespace

LSTM::LSTM(std::size_t in_features, std::size_t units)
    : in_(in_features),
      units_(units),
      wx_(in_features, 4 * units),
      wh_(units, 4 * units),
      b_(1, 4 * units),
      wx_grad_(in_features, 4 * units),
      wh_grad_(units, 4 * units),
      b_grad_(1, 4 * units),
      pack_sites_{{{&wx_pack_, &wx_, Trans::kNone},
                   {&wh_pack_, &wh_, Trans::kNone},
                   {&wh_t_pack_, &wh_, Trans::kTranspose},
                   {&wx_t_pack_, &wx_, Trans::kTranspose}}} {
  if (in_ == 0 || units_ == 0) {
    throw std::invalid_argument("LSTM: zero-sized dimension");
  }
}

void LSTM::init_params(Rng& rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(in_ + 4 * units_));
  for (double& v : wx_.flat()) v = rng.uniform(-limit, limit);
  // Scaled-normal recurrent init (a cheap stand-in for orthogonal init that
  // keeps recurrent spectra near unit scale for the small units used here).
  const double rscale = 1.0 / std::sqrt(static_cast<double>(units_));
  for (double& v : wh_.flat()) v = rng.normal(0.0, rscale);
  b_.fill(0.0);
  // Unit forget-gate bias: the standard trick (and Keras default) that lets
  // gradients flow through time early in training.
  for (std::size_t j = units_; j < 2 * units_; ++j) b_(0, j) = 1.0;
}

std::unique_ptr<Layer> LSTM::clone() const {
  auto copy = std::make_unique<LSTM>(in_, units_);
  copy->wx_ = wx_;
  copy->wh_ = wh_;
  copy->b_ = b_;
  return copy;
}

void LSTM::bind_workspace(tensor::Arena& arena, const WorkspaceShape& shape) {
  if (shape.features != in_) {
    throw std::invalid_argument("LSTM: input feature dim " +
                                std::to_string(shape.features) + " != " +
                                std::to_string(in_));
  }
  const std::size_t batch = shape.batch, steps = shape.steps;
  const std::size_t g4 = 4 * units_;
  const std::size_t rows = batch * steps;
  x_tm_.bind(arena, rows, in_);
  gates_.bind(arena, rows, g4);
  h_seq_.bind(arena, (steps + 1) * batch, units_);
  c_seq_.bind(arena, (steps + 1) * batch, units_);
  if (shape.training) {
    dz_.bind(arena, rows, g4);
    dh_.bind(arena, batch, units_);
    dc_.bind(arena, batch, units_);
  }
}

void LSTM::forward_into(std::span<const Tensor3* const> inputs, Tensor3& out,
                        bool training) {
  const Tensor3& x = single_input(inputs, "LSTM");
  require_bound(x, training);
  const std::size_t batch = x.dim0(), steps = x.dim1();
  const std::size_t g4 = 4 * units_;
  const std::size_t rows = batch * steps;
  batch_ = batch;

  // Weight panels: packed once, re-validated per pass (a version-counter
  // compare unless the optimizer touched the weights since last pack).
  wx_pack_.ensure(wx_, Trans::kNone);
  wh_pack_.ensure(wh_, Trans::kNone);
  const double* bias = b_.flat().data();

  // The whole pass is one fork-join over batch-row slices. Rows never
  // interact, so each chunk zeroes its rows of h_0 and c_0, gathers,
  // projects and biases its rows of x (project_input_rows), and steps
  // them through the recurrence; the GEMMs it issues run inline in the
  // chunk. Every gate element still gets x*Wx, then + b, then
  // + h_{t-1} Wh.
  const double flops = 2.0 * static_cast<double>(rows) *
                       static_cast<double>(g4) *
                       static_cast<double>(in_ + units_);
  hpc::parallel_for(
      0, batch, flops, detail::kMR, [&](std::size_t lo, std::size_t hi) {
        const std::size_t n = hi - lo;
        // Zero initial state h_0 = c_0 = 0 for these rows: a larger
        // earlier batch left its t=0 state in them.
        std::fill_n(h_seq_.flat().data() + lo * units_, n * units_, 0.0);
        std::fill_n(c_seq_.flat().data() + lo * units_, n * units_, 0.0);
        project_input_rows(x, lo, hi, x_tm_, wx_pack_, bias, gates_);
        for (std::size_t t = 0; t < steps; ++t) {
          const std::size_t row = t * batch + lo;
          // z_t += h_{t-1} Wh for this slice's rows.
          double* z = gates_.flat().data() + row * g4;
          const double* h_prev = h_seq_.flat().data() + row * units_;
          gemm_raw(Trans::kNone, n, 1.0, h_prev, units_, wh_pack_, 1.0, z,
                   g4);
          // Fused gate nonlinearities + state update (tensor::vmath);
          // gates_ holds post-activation values afterwards (what BPTT
          // needs), and the hidden state is scattered straight into the
          // batch-major output.
          const double* c_prev = c_seq_.flat().data() + row * units_;
          double* c_new = c_seq_.flat().data() + (row + batch) * units_;
          double* h_new = h_seq_.flat().data() + (row + batch) * units_;
          tensor::lstm_pointwise_forward(
              n, units_, z, c_prev, c_new, h_new,
              out.flat().data() + (lo * steps + t) * units_, steps * units_);
        }
      });
}

void LSTM::backward_into(const Tensor3& grad_output,
                         std::span<Tensor3* const> input_grads) {
  if (!bound().training) {
    throw std::logic_error("LSTM::backward: no training forward");
  }
  const std::size_t batch = batch_, steps = bound().steps;
  if (grad_output.dim0() != batch || grad_output.dim1() != steps ||
      grad_output.dim2() != units_ || input_grads.size() != 1 ||
      input_grads[0] == nullptr) {
    throw std::invalid_argument("LSTM::backward: gradient shape mismatch");
  }
  const std::size_t g4 = 4 * units_;
  const std::size_t rows = batch * steps;

  // dh_/dc_ carry state across timesteps and must start the recursion at
  // zero; every other workspace row is fully overwritten below.
  std::fill_n(dh_.flat().data(), batch * units_, 0.0);
  std::fill_n(dc_.flat().data(), batch * units_, 0.0);

  // Transposed weight panels for the input-gradient GEMMs (packed once;
  // transposition happened at pack time, so BPTT reads them forward).
  wh_t_pack_.ensure(wh_, Trans::kTranspose);
  wx_t_pack_.ensure(wx_, Trans::kTranspose);

  // BPTT data path: one fork-join over the same batch-row slices as the
  // forward. For t = T-1..0 each chunk runs, for its rows only, the
  // fused gate backward (dh_/dc_ carry dL/dh_t, dL/dc_t in and dc_
  // leaves dL/dc_{t-1} behind), dH_{t-1} = dZ_t Wh^T, and the dX_t rows
  // = dZ_t Wx^T written straight into the batch-major [B, T, in] result.
  double* dx = input_grads[0]->flat().data();
  const double data_flops = 2.0 * static_cast<double>(rows) *
                            static_cast<double>(g4) *
                            static_cast<double>(units_ + in_);
  hpc::parallel_for(
      0, batch, data_flops, detail::kMR, [&](std::size_t lo, std::size_t hi) {
        const std::size_t n = hi - lo;
        double* dh = dh_.flat().data() + lo * units_;
        double* dc = dc_.flat().data() + lo * units_;
        for (std::size_t t = steps; t-- > 0;) {
          const std::size_t row = t * batch + lo;
          double* dz = dz_.flat().data() + row * g4;
          tensor::lstm_pointwise_backward(
              n, units_, gates_.flat().data() + row * g4,
              c_seq_.flat().data() + row * units_,
              c_seq_.flat().data() + (row + batch) * units_,
              grad_output.flat().data() + (lo * steps + t) * units_,
              steps * units_, dh, dc, dz);
          gemm_raw(Trans::kNone, n, 1.0, dz, g4, wh_t_pack_, 0.0, dh, units_);
          gemm_raw(Trans::kNone, n, 1.0, dz, g4, wx_t_pack_, 0.0,
                   dx + (lo * steps + t) * in_, steps * in_);
        }
      });

  // Weight gradients: one fork-join over the rows of [Wx_grad; Wh_grad;
  // b_grad]. Every row sees the same operations in the same order as a
  // whole-matrix GEMM would give it: Wx_grad += X^T dZ as one K = T*B
  // product, Wh_grad += H_{t-1}^T dZ_t for t = T-1..0, and the bias row
  // (the gradient of a constant-one input) reduced t descending.
  const double weight_flops = 2.0 * static_cast<double>(rows) *
                              static_cast<double>(g4) *
                              static_cast<double>(in_ + units_ + 1);
  // Matrix::flat() bumps the matrix's version counter, so the gradient
  // pointers are taken once here rather than by every chunk.
  double* wxg = wx_grad_.flat().data();
  double* whg = wh_grad_.flat().data();
  double* bg = b_grad_.flat().data();
  hpc::parallel_for(
      0, in_ + units_ + 1, weight_flops, detail::kMR,
      [&](std::size_t lo, std::size_t hi) {
        if (lo < in_) {
          const std::size_t end = std::min(hi, in_);
          gemm_raw(Trans::kTranspose, Trans::kNone, end - lo, g4, rows, 1.0,
                   x_tm_.flat().data() + lo, in_, dz_.flat().data(), g4, 1.0,
                   wxg + lo * g4, g4);
        }
        if (hi > in_ && lo < in_ + units_) {
          const std::size_t h_lo = std::max(lo, in_) - in_;
          const std::size_t h_hi = std::min(hi, in_ + units_) - in_;
          for (std::size_t t = steps; t-- > 0;) {
            gemm_raw(Trans::kTranspose, Trans::kNone, h_hi - h_lo, g4, batch,
                     1.0, h_seq_.flat().data() + t * batch * units_ + h_lo,
                     units_, dz_.flat().data() + t * batch * g4, g4, 1.0,
                     whg + h_lo * g4, g4);
          }
        }
        if (hi == in_ + units_ + 1) {
          tensor::recurrent_bias_grad(steps, batch, g4, dz_.flat().data(),
                                      bg);
        }
      });
}

std::vector<Matrix*> LSTM::parameters() { return {&wx_, &wh_, &b_}; }
std::vector<Matrix*> LSTM::gradients() {
  return {&wx_grad_, &wh_grad_, &b_grad_};
}

std::string LSTM::name() const {
  return "LSTM(" + std::to_string(units_) + ")";
}

}  // namespace geonas::nn
