#include "nn/dropout.hpp"

#include <algorithm>
#include <stdexcept>

namespace geonas::nn {

Dropout::Dropout(double rate) : rate_(rate), rng_(0xD120) {
  if (rate_ < 0.0 || rate_ >= 1.0) {
    throw std::invalid_argument("Dropout: rate must be in [0, 1)");
  }
}

std::unique_ptr<Layer> Dropout::clone() const {
  auto copy = std::make_unique<Dropout>(rate_);
  copy->rng_ = rng_;
  return copy;
}

void Dropout::bind_workspace(tensor::Arena& arena,
                             const WorkspaceShape& shape) {
  if (shape.training && rate_ > 0.0) {
    mask_.bind(arena, shape.batch * shape.steps, shape.features);
  }
}

void Dropout::forward_into(std::span<const Tensor3* const> inputs,
                           Tensor3& out, bool training) {
  const Tensor3& x = single_input(inputs, "Dropout");
  if (!training || rate_ == 0.0) {
    std::copy(x.flat().begin(), x.flat().end(), out.flat().begin());
    return;
  }
  require_bound(x, training);
  const double keep_scale = 1.0 / (1.0 - rate_);
  auto mf = mask_.flat();
  const auto xf = x.flat();
  auto of = out.flat();
  for (std::size_t i = 0; i < of.size(); ++i) {
    mf[i] = rng_.bernoulli(rate_) ? 0.0 : keep_scale;
    of[i] = xf[i] * mf[i];
  }
}

void Dropout::backward_into(const Tensor3& grad_output,
                            std::span<Tensor3* const> input_grads) {
  if (input_grads.size() != 1 || input_grads[0] == nullptr ||
      input_grads[0]->size() != grad_output.size()) {
    throw std::invalid_argument("Dropout::backward: wrong gradient count");
  }
  Tensor3& dx = *input_grads[0];
  if (rate_ == 0.0) {
    std::copy(grad_output.flat().begin(), grad_output.flat().end(),
              dx.flat().begin());
    return;
  }
  if (grad_output.size() > mask_.size()) {
    throw std::invalid_argument("Dropout::backward: shape mismatch");
  }
  auto df = dx.flat();
  const auto gf = grad_output.flat();
  const auto mf = mask_.flat().first(gf.size());
  for (std::size_t i = 0; i < df.size(); ++i) df[i] = gf[i] * mf[i];
}

std::string Dropout::name() const {
  return "Dropout(" + std::to_string(rate_).substr(0, 4) + ")";
}

}  // namespace geonas::nn
