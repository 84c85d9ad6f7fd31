// Inverted dropout layer.
//
// During training each element is zeroed with probability p and the
// survivors scaled by 1/(1-p); inference is the identity. The mask is
// drawn from a per-layer deterministic stream reseeded by init_params, so
// training runs stay reproducible. The mask lives in the bound arena:
// steady-state training draws it in place with no allocation.
#pragma once

#include "nn/layer.hpp"

namespace geonas::nn {

class Dropout final : public Layer {
 public:
  explicit Dropout(double rate);

  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  void forward_into(std::span<const Tensor3* const> inputs, Tensor3& out,
                    bool training) override;
  void backward_into(const Tensor3& grad_output,
                     std::span<Tensor3* const> input_grads) override;
  void init_params(Rng& rng) override { rng_ = rng.fork(); }
  [[nodiscard]] std::string name() const override;

 private:
  void bind_workspace(tensor::Arena& arena,
                      const WorkspaceShape& shape) override;

  double rate_;
  Rng rng_;
  // Keep-scale factors from the latest training forward (first b*T rows
  // at batch b); carved by a training bind.
  tensor::ArenaMatrix mask_;  // [B*T, features]
};

}  // namespace geonas::nn
