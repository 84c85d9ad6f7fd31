// Time-distributed dense (fully connected) layer.
//
// Applies y = act(x W + b) independently at every timestep: an input
// [B, T, F] is treated as a (B*T) x F matrix. This is exactly Keras's
// TimeDistributed(Dense(...)) semantics, which the paper uses to project
// skip-connection tensors to the incumbent layer's width (§III-A; the
// projection dense layers carry no activation).
//
// The forward is one kernel-pool fork-join over row slices: a chunk runs
// its rows of the GEMM inline, then the bias and the activation on the
// same rows. The backward is one fork-join over the rows of
// [W_grad; b_grad] (the bias gradient, a column sum in row-ascending
// order, is the last row) plus the dX GEMM. The training forward caches
// the input by POINTER (the hot-path input contract of layer.hpp) and
// the pre-/post-activation values in arena workspaces carved by a
// training bind, so a bound Dense allocates nothing per step; inference
// needs no workspace at all.
#pragma once

#include <array>

#include "nn/activations.hpp"
#include "nn/layer.hpp"

namespace geonas::nn {

class Dense final : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features,
        Activation activation = Activation::kIdentity, bool use_bias = true);

  void forward_into(std::span<const Tensor3* const> inputs, Tensor3& out,
                    bool training) override;
  void backward_into(const Tensor3& grad_output,
                     std::span<Tensor3* const> input_grads) override;
  void init_params(Rng& rng) override;
  [[nodiscard]] std::span<const PackSite> pack_sites() const override {
    return pack_sites_;
  }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  std::vector<Matrix*> parameters() override;
  std::vector<Matrix*> gradients() override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t output_features(
      std::size_t /*in_features*/) const override {
    return out_;
  }

  [[nodiscard]] std::size_t in_features() const noexcept override {
    return in_;
  }

 private:
  void bind_workspace(tensor::Arena& arena,
                      const WorkspaceShape& shape) override;

  std::size_t in_;
  std::size_t out_;
  Activation activation_;
  bool use_bias_;

  Matrix w_;       // in x out
  Matrix b_;       // 1 x out
  Matrix w_grad_;
  Matrix b_grad_;

  // Pack-once weight panels (see lstm.hpp): forward x*W, backward dZ*W^T.
  tensor::PackedPanels w_pack_;    // op = W
  tensor::PackedPanels w_t_pack_;  // op = W^T
  std::array<PackSite, 2> pack_sites_;

  // Training-mode caches: the input stays with its owner (pointer), the
  // pre-/post-activation copies live in the bound arena. For an identity
  // activation no activation caches are needed — dz is grad_output.
  const Tensor3* input_cache_ = nullptr;
  // A forward at batch b uses the first b*T rows.
  tensor::ArenaMatrix preact_cache_;  // [B*T, out]
  tensor::ArenaMatrix output_cache_;  // [B*T, out]
  tensor::ArenaMatrix dz_;            // [B*T, out]
};

}  // namespace geonas::nn
