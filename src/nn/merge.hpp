// Merge and pass-through layers for the skip-connected search space.
//
// AddMerge implements the paper's skip-connection semantics: the incumbent
// tensor and all projected skip tensors are summed, then "after each add
// operation, the ReLU activation function [is] applied to the tensor"
// (§IV). Each direction is one pass over memory, in L1-sized blocks:
// forward sums the inputs in input order and writes the pre-ReLU cache
// and the output; backward masks the gradient and copies it to every
// input. Both stay serial: their cost is below the kernel-pool
// threshold. Identity is the zero-parameter passthrough used when a
// variable LSTM node selects the Identity operation.
#pragma once

#include "nn/layer.hpp"

namespace geonas::nn {

/// Sums N same-shaped inputs and applies ReLU to the result.
class AddMerge final : public Layer {
 public:
  explicit AddMerge(std::size_t arity);

  [[nodiscard]] std::size_t arity() const override { return arity_; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  void forward_into(std::span<const Tensor3* const> inputs, Tensor3& out,
                    bool training) override;
  void backward_into(const Tensor3& grad_output,
                     std::span<Tensor3* const> input_grads) override;
  [[nodiscard]] std::string name() const override;

 private:
  void bind_workspace(tensor::Arena& arena,
                      const WorkspaceShape& shape) override;

  std::size_t arity_;
  // Pre-ReLU sum, for the backward mask; carved by a training bind, and
  // a forward at batch b uses its first b*T rows.
  tensor::ArenaMatrix sum_cache_;  // [B*T, features]
};

/// Shape-preserving passthrough.
class Identity final : public Layer {
 public:
  Identity() = default;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Identity>();
  }
  void forward_into(std::span<const Tensor3* const> inputs, Tensor3& out,
                    bool training) override;
  void backward_into(const Tensor3& grad_output,
                     std::span<Tensor3* const> input_grads) override;
  [[nodiscard]] std::string name() const override { return "Identity"; }
};

}  // namespace geonas::nn
