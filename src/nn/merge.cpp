#include "nn/merge.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/activations.hpp"

namespace geonas::nn {

AddMerge::AddMerge(std::size_t arity, bool relu_after)
    : arity_(arity), relu_(relu_after) {
  if (arity_ < 1) throw std::invalid_argument("AddMerge: arity must be >= 1");
}

std::unique_ptr<Layer> AddMerge::clone() const {
  return std::make_unique<AddMerge>(arity_, relu_);
}

void AddMerge::bind_workspace(tensor::Arena& arena,
                              const WorkspaceShape& shape) {
  if (shape.training && relu_) {
    sum_cache_.bind(arena, shape.batch * shape.steps, shape.features);
  }
}

void AddMerge::forward_into(std::span<const Tensor3* const> inputs,
                            Tensor3& out, bool training) {
  if (inputs.size() != arity_ || inputs[0] == nullptr) {
    throw std::invalid_argument("AddMerge: wrong number of inputs");
  }
  const Tensor3& first = *inputs[0];
  require_bound(first, training);
  std::copy(first.flat().begin(), first.flat().end(), out.flat().begin());
  for (std::size_t i = 1; i < inputs.size(); ++i) {
    const Tensor3& in = *inputs[i];
    if (in.dim0() != first.dim0() || in.dim1() != first.dim1() ||
        in.dim2() != first.dim2()) {
      throw std::invalid_argument("AddMerge: input shape mismatch");
    }
    auto of = out.flat();
    const auto inf = in.flat();
    for (std::size_t k = 0; k < of.size(); ++k) of[k] += inf[k];
  }
  if (relu_) {
    if (training) {
      std::copy(out.flat().begin(), out.flat().end(),
                sum_cache_.flat().begin());
    }
    apply_activation(Activation::kReLU, out.flat());
  }
}

void AddMerge::backward_into(const Tensor3& grad_output,
                             std::span<Tensor3* const> input_grads) {
  if (input_grads.size() != arity_ || input_grads[0] == nullptr) {
    throw std::invalid_argument("AddMerge::backward: wrong gradient count");
  }
  // d(sum)/d(input_i) = 1 for every input: compute the (possibly ReLU-
  // masked) sum gradient into the first slot, then copy to the others.
  Tensor3& dsum = *input_grads[0];
  if (dsum.size() != grad_output.size()) {
    throw std::invalid_argument("AddMerge::backward: shape mismatch");
  }
  std::copy(grad_output.flat().begin(), grad_output.flat().end(),
            dsum.flat().begin());
  if (relu_) {
    auto df = dsum.flat();
    if (df.size() > sum_cache_.size()) {
      throw std::invalid_argument("AddMerge::backward: shape mismatch");
    }
    const auto sf = sum_cache_.flat().first(df.size());
    activation_grad_mul(Activation::kReLU, df, sf, sf);
  }
  for (std::size_t i = 1; i < input_grads.size(); ++i) {
    if (input_grads[i] == nullptr) {
      throw std::invalid_argument("AddMerge::backward: null gradient slot");
    }
    std::copy(dsum.flat().begin(), dsum.flat().end(),
              input_grads[i]->flat().begin());
  }
}

std::string AddMerge::name() const {
  return std::string("Add[") + std::to_string(arity_) + "]" +
         (relu_ ? "+ReLU" : "");
}

void Identity::forward_into(std::span<const Tensor3* const> inputs,
                            Tensor3& out, bool /*training*/) {
  const Tensor3& x = single_input(inputs, "Identity");
  std::copy(x.flat().begin(), x.flat().end(), out.flat().begin());
}

void Identity::backward_into(const Tensor3& grad_output,
                             std::span<Tensor3* const> input_grads) {
  if (input_grads.size() != 1 || input_grads[0] == nullptr ||
      input_grads[0]->size() != grad_output.size()) {
    throw std::invalid_argument("Identity::backward: wrong gradient count");
  }
  std::copy(grad_output.flat().begin(), grad_output.flat().end(),
            input_grads[0]->flat().begin());
}

}  // namespace geonas::nn
