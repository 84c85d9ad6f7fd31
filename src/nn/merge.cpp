#include "nn/merge.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/activations.hpp"

namespace geonas::nn {

namespace {

/// Elements per AddMerge block: small enough that a block of the output
/// and of every input stays in L1 between the passes over it.
constexpr std::size_t kBlock = 512;

}  // namespace

AddMerge::AddMerge(std::size_t arity) : arity_(arity) {
  if (arity_ < 1) throw std::invalid_argument("AddMerge: arity must be >= 1");
}

std::unique_ptr<Layer> AddMerge::clone() const {
  return std::make_unique<AddMerge>(arity_);
}

void AddMerge::bind_workspace(tensor::Arena& arena,
                              const WorkspaceShape& shape) {
  if (shape.training) {
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
  for (std::size_t i = 1; i < inputs.size(); ++i) {
    const Tensor3& in = *inputs[i];
    if (in.dim0() != first.dim0() || in.dim1() != first.dim1() ||
        in.dim2() != first.dim2()) {
      throw std::invalid_argument("AddMerge: input shape mismatch");
    }
  }
  // One pass over memory: block by block (each block stays in L1), the
  // inputs are summed in input order, then the sum is cached for the
  // backward mask (training only) and rectified.
  const std::size_t n = first.size();
  double* op = out.flat().data();
  double* cache = training ? sum_cache_.flat().data() : nullptr;
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t len = std::min(kBlock, n - b);
    double* o = op + b;
    std::copy_n(first.flat().data() + b, len, o);
    for (std::size_t i = 1; i < inputs.size(); ++i) {
      const double* in = inputs[i]->flat().data() + b;
      for (std::size_t k = 0; k < len; ++k) o[k] += in[k];
    }
    if (cache != nullptr) std::copy_n(o, len, cache + b);
    for (std::size_t k = 0; k < len; ++k) o[k] = relu(o[k]);
  }
}

void AddMerge::backward_into(const Tensor3& grad_output,
                             std::span<Tensor3* const> input_grads) {
  if (input_grads.size() != arity_ || input_grads[0] == nullptr) {
    throw std::invalid_argument("AddMerge::backward: wrong gradient count");
  }
  // d(sum)/d(input_i) = 1 for every input: one pass writes the
  // ReLU-masked sum gradient into every slot.
  const std::size_t n = grad_output.size();
  if (input_grads[0]->size() != n || n > sum_cache_.size()) {
    throw std::invalid_argument("AddMerge::backward: shape mismatch");
  }
  for (std::size_t i = 1; i < input_grads.size(); ++i) {
    if (input_grads[i] == nullptr) {
      throw std::invalid_argument("AddMerge::backward: null gradient slot");
    }
  }
  // One pass over memory: block by block, the ReLU-masked gradient
  // lands in the first slot and is copied to the others.
  const double* g = grad_output.flat().data();
  const double* sum = sum_cache_.flat().data();
  double* d0 = input_grads[0]->flat().data();
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t len = std::min(kBlock, n - b);
    double* d = d0 + b;
    std::copy_n(g + b, len, d);
    const double* s = sum + b;
    for (std::size_t k = 0; k < len; ++k) d[k] *= relu_grad_from_input(s[k]);
    for (std::size_t i = 1; i < input_grads.size(); ++i) {
      std::copy_n(d, len, input_grads[i]->flat().data() + b);
    }
  }
}

std::string AddMerge::name() const {
  return std::string("Add[") + std::to_string(arity_) + "]+ReLU";
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
