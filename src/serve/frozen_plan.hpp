// FrozenPlan: a trained GraphNetwork frozen into a forward-only serving
// handle.
//
// The deployed artifact is derived from the model definition (RoseNNa /
// CodeJeNN, PAPERS.md), not from a second inference path: compile()
// clones the trained graph (Layer::clone) and run() is that copy's
// GraphNetwork::forward_ref in inference mode. A FrozenPlan's output is
// therefore BITWISE identical to GraphNetwork::forward for the same
// weights by construction (tests/serve_plan_test.cpp pins this at
// kernel_threads 1/2/8 and across batch sizes).
//
// Memory model: the copy is bound once at compile for (max_batch, steps,
// input width) for inference, which carves only the forward workspaces,
// and one batch-1 forward packs only the forward weight panels. Runs at
// any batch b <= max_batch use prefix rows of those workspaces, so run()
// performs zero heap allocation (tests/alloc_audit_test.cpp counts it).
// Each serving stream owns a private copy — clone_stream() clones the
// network again — because layer forwards mutate their workspaces; a
// stream costs its own weights, gradient matrices, forward packs and
// arena.
#pragma once

#include <cstddef>
#include <string>

#include "nn/graph.hpp"
#include "tensor/matrix.hpp"

namespace geonas::serve {

class FrozenPlan {
 public:
  /// Freezes a copy of `net` able to serve batches of up to `max_batch`
  /// windows of `steps` timesteps; `net` is not retained. Throws
  /// std::invalid_argument on zero sizes or a graph without
  /// computational nodes.
  static FrozenPlan compile(const nn::GraphNetwork& net, std::size_t steps,
                            std::size_t max_batch);

  FrozenPlan(FrozenPlan&&) = default;
  FrozenPlan& operator=(FrozenPlan&&) = default;
  FrozenPlan(const FrozenPlan&) = delete;
  FrozenPlan& operator=(const FrozenPlan&) = delete;

  /// A new plan for another serving stream: a fresh copy of this plan's
  /// network with its own workspaces.
  [[nodiscard]] FrozenPlan clone_stream() const;

  /// Runs the plan on [b, steps, input_features] with b in
  /// [1, max_batch]; returns the output node's activation buffer
  /// ([b, steps, output_features]), valid until the next run on this
  /// plan. Zero heap allocation; per-example rows of the result are
  /// bitwise independent of b (GEMM rows and the pointwise kernels are
  /// row-local), which is what makes micro-batch coalescing transparent.
  const Tensor3& run(const Tensor3& input);

  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }
  [[nodiscard]] std::size_t max_batch() const noexcept { return max_batch_; }
  [[nodiscard]] std::size_t input_features() const noexcept {
    return in_features_;
  }
  [[nodiscard]] std::size_t output_features() const noexcept {
    return out_features_;
  }
  /// Computational nodes in the frozen graph.
  [[nodiscard]] std::size_t op_count() const noexcept {
    return net_.node_count() - 1;
  }
  /// Bytes of forward workspace carved from the plan's arena.
  [[nodiscard]] std::size_t workspace_bytes() const noexcept {
    return net_.arena()->bytes_in_use();
  }
  /// One line per node (debugging / CLI banner).
  [[nodiscard]] std::string describe() const;

 private:
  /// Takes ownership of an unbound copy and binds it at capacity.
  FrozenPlan(nn::GraphNetwork net, std::size_t steps, std::size_t max_batch);

  nn::GraphNetwork net_;
  std::size_t steps_ = 0;
  std::size_t max_batch_ = 0;
  std::size_t in_features_ = 0;
  std::size_t out_features_ = 0;
};

}  // namespace geonas::serve
