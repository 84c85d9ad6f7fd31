// GraphNetwork: a directed-acyclic-graph neural network executor.
//
// This is the runtime counterpart of the paper's NAS search space
// (§III-A): nodes hold layers (LSTM / Dense / Identity / AddMerge), edges
// route tensors, and skip connections simply appear as extra in-edges on
// AddMerge nodes. Nodes must be added in topological order (every input id
// must already exist), which the searchspace builder guarantees by
// construction.
//
// Memory model (DESIGN.md, "Memory model"): the graph owns one
// tensor::Arena and binds every layer onto it in topological order for
// a WorkspaceShape. Binds only grow: a forward rebinds only when its
// batch exceeds the bound one, its steps or width differ, or it is the
// first training forward after inference-only binds (which carve no
// backward scratch); the batch of a rebind never shrinks. Smaller batches run on prefix rows of the bound
// workspaces, so after the first step at the largest shape
// forward_ref/backward_ref perform zero heap allocation. Activations are
// retained between inference calls (they are reused buffers, not
// per-call garbage).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/arena.hpp"

namespace geonas::nn {

class GraphNetwork {
 public:
  GraphNetwork();

  GraphNetwork(const GraphNetwork&) = delete;
  GraphNetwork& operator=(const GraphNetwork&) = delete;
  GraphNetwork(GraphNetwork&&) = default;
  GraphNetwork& operator=(GraphNetwork&&) = default;

  /// A copy of the structure and parameters, unbound (Layer::clone).
  [[nodiscard]] GraphNetwork clone() const;

  /// Node id of the (single) graph input.
  [[nodiscard]] static constexpr std::size_t input_id() { return 0; }

  /// Adds a node computing layer(inputs...). Returns its id. All ids in
  /// `input_ids` must already exist and input count must match the layer's
  /// arity. The last node added becomes the output unless set_output() is
  /// called.
  std::size_t add_node(std::unique_ptr<Layer> layer,
                       std::vector<std::size_t> input_ids);

  void set_output(std::size_t node_id);
  [[nodiscard]] std::size_t output_id() const noexcept { return output_; }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }

  /// Initialize every layer's parameters from a single seed.
  void init_params(std::uint64_t seed);

  /// Forward pass; caches activations when `training` so backward() works.
  /// Allocating wrapper around forward_ref (returns a copy).
  Tensor3 forward(const Tensor3& input, bool training = false);

  /// Zero-copy forward: runs the graph and returns a reference to the
  /// output node's activation buffer, valid until the next forward or
  /// shape rebind. `input` must stay alive and unmodified until the
  /// matching backward when `training` (layers cache input pointers).
  /// Throws std::invalid_argument when a node's inputs differ in width.
  const Tensor3& forward_ref(const Tensor3& input, bool training = false);

  /// Backward pass for the latest forward, which must be a training one;
  /// returns the gradient with respect to the network input and
  /// accumulates parameter grads.
  /// Allocating wrapper around backward_ref (returns a copy).
  Tensor3 backward(const Tensor3& grad_output);

  /// Zero-copy backward: returns a reference to the input-gradient
  /// buffer, valid until the next backward or shape rebind.
  const Tensor3& backward_ref(const Tensor3& grad_output);

  /// Resets the arena and binds every layer's workspaces for `shape`
  /// now, instead of at the first forward that outgrows the current
  /// bind; sizes the activation buffers at its batch. Forwards that fit
  /// `shape` then run without rebinding.
  void bind(const WorkspaceShape& shape);

  void zero_grad();
  /// Re-packs every layer's prepacked weight panels (Layer::pack_sites)
  /// in one fork-join balanced by packed size; the trainer calls this
  /// after each optimizer step.
  void repack_weights();
  [[nodiscard]] std::vector<Matrix*> parameters();
  [[nodiscard]] std::vector<Matrix*> gradients();
  [[nodiscard]] std::size_t param_count();

  /// The graph's workspace arena (observability/tests); null until the
  /// first forward binds a shape.
  [[nodiscard]] const tensor::Arena* arena() const noexcept {
    return arena_.get();
  }

  /// The layer computing node `id` (null for the input node 0), for
  /// inspecting a graph's structure (widths, names).
  [[nodiscard]] const Layer* node_layer(std::size_t id) const {
    return nodes_.at(id).layer.get();
  }

  /// Multi-line structural description (one node per line).
  [[nodiscard]] std::string describe() const;

  /// Graphviz DOT rendering of the DAG (paper Fig. 4-style diagrams):
  /// `dot -Tpng` turns it into the architecture figure.
  [[nodiscard]] std::string to_dot(const std::string& graph_name = "net") const;

 private:
  struct Node {
    std::unique_ptr<Layer> layer;       // null for the input node
    std::vector<std::size_t> inputs;
    Tensor3 activation;                 // reused across passes
    Tensor3 grad;                       // accumulated during backward
    bool grad_set = false;
    std::size_t out_features = 0;       // valid after bind
    // Reused per-call pointer scratch (capacity reserved at bind).
    std::vector<const Tensor3*> in_ptrs;
    std::vector<Tensor3*> grad_ptrs;
    // Fan-out accumulation buffers, one per input slot; resized lazily.
    std::vector<Tensor3> grad_scratch;
  };

  std::vector<Node> nodes_;
  std::size_t output_ = 0;
  // Cached gradients() result for zero_grad (rebuilt after add_node);
  // the pointees are owned by the layers, so moves keep it valid.
  std::vector<Matrix*> grad_cache_;
  // Every layer's pack sites and the running total of their packed
  // doubles (one entry more than sites), collected by the first
  // repack_weights() after add_node; the layers own the pointees.
  std::vector<PackSite> pack_sites_;
  std::vector<std::size_t> pack_offsets_;
  std::unique_ptr<tensor::Arena> arena_;
  const Tensor3* external_input_ = nullptr;
  WorkspaceShape bound_;
};

}  // namespace geonas::nn
