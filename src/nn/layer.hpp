// Layer interface for the geonas neural-network library.
//
// Layers operate on batched sequences stored as Tensor3 [batch, time,
// features] and implement explicit forward/backward passes (no tape
// autodiff): each layer caches whatever activations its backward pass
// needs during forward_into(). A layer therefore supports exactly one
// outstanding forward-then-backward pair at a time, which is all the
// mini-batch trainer requires.
//
// Hot-path contract (see DESIGN.md, "Memory model"): the entry points
// are bind, which carves all of a layer's scratch out of a caller-owned
// tensor::Arena for a WorkspaceShape, and forward_into / backward_into,
// which write into caller-provided tensors. A layer owns no arena: its
// owner (GraphNetwork, or a test) binds it before every forward that
// outgrows the latest bind, and forward_into throws std::logic_error
// when it was not. A layer bound for batch B runs any batch b <= B on
// the first b rows of its workspaces with ZERO heap allocation in
// forward_into/backward_into; backward is sized from the latest forward.
// Inputs passed to a training forward_into must stay alive and
// unmodified until the matching backward_into returns — layers cache
// input POINTERS instead of copying.
//
// Multi-input layers (the skip-connection sum of paper §III-A) take all
// their inputs at once and fill one gradient per input in backward_into.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/arena.hpp"
#include "tensor/matrix.hpp"
#include "tensor/prepack.hpp"
#include "tensor/random.hpp"

namespace geonas::nn {

/// The shape a layer's (or a graph's) workspaces are carved for. Binds
/// only grow: a bound shape serves every batch up to its own at the same
/// steps and width, and an inference bind (training false) carves only
/// the forward workspaces, adding the backward scratch on the first
/// training forward.
struct WorkspaceShape {
  std::size_t batch = 0;
  std::size_t steps = 0;
  std::size_t features = 0;
  bool training = false;

  /// True when workspaces bound for this shape serve a forward over `x`.
  [[nodiscard]] bool fits(const Tensor3& x, bool train) const noexcept {
    return x.dim0() <= batch && x.dim1() == steps && x.dim2() == features &&
           (training || !train);
  }
  /// The shape to rebind for a forward over `x` that does not fit: x's
  /// steps and width, the larger batch, and any carved backward scratch.
  [[nodiscard]] WorkspaceShape grown(const Tensor3& x,
                                     bool train) const noexcept {
    return {std::max(batch, x.dim0()), x.dim1(), x.dim2(), training || train};
  }
};

/// One prepacked weight panel of a layer and the weights it packs: the
/// arguments of its PackedPanels::ensure call. Layers keep a fixed
/// table of these, pointing at their own members, built at construction.
struct PackSite {
  tensor::PackedPanels* panel;
  const Matrix* weights;
  Trans trans;

  /// Re-packs the panel if the weights changed since its last pack.
  void ensure() const { panel->ensure(*weights, trans); }
};

class Layer {
 public:
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Number of inputs this layer consumes (1 for all but merge layers).
  [[nodiscard]] virtual std::size_t arity() const { return 1; }

  /// Feature width of this layer's output for `in_features`-wide inputs.
  [[nodiscard]] virtual std::size_t output_features(
      std::size_t in_features) const {
    return in_features;
  }

  /// Input width this layer requires, or 0 when it accepts any width
  /// and keeps it (Identity, AddMerge).
  [[nodiscard]] virtual std::size_t in_features() const noexcept { return 0; }

  /// Carves this layer's workspaces for `shape` (shape.features is the
  /// layer's input width) out of `arena`, which must outlive every later
  /// forward/backward. GraphNetwork binds all its layers on one shared
  /// arena.
  void bind(tensor::Arena& arena, const WorkspaceShape& shape) {
    bound_ = {};  // a throwing carve leaves the layer unbound
    bind_workspace(arena, shape);
    bound_ = shape;
  }

  /// A copy of this layer's configuration and parameters, unbound, with
  /// zeroed gradients.
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

  /// Forward pass into `out`, pre-shaped by the caller to
  /// [batch, steps, output_features(in_features)]. `inputs.size()` must
  /// equal arity(). Caches activations (by pointer where possible) for
  /// backward when `training`.
  virtual void forward_into(std::span<const Tensor3* const> inputs,
                            Tensor3& out, bool training) = 0;

  /// Backward pass for the most recent training-mode forward. Writes one
  /// gradient per input into `input_grads` (pre-shaped to the matching
  /// input shapes; every element is fully overwritten). Accumulates
  /// parameter gradients (callers zero_grad() between batches).
  virtual void backward_into(const Tensor3& grad_output,
                             std::span<Tensor3* const> input_grads) = 0;

  /// Randomly (re-)initialize parameters.
  virtual void init_params(Rng& /*rng*/) {}

  /// The layer's prepacked weight panels (tensor::PackedPanels), each
  /// with the weights it packs. GraphNetwork::repack_weights re-packs
  /// them right after each optimizer step so the next forward starts
  /// with warm panels; layers ALSO lazily re-validate before every use
  /// (the Matrix version() counter makes stale panels structurally
  /// impossible), so skipping the re-pack costs latency, never
  /// correctness. Default: the layer has no packed weights.
  [[nodiscard]] virtual std::span<const PackSite> pack_sites() const {
    return {};
  }

  /// Mutable views of parameters and their accumulated gradients; the two
  /// lists are parallel.
  virtual std::vector<Matrix*> parameters() { return {}; }
  virtual std::vector<Matrix*> gradients() { return {}; }

  void zero_grad() {
    for (Matrix* g : gradients()) g->fill(0.0);
  }

  [[nodiscard]] std::size_t param_count() {
    std::size_t n = 0;
    for (const Matrix* p : parameters()) n += p->size();
    return n;
  }

  /// Human-readable layer description, e.g. "LSTM(96)".
  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  Layer() = default;

  /// Carves the workspaces for `shape`: only the forward ones unless
  /// shape.training. Default: stateless layer, nothing to carve.
  virtual void bind_workspace(tensor::Arena& /*arena*/,
                              const WorkspaceShape& /*shape*/) {}

  /// The shape bound by the latest bind().
  [[nodiscard]] const WorkspaceShape& bound() const noexcept {
    return bound_;
  }

  /// Throws std::logic_error naming the layer unless the latest bind()
  /// serves a forward over `x` (WorkspaceShape::fits). Every
  /// forward_into that uses workspaces calls it first.
  void require_bound(const Tensor3& x, bool training) const {
    if (!bound_.fits(x, training)) throw_not_bound(x, training);
  }

 private:
  [[noreturn]] void throw_not_bound(const Tensor3& x, bool training) const {
    std::string msg = name();
    const auto dims = [&msg](std::size_t b, std::size_t t, std::size_t f,
                             bool train) {
      msg.append(" [").append(std::to_string(b)).append(", ");
      msg.append(std::to_string(t)).append(", ").append(std::to_string(f));
      msg.append(train ? "] training" : "] inference");
    };
    msg += ": forward over";
    dims(x.dim0(), x.dim1(), x.dim2(), training);
    msg += " does not fit the latest bind()";
    dims(bound_.batch, bound_.steps, bound_.features, bound_.training);
    msg += "; bind the layer for this shape first";
    throw std::logic_error(msg);
  }

  WorkspaceShape bound_;
};

/// Convenience for single-input layers.
inline const Tensor3& single_input(std::span<const Tensor3* const> inputs,
                                   const char* layer_name) {
  if (inputs.size() != 1 || inputs[0] == nullptr) {
    throw std::invalid_argument(std::string(layer_name) +
                                ": expected exactly one input");
  }
  return *inputs[0];
}

}  // namespace geonas::nn
