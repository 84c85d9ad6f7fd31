// Mini-batch trainer for GraphNetworks.
//
// Reproduces the paper's training protocol (§IV): MSE loss, Adam with
// learning rate 1e-3, batch size 64, shuffled mini-batches, validation R^2
// tracked per epoch. The same trainer is used for 20-epoch NAS evaluations
// and 100-epoch post-training.
//
// Memory model: fit() assembles mini-batches from an ExampleSource into
// persistent gather buffers and drives the graph through
// forward_ref/backward_ref, so the steady-state step performs zero heap
// allocation (see tests/alloc_audit_test.cpp). The classic tensor-pair
// overload adapts through TensorPairSource.
//
// Kernel threads: fit() leaves the kernel pool as it finds it. Its
// kernels dispatch on the calling thread's pool (a campaign worker's
// shard, else the global pool); a caller that wants to pin the global
// thread count calls hpc::set_kernel_threads itself.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/example_source.hpp"
#include "nn/graph.hpp"

namespace geonas::nn {

struct TrainConfig {
  std::size_t epochs = 20;       // paper: 20 during search, 100 posttraining
  std::size_t batch_size = 64;   // paper: 64
  double learning_rate = 1e-3;   // paper: 0.001 (Adam)
  /// Learning rate decays by this factor at 1/2 and 3/4 of the epoch
  /// budget (1.0 = constant LR).
  double lr_step_decay = 1.0;
  std::uint64_t seed = 42;       // shuffling seed
};

struct TrainHistory {
  std::vector<double> train_loss;  // mean MSE per epoch
  std::vector<double> val_loss;    // MSE on the validation set per epoch
  std::vector<double> val_r2;      // R^2 on the validation set per epoch

  /// Best (highest) validation R^2 seen; -inf when no validation data.
  [[nodiscard]] double best_val_r2() const;
};

class Trainer {
 public:
  explicit Trainer(TrainConfig config = {}) : cfg_(config) {}

  /// Trains the network in place on examples gathered from `train`;
  /// `val` may be null (or empty) to skip validation.
  TrainHistory fit(GraphNetwork& net, const ExampleSource& train,
                   const ExampleSource* val) const;

  /// Trains the network in place. x/y are [N, T, F] example tensors;
  /// x_val/y_val may be empty (dim0 == 0) to skip validation.
  TrainHistory fit(GraphNetwork& net, const Tensor3& x, const Tensor3& y,
                   const Tensor3& x_val, const Tensor3& y_val) const;

  /// Batched inference over all examples.
  static Tensor3 predict(GraphNetwork& net, const Tensor3& x,
                         std::size_t batch_size = 256);

  [[nodiscard]] const TrainConfig& config() const noexcept { return cfg_; }

 private:
  TrainConfig cfg_;
};

/// Batched inference into a caller-owned output tensor, gathering inputs
/// through `x_scratch` (both buffers are resized as needed and reused —
/// no allocation once warm).
void predict_into(GraphNetwork& net, const ExampleSource& src, Tensor3& out,
                  Tensor3& x_scratch, std::size_t batch_size = 256);

/// Epochs at which the step LR decay fires: 1/2 and 3/4 of the budget,
/// deduplicated (they coincide for epochs < 4) and never epoch 0 (a decay
/// before any full-rate training would silently shrink the whole run).
[[nodiscard]] std::vector<std::size_t> lr_decay_epochs(std::size_t epochs);

}  // namespace geonas::nn
