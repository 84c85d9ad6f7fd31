// The training optimizer.
//
// Adam (Kingma & Ba) with the paper's hyperparameters (lr = 0.001) and
// no weight decay. It binds to a parameter/gradient list once and keeps
// the per-parameter moments across steps.
//
// Adam's step is one kernel-pool fork-join over the concatenated
// elements of every parameter. The update is elementwise and every
// element keeps the scalar expression (sqrt and division are correctly
// rounded, and the baseline x86-64 build contracts no multiply-add into
// an FMA), so the split leaves the bits unchanged. Matrix::flat() bumps
// the version counter that invalidates packed weight panels, so the
// element pointers are taken once per step, before the fork.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/matrix.hpp"

namespace geonas::nn {

class Adam {
 public:
  struct Config {
    double learning_rate = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
  };

  /// Throws std::invalid_argument when the lists differ in length or a
  /// parameter and its gradient differ in shape.
  Adam(std::vector<Matrix*> params, std::vector<Matrix*> grads,
       Config config);
  Adam(std::vector<Matrix*> params, std::vector<Matrix*> grads)
      : Adam(std::move(params), std::move(grads), Config{}) {}
  /// Applies one update using the bound gradients. Call after backward().
  void step();
  void set_learning_rate(double lr) noexcept { cfg_.learning_rate = lr; }
  [[nodiscard]] double learning_rate() const noexcept {
    return cfg_.learning_rate;
  }

 private:
  /// One parameter's element pointers for the current step.
  struct Slot {
    double* param;
    const double* grad;
    double* m;
    double* v;
  };

  std::vector<Matrix*> params_;
  std::vector<Matrix*> grads_;
  Config cfg_;
  long t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  std::vector<std::size_t> offsets_;  // element offset of each parameter,
                                      // then the total
  std::vector<Slot> slots_;           // refreshed by every step()
};

/// Global-norm gradient clipping; returns the pre-clip norm. Takes the
/// list by reference so per-batch callers can reuse one gradient vector
/// (copying it every step put an allocation on the training hot path).
double clip_gradients_by_norm(const std::vector<Matrix*>& grads,
                              double max_norm);

}  // namespace geonas::nn
