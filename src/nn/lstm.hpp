// Long short-term memory layer with full backpropagation through time.
//
// Standard LSTM (Hochreiter & Schmidhuber) with Keras-compatible gate
// layout [i, f, g, o], sigmoid recurrent gates, tanh candidate/output
// nonlinearity, Glorot input-kernel init, orthogonal-ish recurrent init
// and unit forget-gate bias. Always returns the full hidden sequence
// (return_sequences=true), which is what the paper's stacked seq-to-seq
// architectures need.
//
// Both passes run in the batched-GEMM formulation over time-major
// workspaces (row t * batch + b), with a constant number of kernel-pool
// fork-joins per pass (see DESIGN.md, "Kernel layer"). The forward is
// one parallel_for over batch-row slices: each chunk gathers its rows of
// x time-major, projects them through Wx, adds the bias and steps them
// through every timestep (H_{t-1} * Wh, then the fused gate stage); an
// undispatched pass projects the whole (batch * steps) slab in one GEMM.
// BPTT is one fork-join over the same slices for the data path (gate
// backward, dH, dX) and one over the weight-gradient rows. Every element
// keeps the operation order of the whole-slab formulation, so results
// are bitwise identical at every thread count. The workspaces are carved
// from an Arena at bind time, so steady-state training performs no
// allocation at all.
#pragma once

#include <array>

#include "nn/layer.hpp"

namespace geonas::nn {

class LSTM final : public Layer {
 public:
  LSTM(std::size_t in_features, std::size_t units);

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
    return units_;
  }

  [[nodiscard]] std::size_t in_features() const noexcept override {
    return in_;
  }

 private:
  void bind_workspace(tensor::Arena& arena,
                      const WorkspaceShape& shape) override;

  std::size_t in_;
  std::size_t units_;

  Matrix wx_;  // in x 4*units, gate blocks [i | f | g | o]
  Matrix wh_;  // units x 4*units
  Matrix b_;   // 1 x 4*units
  Matrix wx_grad_;
  Matrix wh_grad_;
  Matrix b_grad_;

  // Pack-once weight panels for every GEMM that multiplies persistent
  // weights (forward x*Wx / h*Wh, backward dZ*Wh^T / dZ*Wx^T); the
  // gradient GEMMs multiply activations on both sides and stay on the
  // per-call path. Re-validated lazily against Matrix::version() before
  // each use and re-packed eagerly through pack_sites() by
  // GraphNetwork::repack_weights after optimizer steps. Owned storage,
  // not the arena (which resets per rebind).
  tensor::PackedPanels wx_pack_;    // op = Wx
  tensor::PackedPanels wh_pack_;    // op = Wh
  tensor::PackedPanels wh_t_pack_;  // op = Wh^T
  tensor::PackedPanels wx_t_pack_;  // op = Wx^T
  std::array<PackSite, 4> pack_sites_;

  // Time-major workspaces carved from the bound arena for the bound
  // batch B; a forward at batch b <= B uses the first rows, indexed
  // t * b + row. They stay valid between a training forward and its
  // backward; any forward (training or not) reuses and overwrites them.
  // Rows [0, b) of h_seq_/c_seq_ are the zero initial state, re-zeroed
  // by every forward. The last three exist only after a training bind.
  tensor::ArenaMatrix x_tm_;   // [T*B, in] time-major input copy
  tensor::ArenaMatrix gates_;  // [T*B, 4*units] pre-activations, then gates
  tensor::ArenaMatrix h_seq_;  // [(T+1)*B, units]
  tensor::ArenaMatrix c_seq_;  // [(T+1)*B, units]
  tensor::ArenaMatrix dz_;     // [T*B, 4*units] gate pre-activation grads
  tensor::ArenaMatrix dh_;     // [B, units] running dL/dh_{t-1}
  tensor::ArenaMatrix dc_;     // [B, units] running dL/dc_{t-1}
  std::size_t batch_ = 0;      // batch of the latest forward
};

}  // namespace geonas::nn
