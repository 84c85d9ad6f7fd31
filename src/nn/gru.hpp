// Gated recurrent unit layer with full backpropagation through time.
//
// The paper's related work (Ororbia et al., Rawal & Miikkulainen) explores
// hybrid recurrent cells; geonas ships a GRU so the search space can mix
// cell types (see searchspace::NodeOp::kind). Standard formulation
// (Cho et al. 2014), Keras-compatible gate layout [z, r, h]:
//   z_t = sigmoid(x_t Wz + h_{t-1} Uz + bz)      (update gate)
//   r_t = sigmoid(x_t Wr + h_{t-1} Ur + br)      (reset gate)
//   hh  = tanh(x_t Wh + (r_t .* h_{t-1}) Uh + bh)
//   h_t = (1 - z_t) .* h_{t-1} + z_t .* hh
// Always returns the full hidden sequence.
//
// Like LSTM, both passes run in the batched-GEMM formulation over
// time-major workspaces with a constant number of kernel-pool
// fork-joins: the forward is one fork-join over batch-row slices that
// gathers, projects through Wx and biases its rows, then runs each
// timestep's two recurrent GEMMs (the z/r block against h_{t-1}, the
// candidate block against r .* h_{t-1}) and fused stages for them; BPTT
// is one fork-join over the same slices for the data path and one over
// the weight-gradient rows. The strided gemm_raw interface lets the z/r and
// candidate column blocks of the fused Wh matrix be updated in place.
// Workspaces are carved from an Arena at bind time: steady-state
// training performs no allocation (see DESIGN.md, "Memory model").
#pragma once

#include <array>

#include "nn/layer.hpp"

namespace geonas::nn {

class GRU final : public Layer {
 public:
  GRU(std::size_t in_features, std::size_t units);

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

  Matrix wx_;  // in x 3*units, gate blocks [z | r | h]
  Matrix wh_;  // units x 3*units
  Matrix b_;   // 1 x 3*units
  Matrix wx_grad_;
  Matrix wh_grad_;
  Matrix b_grad_;

  // Pack-once weight panels (see lstm.hpp). The per-timestep GEMMs
  // consume the [z | r] and [h] column blocks of the fused Wh
  // separately, so each block gets its own panel (forward and
  // transposed-backward variants); Wx packs whole.
  tensor::PackedPanels wx_pack_;       // op = Wx
  tensor::PackedPanels wh_zr_pack_;    // op = Wh[:, z|r]
  tensor::PackedPanels wh_h_pack_;     // op = Wh[:, h]
  tensor::PackedPanels wh_zr_t_pack_;  // op = Wh[:, z|r]^T
  tensor::PackedPanels wh_h_t_pack_;   // op = Wh[:, h]^T
  tensor::PackedPanels wx_t_pack_;     // op = Wx^T
  std::array<PackSite, 6> pack_sites_;

  // Time-major workspaces carved from the bound arena for the bound
  // batch B and reused across calls; a forward at batch b <= B uses the
  // first rows, indexed t * b + row. Rows [0, b) of h_seq_ are h_0 = 0,
  // re-zeroed by every forward. The last three exist only after a
  // training bind.
  tensor::ArenaMatrix x_tm_;   // [T*B, in]
  tensor::ArenaMatrix gates_;  // [T*B, 3*units] pre-activations, [z, r, hh]
  tensor::ArenaMatrix h_seq_;  // [(T+1)*B, units]
  tensor::ArenaMatrix rh_;     // [T*B, units] r_t .* h_{t-1}
  tensor::ArenaMatrix da_;     // [T*B, 3*units] gate pre-activation grads
  tensor::ArenaMatrix dh_;     // [B, units] running dL/dh_{t-1}
  tensor::ArenaMatrix drh_;    // [B, units] dL/d(r .* h_{t-1})
  std::size_t batch_ = 0;      // batch of the latest forward
};

}  // namespace geonas::nn
