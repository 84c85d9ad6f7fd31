// Nonlinear snapshot compression with a dense autoencoder.
//
// The paper's stated future work (§VI) is to "overcome the limitations of
// the POD by hybridizing compression and time evolution": geonas ships the
// compression half — a tanh bottleneck autoencoder that maps ocean
// snapshots to a low-dimensional latent space and back. It is a drop-in
// alternative to pod::POD for the coefficient-forecasting pipeline
// (encode -> window -> LSTM -> decode) and the ae_vs_pod example compares
// the two compressions' reconstruction errors at equal latent dimension.
//
// Snapshots are standardized per cell (training statistics) before
// encoding; encoder and decoder are trained jointly by explicit gradient
// chaining through two GraphNetworks.
#pragma once

#include <cstdint>

#include "nn/graph.hpp"
#include "tensor/matrix.hpp"

namespace geonas::core {

struct AutoencoderConfig {
  std::size_t latent_dim = 5;    // matches the POD Nr for fair comparison
  std::size_t hidden = 64;       // encoder/decoder hidden width
  std::size_t epochs = 150;
  std::size_t batch_size = 16;
  double learning_rate = 1e-3;
  std::uint64_t seed = 7;
};

class Autoencoder {
 public:
  explicit Autoencoder(AutoencoderConfig config = AutoencoderConfig{});

  /// Trains on column-wise snapshots (Nh x Ns, the POD layout). Returns
  /// the per-epoch training MSE (standardized units).
  std::vector<double> fit(const Matrix& snapshots);

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] std::size_t latent_dim() const noexcept {
    return cfg_.latent_dim;
  }
  [[nodiscard]] std::size_t num_dof() const noexcept { return mean_.size(); }

  /// Latent codes for column-wise snapshots: latent_dim x Ns.
  [[nodiscard]] Matrix encode(const Matrix& snapshots) const;
  /// Reconstruction from latent codes: Nh x Ns (unstandardized).
  [[nodiscard]] Matrix decode(const Matrix& latent) const;

  /// Relative squared reconstruction error against the (centered)
  /// snapshots — directly comparable to POD::empirical_projection_error.
  [[nodiscard]] double reconstruction_error(const Matrix& snapshots) const;

 private:
  [[nodiscard]] Tensor3 standardize(const Matrix& snapshots) const;

  AutoencoderConfig cfg_;
  mutable nn::GraphNetwork encoder_;
  mutable nn::GraphNetwork decoder_;
  std::vector<double> mean_;  // per-cell standardization
  std::vector<double> std_;
  bool fitted_ = false;
};

}  // namespace geonas::core
