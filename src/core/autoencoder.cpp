#include "core/autoencoder.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "tensor/random.hpp"

namespace geonas::core {

namespace {

/// Global gradient-norm clip per step.
constexpr double kGradClipNorm = 5.0;

nn::GraphNetwork make_mlp(std::size_t in, std::size_t hidden, std::size_t out,
                          bool tanh_output) {
  nn::GraphNetwork net;
  const auto h1 = net.add_node(
      std::make_unique<nn::Dense>(in, hidden, nn::Activation::kTanh),
      {nn::GraphNetwork::input_id()});
  net.add_node(std::make_unique<nn::Dense>(
                   hidden, out,
                   tanh_output ? nn::Activation::kTanh
                               : nn::Activation::kIdentity),
               {h1});
  return net;
}

}  // namespace

Autoencoder::Autoencoder(AutoencoderConfig config) : cfg_(config) {
  if (cfg_.latent_dim == 0 || cfg_.hidden == 0) {
    throw std::invalid_argument("Autoencoder: zero-sized dimension");
  }
}

Tensor3 Autoencoder::standardize(const Matrix& snapshots) const {
  if (snapshots.rows() != mean_.size()) {
    throw std::invalid_argument("Autoencoder: snapshot DoF mismatch");
  }
  Tensor3 out(snapshots.cols(), 1, snapshots.rows());
  for (std::size_t c = 0; c < snapshots.cols(); ++c) {
    for (std::size_t r = 0; r < snapshots.rows(); ++r) {
      out(c, 0, r) = (snapshots(r, c) - mean_[r]) / std_[r];
    }
  }
  return out;
}

std::vector<double> Autoencoder::fit(const Matrix& snapshots) {
  const std::size_t nh = snapshots.rows(), ns = snapshots.cols();
  if (nh == 0 || ns < 2) {
    throw std::invalid_argument("Autoencoder::fit: need >= 2 snapshots");
  }

  // Per-cell standardization on the training snapshots.
  mean_.assign(nh, 0.0);
  std_.assign(nh, 1.0);
  for (std::size_t c = 0; c < ns; ++c) {
    for (std::size_t r = 0; r < nh; ++r) mean_[r] += snapshots(r, c);
  }
  for (double& v : mean_) v /= static_cast<double>(ns);
  for (std::size_t r = 0; r < nh; ++r) {
    double var = 0.0;
    for (std::size_t c = 0; c < ns; ++c) {
      const double d = snapshots(r, c) - mean_[r];
      var += d * d;
    }
    std_[r] = std::sqrt(var / static_cast<double>(ns));
    if (std_[r] < 1e-8) std_[r] = 1.0;
  }

  encoder_ = make_mlp(nh, cfg_.hidden, cfg_.latent_dim, /*tanh_output=*/true);
  decoder_ = make_mlp(cfg_.latent_dim, cfg_.hidden, nh, /*tanh_output=*/false);
  encoder_.init_params(cfg_.seed);
  decoder_.init_params(hash_combine(cfg_.seed, 0xDECULL));

  // Joint optimizer over both networks' parameters.
  std::vector<Matrix*> params = encoder_.parameters();
  std::vector<Matrix*> grads = encoder_.gradients();
  for (Matrix* p : decoder_.parameters()) params.push_back(p);
  for (Matrix* g : decoder_.gradients()) grads.push_back(g);
  nn::Adam optimizer(params, grads, {.learning_rate = cfg_.learning_rate});

  const Tensor3 data = standardize(snapshots);
  std::vector<std::size_t> order(ns);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(cfg_.seed);

  std::vector<double> history;
  history.reserve(cfg_.epochs);
  const std::size_t bs = std::max<std::size_t>(1, cfg_.batch_size);
  for (std::size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
    rng.shuffle(std::span<std::size_t>(order));
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < ns; start += bs) {
      const std::size_t end = std::min(start + bs, ns);
      Tensor3 xb(end - start, 1, nh);
      for (std::size_t i = start; i < end; ++i) {
        const auto src = data.block(order[i]);
        auto dst = xb.block(i - start);
        std::copy(src.begin(), src.end(), dst.begin());
      }
      encoder_.zero_grad();
      decoder_.zero_grad();
      const Tensor3 latent = encoder_.forward(xb, /*training=*/true);
      const Tensor3 recon = decoder_.forward(latent, /*training=*/true);
      epoch_loss += nn::mse_loss(xb, recon);
      // Chain gradients decoder -> encoder.
      const Tensor3 dlatent = decoder_.backward(nn::mse_grad(xb, recon));
      (void)encoder_.backward(dlatent);
      nn::clip_gradients_by_norm(grads, kGradClipNorm);
      optimizer.step();
      ++batches;
    }
    history.push_back(epoch_loss / static_cast<double>(std::max<std::size_t>(1, batches)));
  }
  fitted_ = true;
  return history;
}

Matrix Autoencoder::encode(const Matrix& snapshots) const {
  if (!fitted_) throw std::logic_error("Autoencoder::encode before fit");
  const Tensor3 latent = encoder_.forward(standardize(snapshots), false);
  Matrix out(cfg_.latent_dim, snapshots.cols());
  for (std::size_t c = 0; c < snapshots.cols(); ++c) {
    for (std::size_t m = 0; m < cfg_.latent_dim; ++m) {
      out(m, c) = latent(c, 0, m);
    }
  }
  return out;
}

Matrix Autoencoder::decode(const Matrix& latent) const {
  if (!fitted_) throw std::logic_error("Autoencoder::decode before fit");
  if (latent.rows() != cfg_.latent_dim) {
    throw std::invalid_argument("Autoencoder::decode: latent dim mismatch");
  }
  Tensor3 codes(latent.cols(), 1, cfg_.latent_dim);
  for (std::size_t c = 0; c < latent.cols(); ++c) {
    for (std::size_t m = 0; m < cfg_.latent_dim; ++m) {
      codes(c, 0, m) = latent(m, c);
    }
  }
  const Tensor3 recon = decoder_.forward(codes, false);
  Matrix out(mean_.size(), latent.cols());
  for (std::size_t c = 0; c < latent.cols(); ++c) {
    for (std::size_t r = 0; r < mean_.size(); ++r) {
      out(r, c) = recon(c, 0, r) * std_[r] + mean_[r];
    }
  }
  return out;
}

double Autoencoder::reconstruction_error(const Matrix& snapshots) const {
  const Matrix recon = decode(encode(snapshots));
  double num = 0.0, den = 0.0;
  for (std::size_t c = 0; c < snapshots.cols(); ++c) {
    for (std::size_t r = 0; r < snapshots.rows(); ++r) {
      const double centered = snapshots(r, c) - mean_[r];
      const double d = recon(r, c) - snapshots(r, c);
      num += d * d;
      den += centered * centered;
    }
  }
  return den == 0.0 ? 0.0 : num / den;
}

}  // namespace geonas::core
