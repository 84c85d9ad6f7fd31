#include "nn/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "hpc/parallel_for.hpp"

namespace geonas::nn {

namespace {

/// Rough cost of one Adam element update (a square root and three
/// divisions dominate), in blocked-GEMM flops of the same duration.
/// Sizes the parallel_for threshold test: a step engages the kernel
/// pool from ~50k parameters.
constexpr double kAdamFlopsPerElement = 20.0;

}  // namespace

Optimizer::Optimizer(std::vector<Matrix*> params, std::vector<Matrix*> grads)
    : params_(std::move(params)), grads_(std::move(grads)) {
  if (params_.size() != grads_.size()) {
    throw std::invalid_argument("Optimizer: parameter/gradient list mismatch");
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (params_[i] == nullptr || grads_[i] == nullptr ||
        params_[i]->rows() != grads_[i]->rows() ||
        params_[i]->cols() != grads_[i]->cols()) {
      throw std::invalid_argument("Optimizer: parameter/gradient shape clash");
    }
  }
}

SGD::SGD(std::vector<Matrix*> params, std::vector<Matrix*> grads,
         double learning_rate, double momentum)
    : Optimizer(std::move(params), std::move(grads)),
      lr_(learning_rate),
      momentum_(momentum) {
  if (momentum_ != 0.0) {
    velocity_.reserve(params_.size());
    for (const Matrix* p : params_) {
      velocity_.emplace_back(p->rows(), p->cols());
    }
  }
}

void SGD::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto pf = params_[i]->flat();
    const auto gf = grads_[i]->flat();
    if (momentum_ != 0.0) {
      auto vf = velocity_[i].flat();
      for (std::size_t k = 0; k < pf.size(); ++k) {
        vf[k] = momentum_ * vf[k] - lr_ * gf[k];
        pf[k] += vf[k];
      }
    } else {
      for (std::size_t k = 0; k < pf.size(); ++k) pf[k] -= lr_ * gf[k];
    }
  }
}

Adam::Adam(std::vector<Matrix*> params, std::vector<Matrix*> grads,
           Config config)
    : Optimizer(std::move(params), std::move(grads)), cfg_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  offsets_.reserve(params_.size() + 1);
  offsets_.push_back(0);
  for (const Matrix* p : params_) {
    m_.emplace_back(p->rows(), p->cols());
    v_.emplace_back(p->rows(), p->cols());
    offsets_.push_back(offsets_.back() + p->size());
  }
  slots_.resize(params_.size());
}

void Adam::step() {
  ++t_;
  const double bias1 = 1.0 - std::pow(cfg_.beta1, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(cfg_.beta2, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    slots_[i] = {params_[i]->flat().data(), grads_[i]->flat().data(),
                 m_[i].flat().data(), v_[i].flat().data()};
  }
  const Config cfg = cfg_;
  const std::size_t total = offsets_.back();
  hpc::parallel_for(
      0, total, kAdamFlopsPerElement * static_cast<double>(total), 8,
      [&](std::size_t lo, std::size_t hi) {
        // The parameter holding element `lo`, then each one after it
        // until `hi`.
        auto i = static_cast<std::size_t>(
            std::upper_bound(offsets_.begin(), offsets_.end(), lo) -
            offsets_.begin() - 1);
        for (std::size_t at = lo; at < hi; ++i) {
          const std::size_t base = offsets_[i];
          const std::size_t end = std::min(hi, offsets_[i + 1]);
          const Slot& s = slots_[i];
          for (std::size_t k = at - base; k < end - base; ++k) {
            s.m[k] = cfg.beta1 * s.m[k] + (1.0 - cfg.beta1) * s.grad[k];
            s.v[k] = cfg.beta2 * s.v[k] +
                     (1.0 - cfg.beta2) * s.grad[k] * s.grad[k];
            const double mhat = s.m[k] / bias1;
            const double vhat = s.v[k] / bias2;
            s.param[k] -= cfg.learning_rate *
                          (mhat / (std::sqrt(vhat) + cfg.epsilon) +
                           cfg.weight_decay * s.param[k]);
          }
          at = end;
        }
      });
}

double clip_gradients_by_norm(const std::vector<Matrix*>& grads,
                              double max_norm) {
  double sq = 0.0;
  for (const Matrix* g : grads) {
    for (double v : g->flat()) sq += v * v;
  }
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const double scale = max_norm / norm;
    for (Matrix* g : grads) {
      for (double& v : g->flat()) v *= scale;
    }
  }
  return norm;
}

}  // namespace geonas::nn
