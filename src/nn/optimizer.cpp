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

Adam::Adam(std::vector<Matrix*> params, std::vector<Matrix*> grads,
           Config config)
    : params_(std::move(params)), grads_(std::move(grads)), cfg_(config) {
  if (params_.size() != grads_.size()) {
    throw std::invalid_argument("Adam: parameter/gradient list mismatch");
  }
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  offsets_.reserve(params_.size() + 1);
  offsets_.push_back(0);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const Matrix* p = params_[i];
    const Matrix* g = grads_[i];
    if (p == nullptr || g == nullptr || p->rows() != g->rows() ||
        p->cols() != g->cols()) {
      throw std::invalid_argument("Adam: parameter/gradient shape clash");
    }
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
            s.param[k] -=
                cfg.learning_rate * (mhat / (std::sqrt(vhat) + cfg.epsilon));
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
