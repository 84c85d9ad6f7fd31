#include "tensor/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace geonas {

namespace {
void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}
}  // namespace

double mean(std::span<const double> x) {
  require(!x.empty(), "mean: empty input");
  double acc = 0.0;
  for (double v : x) acc += v;
  return acc / static_cast<double>(x.size());
}

double variance(std::span<const double> x) {
  const double m = mean(x);
  double acc = 0.0;
  for (double v : x) acc += (v - m) * (v - m);
  return acc / static_cast<double>(x.size());
}

double stddev(std::span<const double> x) { return std::sqrt(variance(x)); }

double r2_score(std::span<const double> truth,
                std::span<const double> predicted) {
  require(truth.size() == predicted.size(), "r2_score: length mismatch");
  require(!truth.empty(), "r2_score: empty input");
  const double m = mean(truth);
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const double res = truth[i] - predicted[i];
    const double dev = truth[i] - m;
    ss_res += res * res;
    ss_tot += dev * dev;
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

double r2_score(const Matrix& truth, const Matrix& predicted) {
  require_same_shape(truth, predicted, "r2_score");
  return r2_score(truth.flat(), predicted.flat());
}

double rmse(std::span<const double> truth, std::span<const double> predicted) {
  require(truth.size() == predicted.size(), "rmse: length mismatch");
  require(!truth.empty(), "rmse: empty input");
  double acc = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const double d = truth[i] - predicted[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(truth.size()));
}

double rmse(const Matrix& truth, const Matrix& predicted) {
  require_same_shape(truth, predicted, "rmse");
  return rmse(truth.flat(), predicted.flat());
}

double pearson(std::span<const double> x, std::span<const double> y) {
  require(x.size() == y.size(), "pearson: length mismatch");
  require(x.size() >= 2, "pearson: need at least two samples");
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> moving_average(std::span<const double> x,
                                   std::size_t window) {
  require(window > 0, "moving_average: window must be positive");
  std::vector<double> out(x.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += x[i];
    if (i >= window) acc -= x[i - window];
    const std::size_t n = std::min(i + 1, window);
    out[i] = acc / static_cast<double>(n);
  }
  return out;
}

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace geonas
