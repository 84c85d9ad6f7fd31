// Descriptive statistics and forecast-quality metrics.
//
// R^2 (coefficient of determination) is the paper's search reward and
// Table II metric; RMSE is the Table I metric; the moving-window average
// (window 100) is the paper's smoothing of search trajectories (§IV).
// The node-utilisation AUC lives with its tracker (hpc/utilization.hpp).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/matrix.hpp"

namespace geonas {

[[nodiscard]] double mean(std::span<const double> x);
[[nodiscard]] double variance(std::span<const double> x);  // population
[[nodiscard]] double stddev(std::span<const double> x);

/// Coefficient of determination: 1 - SS_res / SS_tot. Returns -inf-like
/// large negative values for terrible fits; 1.0 for perfect. If the truth
/// is constant, returns 1.0 when predictions match exactly, else 0.0.
[[nodiscard]] double r2_score(std::span<const double> truth,
                              std::span<const double> predicted);
[[nodiscard]] double r2_score(const Matrix& truth, const Matrix& predicted);

[[nodiscard]] double rmse(std::span<const double> truth,
                          std::span<const double> predicted);
[[nodiscard]] double rmse(const Matrix& truth, const Matrix& predicted);

/// Pearson correlation coefficient.
[[nodiscard]] double pearson(std::span<const double> x,
                             std::span<const double> y);

/// Trailing moving average with the given window (paper uses window=100
/// for reward and utilisation trajectories). Output has the same length;
/// entry i averages inputs max(0, i-window+1) .. i.
[[nodiscard]] std::vector<double> moving_average(std::span<const double> x,
                                                 std::size_t window);

/// Online mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x) noexcept;
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace geonas
