#include "data/windowing.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "tensor/random.hpp"

namespace geonas::data {

std::size_t window_count(std::size_t ns, const WindowConfig& config) {
  if (config.stride == 0) {
    // A zero stride would give N identical windows, all at column 0.
    throw std::invalid_argument("window_count: stride must be >= 1");
  }
  if (config.window == 0) {
    throw std::invalid_argument("window_count: window K must be >= 1");
  }
  const std::size_t width = 2 * config.window;
  if (ns < width) return 0;
  return (ns - width) / config.stride + 1;
}

WindowView::WindowView(const Matrix& coefficients, const WindowConfig& config)
    : coefficients_(&coefficients),
      config_(config),
      count_(window_count(coefficients.cols(), config)) {
  if (count_ == 0) {
    throw std::invalid_argument(
        "WindowView: series of Ns = " + std::to_string(coefficients.cols()) +
        " weeks is shorter than one input+target window (2K = " +
        std::to_string(2 * config.window) + " for K = " +
        std::to_string(config.window) + ")");
  }
}

void WindowView::gather(std::size_t first_col, std::span<double> dst) const {
  const Matrix& a = *coefficients_;
  const std::size_t nr = a.rows();
  for (std::size_t t = 0; t < config_.window; ++t) {
    for (std::size_t m = 0; m < nr; ++m) {
      dst[t * nr + m] = a(m, first_col + t);
    }
  }
}

void WindowView::gather_x(std::size_t e, std::span<double> dst) const {
  gather(e * config_.stride, dst);
}

void WindowView::gather_y(std::size_t e, std::span<double> dst) const {
  gather(e * config_.stride + config_.window, dst);
}

WindowedDataset WindowView::materialize() const {
  const std::size_t nr = features();
  const std::size_t k = config_.window;
  WindowedDataset out{Tensor3(count_, k, nr), Tensor3(count_, k, nr)};
  for (std::size_t e = 0; e < count_; ++e) {
    gather_x(e, out.x.block(e));
    gather_y(e, out.y.block(e));
  }
  return out;
}

SplitIndices train_val_split_indices(std::size_t n, double train_fraction,
                                     std::uint64_t seed) {
  if (train_fraction <= 0.0 || train_fraction >= 1.0) {
    // 1.0 used to be accepted and rounded to an empty validation set,
    // which downstream evaluation divides by. Both splits must be
    // non-empty, so the fraction is strictly interior.
    throw std::invalid_argument(
        "train_val_split_indices: train_fraction must be in (0, 1); both "
        "splits must be non-empty");
  }
  if (n < 2) {
    throw std::invalid_argument(
        "train_val_split_indices: need at least 2 windows to form "
        "non-empty train and validation splits");
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(seed);
  rng.shuffle(std::span<std::size_t>(order));

  // Round, then clamp so extreme-but-valid fractions (e.g. 0.99 at small
  // n) still leave at least one example on each side.
  const auto rounded = static_cast<std::size_t>(
      train_fraction * static_cast<double>(n) + 0.5);
  const std::size_t n_train = std::clamp<std::size_t>(rounded, 1, n - 1);

  SplitIndices split;
  split.train.assign(order.begin(),
                     order.begin() + static_cast<std::ptrdiff_t>(n_train));
  split.val.assign(order.begin() + static_cast<std::ptrdiff_t>(n_train),
                   order.end());
  return split;
}

}  // namespace geonas::data
