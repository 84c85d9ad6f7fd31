// Windowed example extraction and dataset splitting (paper §II-B).
//
// Given the POD coefficient matrix A (Nr x Ns), every width-2K subinterval
// becomes one example: the first K columns are the input sequence, the
// last K the target sequence ("measurements of 8 weeks ... to predict 8
// weeks of the same in the future"). Examples are split 80/20 into
// training and validation by a seeded random permutation.
//
// Note: for Ns = 427 and K = 8 the stride-1 window count is
// Ns - 2K + 1 = 412; the paper reports 1,111 examples for the same
// parameters, which is not reproducible from its stated definition. We
// implement the stated definition (see EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/matrix.hpp"

namespace geonas::data {

struct WindowConfig {
  std::size_t window = 8;  // K: input length == output length
  std::size_t stride = 1;  // must be >= 1; 0 is rejected
};

/// A windowed sequence-to-sequence dataset: x/y are [N, K, Nr].
struct WindowedDataset {
  Tensor3 x;
  Tensor3 y;

  [[nodiscard]] std::size_t size() const noexcept { return x.dim0(); }
};

/// Zero-copy strided view over the windowed examples of a coefficient
/// matrix. Instead of materializing every window into an [N, K, Nr]
/// tensor pair (which duplicates each source column up to 2K times),
/// the view gathers one example at a time straight out of the matrix:
/// example e's input block is columns [e*stride, e*stride + K) and its
/// target block columns [e*stride + K, e*stride + 2K), transposed to
/// row-major [K, Nr]. Non-owning — the coefficient matrix must outlive
/// the view, and gathers read it in place (aliasing rule: do not mutate
/// the matrix while trainers hold views over it).
///
/// Window or stride 0, or a series shorter than one 2K window, is
/// rejected at construction.
class WindowView {
 public:
  WindowView(const Matrix& coefficients, const WindowConfig& config);

  /// Number of examples (same value as window_count).
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::size_t window() const noexcept { return config_.window; }
  [[nodiscard]] std::size_t stride() const noexcept { return config_.stride; }
  /// Feature count per step (Nr, the POD coefficient count).
  [[nodiscard]] std::size_t features() const noexcept {
    return coefficients_->rows();
  }

  /// Writes example e's input block, row-major [K, Nr], into dst
  /// (exactly K*Nr elements).
  void gather_x(std::size_t e, std::span<double> dst) const;
  /// Same for the target block (the K columns after the input's).
  void gather_y(std::size_t e, std::span<double> dst) const;

  /// Every example copied into a tensor pair: x.block(e) and y.block(e)
  /// are what gather_x(e) and gather_y(e) write.
  [[nodiscard]] WindowedDataset materialize() const;

 private:
  void gather(std::size_t first_col, std::span<double> dst) const;

  const Matrix* coefficients_;
  WindowConfig config_;
  std::size_t count_;
};

/// Number of windowed examples in a series of `ns` columns (0 when
/// ns < 2K). Throws when config.window == 0 (an empty window) or
/// config.stride == 0 (a zero stride would repeat the same window).
[[nodiscard]] std::size_t window_count(std::size_t ns,
                                       const WindowConfig& config);

/// A train/validation split of windowed examples, materialized.
struct SplitDataset {
  WindowedDataset train;
  WindowedDataset val;
};

/// Which example ids land in train and in validation; route them through
/// a WindowView to train without copying any window.
struct SplitIndices {
  std::vector<std::size_t> train;
  std::vector<std::size_t> val;
};

/// Seeded random 80/20 (by default) train/validation split of example
/// ids [0, n): a seeded permutation, cut after round(train_fraction * n)
/// ids. Requires train_fraction strictly in (0, 1) and at least 2
/// examples, and clamps the train count to [1, n-1]: both splits are
/// always non-empty (validation metrics divide by the validation count).
[[nodiscard]] SplitIndices train_val_split_indices(std::size_t n,
                                                   double train_fraction = 0.8,
                                                   std::uint64_t seed = 1234);

}  // namespace geonas::data
