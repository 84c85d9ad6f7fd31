// Dense row-major matrix and 3-D tensor containers for geonas.
//
// These are the numeric substrate for the whole library: POD compression,
// the neural-network layers and the classical baselines all operate on
// geonas::Matrix. The containers own contiguous heap storage, are cheap to
// move, and expose std::span views so kernels can be written against raw
// contiguous memory without exposing pointers at API boundaries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace geonas {

/// Dense row-major matrix of doubles.
///
/// Invariants: data_.size() == rows_ * cols_ at all times. A 0x0 matrix is
/// a valid empty state. Element access is bounds-checked in debug builds
/// via at(); operator() is unchecked for kernel-speed inner loops.
///
/// Every mutable access path bumps a monotonic version() counter, which
/// derived caches (tensor::PackedPanels weight panels) compare against to
/// decide whether they must re-derive. The counter over-approximates
/// mutation — handing out a mutable span counts as a write — so a cache
/// that matches version() is guaranteed fresh, while a reader that only
/// uses const access never invalidates anything. The one blind spot:
/// writes through a PREVIOUSLY obtained span are invisible, so code that
/// interleaves span writes with reads of derived caches must re-acquire
/// flat() (or any mutable accessor) per mutation event, as the optimizer
/// and deserializer do.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  Matrix(const Matrix&) = default;
  Matrix(Matrix&&) noexcept = default;
  // Assignment keeps the destination's own monotonic counter and bumps
  // it: copying version numbers across objects would let a cache keyed on
  // (matrix, version) accept a pack built from entirely different data.
  Matrix& operator=(const Matrix& other) {
    if (this != &other) {
      rows_ = other.rows_;
      cols_ = other.cols_;
      data_ = other.data_;
      ++version_;
    }
    return *this;
  }
  Matrix& operator=(Matrix&& other) noexcept {
    if (this != &other) {
      rows_ = other.rows_;
      cols_ = other.cols_;
      data_ = std::move(other.data_);
      ++version_;
    }
    return *this;
  }
  ~Matrix() = default;

  /// Build from nested initializer lists: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  /// Column vector (n x 1) from a flat sequence.
  static Matrix column(std::span<const double> values);
  /// Row vector (1 x n) from a flat sequence.
  static Matrix row(std::span<const double> values);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    ++version_;
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access; throws std::out_of_range.
  double& at(std::size_t r, std::size_t c);
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  [[nodiscard]] std::span<double> flat() noexcept {
    ++version_;
    return data_;
  }
  [[nodiscard]] std::span<const double> flat() const noexcept { return data_; }

  /// Contiguous view of one row.
  [[nodiscard]] std::span<double> row_span(std::size_t r) noexcept {
    ++version_;
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row_span(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  /// Copy out one column (columns are strided, so this materializes).
  [[nodiscard]] std::vector<double> col_copy(std::size_t c) const;
  void set_col(std::size_t c, std::span<const double> values);

  [[nodiscard]] Matrix transposed() const;
  /// Columns [c0, c1) as a new matrix.
  [[nodiscard]] Matrix slice_cols(std::size_t c0, std::size_t c1) const;

  void fill(double value) noexcept;
  void resize(std::size_t rows, std::size_t cols, double fill_value = 0.0);

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar) noexcept;

  friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
  friend Matrix operator*(Matrix lhs, double s) { return lhs *= s; }
  friend Matrix operator*(double s, Matrix rhs) { return rhs *= s; }

  /// Value equality: shape and elements only. version() is bookkeeping,
  /// not value — two matrices with equal contents compare equal no
  /// matter how they got there.
  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

  /// Monotonic mutation counter (see class comment). Never decreases;
  /// equal values across two observations of the SAME object mean no
  /// mutable access happened in between.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const noexcept;
  [[nodiscard]] double sum() const noexcept;

  /// Human-readable rendering (for small matrices / debugging).
  [[nodiscard]] std::string to_string(int precision = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
  std::uint64_t version_ = 0;
};

/// Dense 3-D tensor (dim0 x dim1 x dim2), row-major in the last index.
///
/// Used for batched sequence data: [batch, time, features]. slice(i)
/// exposes the i-th [time, features] block as spans without copying.
class Tensor3 {
 public:
  Tensor3() = default;
  Tensor3(std::size_t d0, std::size_t d1, std::size_t d2, double fill = 0.0)
      : d0_(d0), d1_(d1), d2_(d2), data_(d0 * d1 * d2, fill) {}

  [[nodiscard]] std::size_t dim0() const noexcept { return d0_; }
  [[nodiscard]] std::size_t dim1() const noexcept { return d1_; }
  [[nodiscard]] std::size_t dim2() const noexcept { return d2_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t i, std::size_t j, std::size_t k) noexcept {
    return data_[(i * d1_ + j) * d2_ + k];
  }
  double operator()(std::size_t i, std::size_t j, std::size_t k) const noexcept {
    return data_[(i * d1_ + j) * d2_ + k];
  }

  [[nodiscard]] std::span<double> flat() noexcept { return data_; }
  [[nodiscard]] std::span<const double> flat() const noexcept { return data_; }

  /// View of block i as a contiguous [dim1 * dim2] span.
  [[nodiscard]] std::span<double> block(std::size_t i) noexcept {
    return {data_.data() + i * d1_ * d2_, d1_ * d2_};
  }
  [[nodiscard]] std::span<const double> block(std::size_t i) const noexcept {
    return {data_.data() + i * d1_ * d2_, d1_ * d2_};
  }

  /// Reshapes to (d0, d1, d2) and refills every element with
  /// `fill_value` (Matrix::resize semantics). No allocation when the
  /// existing capacity suffices.
  void resize(std::size_t d0, std::size_t d1, std::size_t d2,
              double fill_value = 0.0);
  /// Reshapes to (d0, d1, d2) without touching element values when the
  /// shape already matches; contents after a genuine reshape are
  /// unspecified (callers overwrite). The batch hot paths use this to
  /// reuse capacity without the refill cost of resize().
  void ensure_shape(std::size_t d0, std::size_t d1, std::size_t d2);

  bool operator==(const Tensor3& other) const = default;

 private:
  std::size_t d0_ = 0;
  std::size_t d1_ = 0;
  std::size_t d2_ = 0;
  std::vector<double> data_;
};

/// Throws std::invalid_argument with a formatted message when dims differ.
void require_same_shape(const Matrix& a, const Matrix& b, const char* op);

}  // namespace geonas
