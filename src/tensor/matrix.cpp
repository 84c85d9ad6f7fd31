#include "tensor/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace geonas {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init_rows) {
  rows_ = init_rows.size();
  cols_ = rows_ == 0 ? 0 : init_rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : init_rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix initializer rows have ragged lengths");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::column(std::span<const double> values) {
  Matrix m(values.size(), 1);
  std::copy(values.begin(), values.end(), m.data_.begin());
  return m;
}

Matrix Matrix::row(std::span<const double> values) {
  Matrix m(1, values.size());
  std::copy(values.begin(), values.end(), m.data_.begin());
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("Matrix::at(" + std::to_string(r) + "," +
                            std::to_string(c) + ") out of " +
                            std::to_string(rows_) + "x" + std::to_string(cols_));
  }
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  return const_cast<Matrix*>(this)->at(r, c);
}

std::vector<double> Matrix::col_copy(std::size_t c) const {
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::set_col(std::size_t c, std::span<const double> values) {
  if (values.size() != rows_) {
    throw std::invalid_argument("Matrix::set_col length mismatch");
  }
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = values[r];
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  // Blocked transpose keeps both streams cache-friendly on big snapshots.
  constexpr std::size_t kBlock = 32;
  for (std::size_t rb = 0; rb < rows_; rb += kBlock) {
    const std::size_t rmax = std::min(rb + kBlock, rows_);
    for (std::size_t cb = 0; cb < cols_; cb += kBlock) {
      const std::size_t cmax = std::min(cb + kBlock, cols_);
      for (std::size_t r = rb; r < rmax; ++r) {
        for (std::size_t c = cb; c < cmax; ++c) {
          out(c, r) = (*this)(r, c);
        }
      }
    }
  }
  return out;
}

Matrix Matrix::slice_cols(std::size_t c0, std::size_t c1) const {
  if (c0 > c1 || c1 > cols_) {
    throw std::out_of_range("Matrix::slice_cols range invalid");
  }
  Matrix out(rows_, c1 - c0);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::copy(data_.begin() + r * cols_ + c0, data_.begin() + r * cols_ + c1,
              out.data_.begin() + r * out.cols_);
  }
  return out;
}

void Matrix::fill(double value) noexcept {
  ++version_;
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::resize(std::size_t rows, std::size_t cols, double fill_value) {
  rows_ = rows;
  cols_ = cols;
  ++version_;
  data_.assign(rows * cols, fill_value);
}

Matrix& Matrix::operator+=(const Matrix& other) {
  require_same_shape(*this, other, "operator+=");
  ++version_;
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  require_same_shape(*this, other, "operator-=");
  ++version_;
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) noexcept {
  ++version_;
  for (double& v : data_) v *= scalar;
  return *this;
}

double Matrix::frobenius_norm() const noexcept {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

double Matrix::sum() const noexcept {
  double acc = 0.0;
  for (double v : data_) acc += v;
  return acc;
}

std::string Matrix::to_string(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed;
  for (std::size_t r = 0; r < rows_; ++r) {
    os << (r == 0 ? "[[" : " [");
    for (std::size_t c = 0; c < cols_; ++c) {
      os << (*this)(r, c) << (c + 1 < cols_ ? ", " : "");
    }
    os << (r + 1 < rows_ ? "],\n" : "]]");
  }
  return os.str();
}

void Tensor3::resize(std::size_t d0, std::size_t d1, std::size_t d2,
                     double fill_value) {
  d0_ = d0;
  d1_ = d1;
  d2_ = d2;
  data_.assign(d0 * d1 * d2, fill_value);
}

void Tensor3::ensure_shape(std::size_t d0, std::size_t d1, std::size_t d2) {
  if (d0 == d0_ && d1 == d1_ && d2 == d2_) return;
  resize(d0, d1, d2);
}

void require_same_shape(const Matrix& a, const Matrix& b, const char* op) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(
        std::string("geonas::Matrix shape mismatch in ") + op + ": " +
        std::to_string(a.rows()) + "x" + std::to_string(a.cols()) + " vs " +
        std::to_string(b.rows()) + "x" + std::to_string(b.cols()));
  }
}

}  // namespace geonas
