#include "tensor/blas.hpp"

#include <functional>
#include <stdexcept>
#include <utility>

namespace geonas {

namespace {
void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

/// True when the two storage ranges share any byte. std::less gives a
/// total pointer order, so the test is well-defined even for unrelated
/// allocations.
bool ranges_overlap(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) return false;
  const std::less<const double*> lt;
  return lt(a.data(), b.data() + b.size()) && lt(b.data(), a.data() + a.size());
}
}  // namespace

void gemm(const Matrix& a, const Matrix& b, Matrix& c, double alpha,
          double beta) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  require(b.rows() == k, "gemm: inner dimensions differ");

  // Aliasing guard: if C shares storage with A or B, computing in place
  // would corrupt the operands mid-product. Run through a temporary and
  // move it in. Checked before any resize of C so gemm(a, b, a) cannot
  // clobber a's data either.
  if (ranges_overlap(c.flat(), a.flat()) || ranges_overlap(c.flat(), b.flat())) {
    Matrix tmp;
    if (beta == 0.0) {
      tmp.resize(m, n, 0.0);
    } else {
      require(c.rows() == m && c.cols() == n,
              "gemm: C shape mismatch with beta != 0");
      tmp = c;
    }
    gemm_raw(Trans::kNone, Trans::kNone, m, n, k, alpha, a.flat().data(), k,
             b.flat().data(), n, beta, tmp.flat().data(), n);
    c = std::move(tmp);
    return;
  }

  if (c.rows() != m || c.cols() != n) {
    require(beta == 0.0, "gemm: C shape mismatch with beta != 0");
    c.resize(m, n, 0.0);
  }
  gemm_raw(Trans::kNone, Trans::kNone, m, n, k, alpha, a.flat().data(), k,
           b.flat().data(), n, beta, c.flat().data(), n);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  gemm(a, b, c);
  return c;
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  const std::size_t m = a.cols(), k = a.rows(), n = b.cols();
  require(b.rows() == k, "matmul_at_b: inner dimensions differ");
  Matrix c(m, n);
  gemm_raw(Trans::kTranspose, Trans::kNone, m, n, k, 1.0, a.flat().data(), m,
           b.flat().data(), n, 0.0, c.flat().data(), n);
  return c;
}

}  // namespace geonas
