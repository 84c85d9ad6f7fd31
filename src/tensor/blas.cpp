#include "tensor/blas.hpp"

#include <functional>
#include <stdexcept>
#include <utility>

#include "tensor/gemm_kernel.hpp"
#include "tensor/prepack.hpp"

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

void gemm_raw(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
              std::size_t k, double alpha, const double* a, std::size_t lda,
              const double* b, std::size_t ldb, double beta, double* c,
              std::size_t ldc) {
  detail::gemm_blocked(m, n, k, alpha, a, lda, trans_a == Trans::kTranspose,
                       b, ldb, trans_b == Trans::kTranspose, beta, c, ldc);
}

void gemm_raw(Trans trans_a, std::size_t m, double alpha, const double* a,
              std::size_t lda, const tensor::PackedPanels& b, double beta,
              double* c, std::size_t ldc) {
  detail::gemm_blocked_packed_b(m, b.n(), b.k(), alpha, a, lda,
                                trans_a == Trans::kTranspose, b.data(), beta,
                                c, ldc);
}

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
    detail::gemm_blocked(m, n, k, alpha, a.flat().data(), k, false,
                         b.flat().data(), n, false, beta, tmp.flat().data(),
                         n);
    c = std::move(tmp);
    return;
  }

  if (c.rows() != m || c.cols() != n) {
    require(beta == 0.0, "gemm: C shape mismatch with beta != 0");
    c.resize(m, n, 0.0);
  }
  detail::gemm_blocked(m, n, k, alpha, a.flat().data(), k, false,
                       b.flat().data(), n, false, beta, c.flat().data(), n);
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
  detail::gemm_blocked(m, n, k, 1.0, a.flat().data(), m, true,
                       b.flat().data(), n, false, 0.0, c.flat().data(), n);
  return c;
}

}  // namespace geonas
