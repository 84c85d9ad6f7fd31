#include "tensor/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "tensor/blas.hpp"

namespace geonas {

namespace {

double offdiag_norm(const Matrix& a) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (i != j) acc += a(i, j) * a(i, j);
    }
  }
  return std::sqrt(acc);
}

/// Rotates the pairs (x[k·stride], y[k·stride]), k < n, by (c, s):
/// x ← c·x − s·y and y ← s·x + c·y.
void rotate(double* x, double* y, std::size_t n, std::size_t stride, double c,
            double s) noexcept {
  for (std::size_t k = 0; k < n; ++k) {
    const double xk = x[k * stride];
    const double yk = y[k * stride];
    x[k * stride] = c * xk - s * yk;
    y[k * stride] = s * xk + c * yk;
  }
}

}  // namespace

EigenResult eigen_symmetric(const Matrix& input, double tol, int max_sweeps) {
  if (input.rows() != input.cols()) {
    throw std::invalid_argument("eigen_symmetric: matrix must be square");
  }
  const std::size_t n = input.rows();
  Matrix a = input;
  // V is kept transposed while sweeping (row i holds eigenvector i), so a
  // rotation of V's columns p and q runs over two contiguous rows.
  Matrix vt = Matrix::identity(n);
  const double scale = std::max(a.frobenius_norm(), 1e-300);
  double* const ad = a.flat().data();
  double* const vd = vt.flat().data();

  int sweep = 0;
  for (; sweep < max_sweeps; ++sweep) {
    if (offdiag_norm(a) <= tol * scale) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = ad[p * n + q];
        if (std::abs(apq) <= 1e-300) continue;
        const double app = ad[p * n + p];
        const double aqq = ad[q * n + q];
        // Stable rotation angle computation (Golub & Van Loan 8.4).
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Columns p and q of A, then its rows p and q. After rotations A
        // is no longer bitwise symmetric, so both updates stay.
        rotate(ad + p, ad + q, n, n, c, s);
        rotate(ad + p * n, ad + q * n, n, 1, c, s);
        rotate(vd + p * n, vd + q * n, n, 1, c, s);
      }
    }
  }

  EigenResult result;
  result.sweeps = sweep;
  result.eigenvalues.resize(n);
  for (std::size_t i = 0; i < n; ++i) result.eigenvalues[i] = ad[i * n + i];

  // Sort eigenpairs by descending eigenvalue, transposing V back.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return result.eigenvalues[x] > result.eigenvalues[y];
  });
  std::vector<double> sorted_vals(n);
  Matrix sorted_vecs(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    sorted_vals[i] = result.eigenvalues[order[i]];
    const double* vec = vd + order[i] * n;
    for (std::size_t r = 0; r < n; ++r) sorted_vecs(r, i) = vec[r];
  }
  result.eigenvalues = std::move(sorted_vals);
  result.eigenvectors = std::move(sorted_vecs);
  return result;
}

Matrix cholesky(const Matrix& a, double jitter) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("cholesky: matrix must be square");
  }
  const std::size_t n = a.rows();
  Matrix l(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j) + jitter;
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0) {
      throw std::domain_error("cholesky: matrix is not positive definite");
    }
    l(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      l(i, j) = acc / l(j, j);
    }
  }
  return l;
}

Matrix cholesky_solve(const Matrix& l, const Matrix& b) {
  const std::size_t n = l.rows();
  if (b.rows() != n) {
    throw std::invalid_argument("cholesky_solve: rhs row count mismatch");
  }
  Matrix x = b;
  // Forward substitution: L y = b.
  for (std::size_t c = 0; c < x.cols(); ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      double acc = x(i, c);
      for (std::size_t k = 0; k < i; ++k) acc -= l(i, k) * x(k, c);
      x(i, c) = acc / l(i, i);
    }
    // Back substitution: L^T x = y.
    for (std::size_t ii = n; ii-- > 0;) {
      double acc = x(ii, c);
      for (std::size_t k = ii + 1; k < n; ++k) acc -= l(k, ii) * x(k, c);
      x(ii, c) = acc / l(ii, ii);
    }
  }
  return x;
}

Matrix solve_spd(const Matrix& a, const Matrix& b, double jitter) {
  return cholesky_solve(cholesky(a, jitter), b);
}

Matrix solve_normal_equations(const Matrix& x, const Matrix& y,
                              double lambda) {
  Matrix xtx = matmul_at_b(x, x);
  for (std::size_t i = 0; i < xtx.rows(); ++i) xtx(i, i) += lambda;
  const Matrix xty = matmul_at_b(x, y);
  // Tiny jitter guards against exactly singular design matrices from
  // degenerate synthetic workloads.
  return solve_spd(xtx, xty, lambda > 0.0 ? 0.0 : 1e-10);
}

}  // namespace geonas
