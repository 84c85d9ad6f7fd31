#include "tensor/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/blas.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define GEONAS_LINALG_X86_DISPATCH 1
#include <immintrin.h>
#endif

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

/// Step (p, q) of a sweep: the angle that zeroes A(p, q).
struct Rotation {
  std::size_t p;
  std::size_t q;
  double c;
  double s;
};

/// Rows a catch-up block rotates together: two 4-wide AVX2 chains.
constexpr std::size_t kBlockRows = 8;

// Every kernel below maps a pair (x, y) to (c·x − s·y, s·x + c·y) with
// the products and the sum rounded separately, so an element's value
// does not depend on which kernel, lane or loop rotated it.

/// Rotates the pairs (x[k], y[k]), k < n, by (c, s).
inline __attribute__((always_inline)) void rotate_pairs(
    double* x, double* y, std::size_t n, double c, double s) noexcept {
  for (std::size_t k = 0; k < n; ++k) {
    const double xk = x[k];
    const double yk = y[k];
    x[k] = c * xk - s * yk;
    y[k] = s * xk + c * yk;
  }
}

/// Applies the column rotations rot[0, count) of pivot p to each of the R
/// rows: rotation (p, q, c, s) rotates the pair (row[p], row[q]). Each row
/// is one chain through row[p]; R rows give R independent chains.
template <std::size_t R>
void rotate_columns(double* const* rows, std::size_t p, const Rotation* rot,
                    std::size_t count) noexcept {
  double x[R];
  for (std::size_t r = 0; r < R; ++r) x[r] = rows[r][p];
  for (std::size_t i = 0; i < count; ++i) {
    const double c = rot[i].c;
    const double s = rot[i].s;
    const std::size_t q = rot[i].q;
    for (std::size_t r = 0; r < R; ++r) {
      const double y = rows[r][q];
      rows[r][q] = s * x[r] + c * y;
      x[r] = c * x[r] - s * y;
    }
  }
  for (std::size_t r = 0; r < R; ++r) rows[r][p] = x[r];
}

#ifdef GEONAS_LINALG_X86_DISPATCH
// AVX2 without FMA: a contracted c·x − s·y would round once where the
// portable kernels round twice.
__attribute__((target("avx2"))) void rotate_pairs_avx2(
    double* x, double* y, std::size_t n, double c, double s) noexcept {
  rotate_pairs(x, y, n, c, s);
}

/// Column j of rows[0..3], one row per lane.
__attribute__((target("avx2"))) inline __m256d gather4(double* const* rows,
                                                       std::size_t j) {
  const __m128d lo = _mm_loadh_pd(_mm_load_sd(rows[0] + j), rows[1] + j);
  const __m128d hi = _mm_loadh_pd(_mm_load_sd(rows[2] + j), rows[3] + j);
  return _mm256_insertf128_pd(_mm256_castpd128_pd256(lo), hi, 1);
}

__attribute__((target("avx2"))) inline void scatter4(double* const* rows,
                                                     std::size_t j,
                                                     __m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  _mm_storel_pd(rows[0] + j, lo);
  _mm_storeh_pd(rows[1] + j, lo);
  _mm_storel_pd(rows[2] + j, hi);
  _mm_storeh_pd(rows[3] + j, hi);
}

/// rotate_columns<kBlockRows> with each row's chain in one AVX2 lane.
__attribute__((target("avx2"))) void rotate_block_avx2(
    double* const* rows, std::size_t p, const Rotation* rot,
    std::size_t count) noexcept {
  __m256d x0 = gather4(rows, p);
  __m256d x1 = gather4(rows + 4, p);
  for (std::size_t i = 0; i < count; ++i) {
    const __m256d c = _mm256_set1_pd(rot[i].c);
    const __m256d s = _mm256_set1_pd(rot[i].s);
    const std::size_t q = rot[i].q;
    const __m256d y0 = gather4(rows, q);
    const __m256d y1 = gather4(rows + 4, q);
    scatter4(rows, q,
             _mm256_add_pd(_mm256_mul_pd(s, x0), _mm256_mul_pd(c, y0)));
    scatter4(rows + 4, q,
             _mm256_add_pd(_mm256_mul_pd(s, x1), _mm256_mul_pd(c, y1)));
    x0 = _mm256_sub_pd(_mm256_mul_pd(c, x0), _mm256_mul_pd(s, y0));
    x1 = _mm256_sub_pd(_mm256_mul_pd(c, x1), _mm256_mul_pd(s, y1));
  }
  scatter4(rows, p, x0);
  scatter4(rows + 4, p, x1);
}
#endif  // GEONAS_LINALG_X86_DISPATCH

struct RotationKernels {
  void (*pairs)(double*, double*, std::size_t, double, double) noexcept;
  void (*block)(double* const*, std::size_t, const Rotation*,
                std::size_t) noexcept;
};

RotationKernels select_kernels() {
#ifdef GEONAS_LINALG_X86_DISPATCH
  if (__builtin_cpu_supports("avx2")) {
    return {rotate_pairs_avx2, rotate_block_avx2};
  }
#endif
  return {rotate_pairs, rotate_columns<kBlockRows>};
}

const RotationKernels& kernels() {
  static const RotationKernels selected = select_kernels();
  return selected;
}

/// One cyclic sweep over A (n x n, row-major) and V^T, in the same
/// per-element operation order as the textbook loop (rotate A's columns
/// p and q, then its rows p and q, then V's columns, for each step).
/// DESIGN.md "Eigensolver" explains why each element sees the same
/// rotations, partner values and order.
class JacobiSweep {
 public:
  JacobiSweep(double* a, double* vt, std::size_t n)
      : a_(a), vt_(vt), n_(n), kernels_(kernels()), reached_(n) {
    rots_.reserve(n * (n - 1) / 2);
  }

  void run() {
    rots_.clear();
    for (std::size_t p = 0; p + 1 < n_; ++p) pass(p);
    // V's columns: no angle reads V, so it receives the sweep's steps
    // at the end, in order.
    for (const Rotation& r : rots_) {
      kernels_.pairs(vt_ + r.p * n_, vt_ + r.q * n_, n_, r.c, r.s);
    }
  }

 private:
  double* row(std::size_t i) const noexcept { return a_ + i * n_; }

  /// Pivot p's steps q = p+1 ... n-1. Row p is kept current and row q is
  /// brought current just before step q: the angle at step q reads only
  /// A(p, p), A(q, q) and A(p, q). Every other row k receives the pass's
  /// column rotations late, in order, from reached_[k] on.
  void pass(std::size_t p) {
    std::fill(reached_.begin(), reached_.end(), rots_.size());
    double* const rp = row(p);
    for (std::size_t q = p + 1; q < n_; ++q) {
      if ((q - p - 1) % kBlockRows == 0) {
        catch_up(p, q, std::min(q + kBlockRows, n_));
      }
      const double apq = rp[q];
      if (std::abs(apq) <= 1e-300) continue;
      double* const rq = row(q);
      catch_up(p, q, q + 1);
      const double app = rp[p];
      const double aqq = rq[q];
      // Stable rotation angle computation (Golub & Van Loan 8.4).
      const double theta = (aqq - app) / (2.0 * apq);
      const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                       (std::abs(theta) + std::sqrt(theta * theta + 1.0));
      const double c = 1.0 / std::sqrt(t * t + 1.0);
      const double s = t * c;
      rots_.push_back({p, q, c, s});
      reached_[q] = rots_.size();

      // Step q's column rotation of rows p and q, then its row rotation.
      // After rotations A is no longer bitwise symmetric, so both
      // updates stay.
      rotate_columns<1>(&rp, p, &rots_.back(), 1);
      rotate_columns<1>(&rq, p, &rots_.back(), 1);
      kernels_.pairs(rp, rq, n_, c, s);
    }
    catch_up(p, 0, p);
    catch_up(p, p + 1, n_);
  }

  /// Brings rows [k0, k1) up to date with the pass's column rotations:
  /// each row k receives rots_[reached_[k], end) in order.
  void catch_up(std::size_t p, std::size_t k0, std::size_t k1) {
    const std::size_t end = rots_.size();
    const Rotation* const rot = rots_.data();
    std::size_t k = k0;
    for (; k + kBlockRows <= k1; k += kBlockRows) {
      // Align the block's rows on its furthest row, then rotate them
      // together.
      std::size_t common = 0;
      double* rows[kBlockRows];
      for (std::size_t i = 0; i < kBlockRows; ++i) {
        common = std::max(common, reached_[k + i]);
        rows[i] = row(k + i);
      }
      for (std::size_t i = 0; i < kBlockRows; ++i) {
        rotate_columns<1>(rows + i, p, rot + reached_[k + i],
                          common - reached_[k + i]);
        reached_[k + i] = end;
      }
      kernels_.block(rows, p, rot + common, end - common);
    }
    for (; k < k1; ++k) {
      double* const rk = row(k);
      rotate_columns<1>(&rk, p, rot + reached_[k], end - reached_[k]);
      reached_[k] = end;
    }
  }

  double* const a_;
  double* const vt_;
  const std::size_t n_;
  const RotationKernels& kernels_;
  std::vector<Rotation> rots_;  // this sweep's steps, in order
  // Per row: rots_[pass start, reached_[k]) have reached row k's columns.
  std::vector<std::size_t> reached_;
};

}  // namespace

void require_finite(const Matrix& m, const char* who) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (!std::isfinite(m(i, j))) {
        throw std::invalid_argument(std::string(who) + ": non-finite value " +
                                    std::to_string(m(i, j)) + " at (" +
                                    std::to_string(i) + ", " +
                                    std::to_string(j) + ")");
      }
    }
  }
}

EigenResult eigen_symmetric(const Matrix& input, double tol, int max_sweeps) {
  if (input.rows() != input.cols()) {
    throw std::invalid_argument("eigen_symmetric: matrix must be square");
  }
  require_finite(input, "eigen_symmetric");
  const std::size_t n = input.rows();
  Matrix a = input;
  // V is kept transposed while sweeping (row i holds eigenvector i), so a
  // rotation of V's columns p and q runs over two contiguous rows.
  Matrix vt = Matrix::identity(n);
  const double scale = std::max(a.frobenius_norm(), 1e-300);
  double* const ad = a.flat().data();
  double* const vd = vt.flat().data();

  JacobiSweep sweeper(ad, vd, n);
  int sweep = 0;
  for (; sweep < max_sweeps; ++sweep) {
    if (offdiag_norm(a) <= tol * scale) break;
    sweeper.run();
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
