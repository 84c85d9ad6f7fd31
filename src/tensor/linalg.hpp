// Dense linear-algebra solvers for geonas.
//
// The POD method-of-snapshots (DESIGN.md §2, paper eq. 3) needs a full
// symmetric eigendecomposition; the linear baseline needs a symmetric
// positive-definite solve. Both are implemented from scratch: a cyclic
// Jacobi eigensolver (robust, embarrassingly accurate for the modest
// Ns x Ns correlation matrices involved) and a Cholesky factorization.
//
// The eigensolver runs on the calling thread. Its sweep applies each
// step's column rotation along rows: a row receives a pass's column
// rotations just before its own step and at the end of the pass, and V
// receives the sweep's rotations at its end. Every element of A and V
// still gets the textbook loop's rotations, partner values and order,
// so the output is bitwise that loop's (DESIGN.md "Eigensolver";
// Eigen.OutputBitsPinned).
#pragma once

#include <vector>

#include "tensor/matrix.hpp"

namespace geonas {

/// Result of a symmetric eigendecomposition A = V diag(lambda) V^T with
/// eigenvalues sorted in descending order and V's columns the matching
/// orthonormal eigenvectors.
struct EigenResult {
  std::vector<double> eigenvalues;
  Matrix eigenvectors;  // column i is the eigenvector for eigenvalues[i]
  int sweeps = 0;       // Jacobi sweeps used
};

/// Throws std::invalid_argument naming `who`, the first NaN or inf of `m`
/// in row-major order and its (row, column).
void require_finite(const Matrix& m, const char* who);

/// Cyclic Jacobi eigensolver for a symmetric matrix.
/// Throws std::invalid_argument for non-square input or a NaN/inf entry.
/// tol is the threshold on the off-diagonal Frobenius norm relative to
/// the matrix norm.
[[nodiscard]] EigenResult eigen_symmetric(const Matrix& a, double tol = 1e-12,
                                          int max_sweeps = 100);

/// Cholesky factorization A = L L^T for symmetric positive-definite A.
/// Returns lower-triangular L. Throws std::domain_error if A is not SPD
/// (after adding `jitter` to the diagonal).
[[nodiscard]] Matrix cholesky(const Matrix& a, double jitter = 0.0);

/// Solves A x = b for SPD A via Cholesky. b may have multiple columns.
[[nodiscard]] Matrix solve_spd(const Matrix& a, const Matrix& b,
                               double jitter = 0.0);

/// Solves the regularized normal equations (X^T X + lambda I) w = X^T y.
/// Used by the ridge/OLS baseline. y may have multiple output columns.
[[nodiscard]] Matrix solve_normal_equations(const Matrix& x, const Matrix& y,
                                            double lambda = 0.0);

/// Forward/back substitution with a lower-triangular factor L.
[[nodiscard]] Matrix cholesky_solve(const Matrix& l, const Matrix& b);

}  // namespace geonas
