// Eigensolver and Cholesky solver properties: known spectra, orthogonality,
// reconstruction, SPD solves, and normal-equation regression. Includes
// parameterized sweeps over matrix sizes.
#include <gtest/gtest.h>

#include <cmath>

#include "tensor/blas.hpp"
#include "tensor/linalg.hpp"
#include "tensor/random.hpp"

namespace geonas {
namespace {

Matrix random_spd(std::size_t n, Rng& rng, double ridge = 0.5) {
  Matrix a(n, n);
  for (double& v : a.flat()) v = rng.uniform(-1.0, 1.0);
  Matrix spd = matmul_at_b(a, a);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += ridge;
  return spd;
}

Matrix random_symmetric(std::size_t n, Rng& rng) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      a(i, j) = a(j, i) = rng.uniform(-1.0, 1.0);
    }
  }
  return a;
}

TEST(Eigen, DiagonalMatrix) {
  Matrix d(3, 3, 0.0);
  d(0, 0) = 1.0;
  d(1, 1) = 5.0;
  d(2, 2) = 3.0;
  const EigenResult r = eigen_symmetric(d);
  ASSERT_EQ(r.eigenvalues.size(), 3u);
  EXPECT_NEAR(r.eigenvalues[0], 5.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[1], 3.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[2], 1.0, 1e-12);
}

TEST(Eigen, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  const Matrix a{{2, 1}, {1, 2}};
  const EigenResult r = eigen_symmetric(a);
  EXPECT_NEAR(r.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[1], 1.0, 1e-12);
}

TEST(Eigen, NonSquareThrows) {
  EXPECT_THROW((void)eigen_symmetric(Matrix(2, 3)), std::invalid_argument);
}

class EigenSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSweep, ReconstructionAndOrthogonality) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  const Matrix a = random_symmetric(n, rng);
  const EigenResult r = eigen_symmetric(a);

  // Eigenvalues descending.
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_GE(r.eigenvalues[i - 1], r.eigenvalues[i] - 1e-12);
  }
  // V^T V == I.
  const Matrix vtv = matmul_at_b(r.eigenvectors, r.eigenvectors);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(vtv(i, j), i == j ? 1.0 : 0.0, 1e-9);
    }
  }
  // V diag(lambda) V^T == A.
  Matrix vl = r.eigenvectors;
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t row = 0; row < n; ++row) vl(row, c) *= r.eigenvalues[c];
  }
  const Matrix recon = matmul(vl, r.eigenvectors.transposed());
  for (std::size_t i = 0; i < recon.size(); ++i) {
    EXPECT_NEAR(recon.flat()[i], a.flat()[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSweep,
                         ::testing::Values<std::size_t>(2, 3, 5, 8, 16, 33));

TEST(Cholesky, FactorizationReconstructs) {
  Rng rng(7);
  const Matrix a = random_spd(6, rng);
  const Matrix l = cholesky(a);
  const Matrix llt = matmul(l, l.transposed());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(llt.flat()[i], a.flat()[i], 1e-10);
  }
  // Upper triangle of L is zero.
  for (std::size_t i = 0; i < l.rows(); ++i) {
    for (std::size_t j = i + 1; j < l.cols(); ++j) {
      EXPECT_DOUBLE_EQ(l(i, j), 0.0);
    }
  }
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3 and -1
  EXPECT_THROW((void)cholesky(a), std::domain_error);
}

TEST(Cholesky, SolveSpd) {
  Rng rng(8);
  const Matrix a = random_spd(5, rng);
  Matrix x_true(5, 2);
  for (double& v : x_true.flat()) v = rng.uniform(-2.0, 2.0);
  const Matrix b = matmul(a, x_true);
  const Matrix x = solve_spd(a, b);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x.flat()[i], x_true.flat()[i], 1e-8);
  }
}

TEST(NormalEquations, RecoversLinearModel) {
  Rng rng(9);
  const std::size_t n = 200, f = 4, o = 2;
  Matrix x(n, f);
  for (double& v : x.flat()) v = rng.uniform(-1.0, 1.0);
  Matrix w_true(f, o);
  for (double& v : w_true.flat()) v = rng.uniform(-1.0, 1.0);
  const Matrix y = matmul(x, w_true);
  const Matrix w = solve_normal_equations(x, y, 0.0);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(w.flat()[i], w_true.flat()[i], 1e-7);
  }
}

TEST(NormalEquations, RidgeShrinks) {
  Rng rng(10);
  const std::size_t n = 50, f = 3;
  Matrix x(n, f);
  for (double& v : x.flat()) v = rng.uniform(-1.0, 1.0);
  Matrix w_true(f, 1, 1.0);
  const Matrix y = matmul(x, w_true);
  const Matrix w0 = solve_normal_equations(x, y, 0.0);
  const Matrix w_ridge = solve_normal_equations(x, y, 100.0);
  EXPECT_LT(w_ridge.frobenius_norm(), w0.frobenius_norm());
}

}  // namespace
}  // namespace geonas
