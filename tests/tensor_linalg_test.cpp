// Eigensolver and Cholesky solver properties: known spectra, orthogonality,
// reconstruction, SPD solves, and normal-equation regression. Includes
// parameterized sweeps over matrix sizes and the eigensolver's pinned bits.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/binary.hpp"
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

TEST(Eigen, RejectsNonFiniteInput) {
  // Unchecked, one NaN runs all max_sweeps sweeps and returns NaN
  // eigenpairs.
  Rng rng(5);
  Matrix a = random_symmetric(4, rng);
  a(2, 1) = a(1, 2) = std::numeric_limits<double>::quiet_NaN();
  try {
    (void)eigen_symmetric(a);
    FAIL() << "NaN input accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nan at (1, 2)"), std::string::npos) << what;
  }
  Matrix b = random_symmetric(4, rng);
  b(3, 3) = -std::numeric_limits<double>::infinity();
  try {
    (void)eigen_symmetric(b);
    FAIL() << "inf input accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("-inf at (3, 3)"), std::string::npos) << what;
  }
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

/// io's CRC-32 of the bytes of `values`.
std::uint32_t crc_of(std::span<const double> values) {
  return io::crc32_update(0, values.data(), values.size() * sizeof(double));
}

/// Two interleaved blocks (even and odd indices) with exact-zero entries
/// between them, and row/column 5 all zero: rotations inside one block
/// keep every cross-block entry exactly zero, so most steps take the
/// skip path.
Matrix zero_offdiagonal_matrix() {
  constexpr std::size_t n = 12;
  Rng rng(41);
  Matrix a(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      if ((j - i) % 2 != 0 || i == 5 || j == 5) continue;
      a(i, j) = a(j, i) = rng.uniform(-1.0, 1.0);
    }
  }
  return a;
}

/// H diag(lambda) H for the Householder reflection H = I - 2 u u^T / u^T u:
/// a dense matrix whose spectrum repeats 3 three times and 5 twice.
Matrix repeated_eigenvalue_matrix() {
  const std::vector<double> lambda{3.0, 3.0, 3.0, 1.0, -2.0, 5.0, 5.0, 0.5};
  const std::size_t n = lambda.size();
  Rng rng(42);
  std::vector<double> u(n);
  double uu = 0.0;
  for (double& x : u) {
    x = rng.uniform(-1.0, 1.0);
    uu += x * x;
  }
  Matrix h = Matrix::identity(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) h(i, j) -= 2.0 * u[i] * u[j] / uu;
  }
  Matrix hd = h;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) hd(i, j) *= lambda[j];
  }
  return matmul(hd, h);
}

TEST(Eigen, OutputBitsPinned) {
  // Pins the solver's bits across commits: CRC-32s of the sorted
  // eigenvalues and of the eigenvector matrix (row-major bytes), and the
  // sweep count. Captured from the cyclic Jacobi that rotated A's columns
  // with a stride-n loop; any reordering of the sweep must reproduce them
  // exactly, because the POD basis, both pipeline R² values and every
  // campaign digest are computed from this solver's output. They hold
  // the default build options; a GEONAS_NATIVE_ARCH build may contract
  // the rotations into FMAs and compute other bits.
  struct Case {
    std::string name;
    Matrix a;
    std::uint32_t values_crc;
    std::uint32_t vectors_crc;
    int sweeps;
  };
  const auto random_case = [](std::size_t n) {
    Rng rng(300 + n);
    return random_symmetric(n, rng);
  };
  const std::vector<Case> cases{
      {"random n=1", random_case(1), 0x8b8404f1u, 0xc7f813e9u, 0},
      {"random n=2", random_case(2), 0xd38dffa4u, 0xa6374b75u, 1},
      {"random n=3", random_case(3), 0x8de506deu, 0xc12c99a9u, 3},
      {"random n=7", random_case(7), 0x5aca9983u, 0x88a47d90u, 5},
      {"random n=33", random_case(33), 0x6ee60eeau, 0xc3c25986u, 7},
      {"random n=100", random_case(100), 0x056f3810u, 0xc88ee710u, 8},
      {"zero off-diagonals", zero_offdiagonal_matrix(), 0x5e0d7cd9u,
       0x7c19c524u, 5},
      {"repeated eigenvalue", repeated_eigenvalue_matrix(), 0x695351fcu,
       0xa93cf7eau, 5},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const EigenResult r = eigen_symmetric(c.a);
    EXPECT_EQ(crc_of(r.eigenvalues), c.values_crc)
        << std::hex << crc_of(r.eigenvalues);
    EXPECT_EQ(crc_of(r.eigenvectors.flat()), c.vectors_crc)
        << std::hex << crc_of(r.eigenvectors.flat());
    EXPECT_EQ(r.sweeps, c.sweeps);
  }
}

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
