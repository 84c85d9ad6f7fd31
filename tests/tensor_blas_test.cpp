// Kernel correctness: gemm and the matmul conveniences against naive
// references, including the transposed-product shortcut.
#include <gtest/gtest.h>

#include "tensor/blas.hpp"
#include "tensor/random.hpp"

namespace geonas {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (double& v : m.flat()) v = rng.uniform(-1.0, 1.0);
  return m;
}

Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  }
  return c;
}

TEST(Blas, MatmulMatchesNaive) {
  Rng rng(11);
  const Matrix a = random_matrix(13, 7, rng);
  const Matrix b = random_matrix(7, 9, rng);
  const Matrix fast = matmul(a, b);
  const Matrix ref = naive_matmul(a, b);
  ASSERT_EQ(fast.rows(), ref.rows());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast.flat()[i], ref.flat()[i], 1e-12);
  }
}

TEST(Blas, GemmAlphaBeta) {
  Rng rng(12);
  const Matrix a = random_matrix(4, 5, rng);
  const Matrix b = random_matrix(5, 3, rng);
  Matrix c = random_matrix(4, 3, rng);
  const Matrix c0 = c;
  gemm(a, b, c, 2.0, 0.5);
  const Matrix ref = naive_matmul(a, b);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.flat()[i], 2.0 * ref.flat()[i] + 0.5 * c0.flat()[i], 1e-12);
  }
}

TEST(Blas, GemmShapeMismatchThrows) {
  Matrix a(2, 3), b(4, 2), c;
  EXPECT_THROW(gemm(a, b, c), std::invalid_argument);
}

TEST(Blas, MatmulAtB) {
  Rng rng(13);
  const Matrix a = random_matrix(8, 5, rng);
  const Matrix b = random_matrix(8, 6, rng);
  const Matrix fast = matmul_at_b(a, b);
  const Matrix ref = naive_matmul(a.transposed(), b);
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast.flat()[i], ref.flat()[i], 1e-12);
  }
}

}  // namespace
}  // namespace geonas
