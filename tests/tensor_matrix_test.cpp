// Unit tests for the Matrix / Tensor3 containers.
#include <gtest/gtest.h>

#include <stdexcept>

#include "tensor/matrix.hpp"

namespace geonas {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ConstructionFills) {
  Matrix m(3, 4, 2.5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (double v : m.flat()) EXPECT_DOUBLE_EQ(v, 2.5);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, Identity) {
  const Matrix eye = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(eye(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, AtBoundsChecking) {
  Matrix m(2, 2);
  EXPECT_NO_THROW(m.at(1, 1));
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
}

TEST(Matrix, RowSpanWritesThrough) {
  Matrix m(2, 3);
  auto row = m.row_span(1);
  row[2] = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 9.0);
}

TEST(Matrix, ColCopyAndSetCol) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  const auto col = m.col_copy(1);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_DOUBLE_EQ(col[0], 2.0);
  EXPECT_DOUBLE_EQ(col[2], 6.0);

  const std::vector<double> newcol{7.0, 8.0, 9.0};
  m.set_col(0, newcol);
  EXPECT_DOUBLE_EQ(m(1, 0), 8.0);
  EXPECT_THROW(m.set_col(0, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Matrix, TransposeRoundTrip) {
  Matrix m(5, 7);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 7; ++c) m(r, c) = static_cast<double>(r * 7 + c);
  }
  const Matrix t = m.transposed();
  ASSERT_EQ(t.rows(), 7u);
  ASSERT_EQ(t.cols(), 5u);
  EXPECT_EQ(t.transposed(), m);
  EXPECT_DOUBLE_EQ(t(3, 4), m(4, 3));
}

TEST(Matrix, LargeBlockedTranspose) {
  // Exercise the 32-wide blocking path with a non-multiple size.
  Matrix m(70, 45);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.flat()[i] = static_cast<double>(i) * 0.5;
  }
  const Matrix t = m.transposed();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      ASSERT_DOUBLE_EQ(t(c, r), m(r, c));
    }
  }
}

TEST(Matrix, SliceCols) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  const Matrix s = m.slice_cols(1, 3);
  ASSERT_EQ(s.cols(), 2u);
  EXPECT_DOUBLE_EQ(s(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(s(1, 1), 6.0);
}

TEST(Matrix, ArithmeticOperators) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{10, 20}, {30, 40}};
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(1, 1), 44.0);
  const Matrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff(0, 0), 9.0);
  const Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
  EXPECT_THROW(a += Matrix(3, 3), std::invalid_argument);
}

TEST(Matrix, Norms) {
  Matrix m{{3, 4}};
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
  EXPECT_DOUBLE_EQ(m.sum(), 7.0);
}

TEST(Tensor3, IndexingAndBlocks) {
  Tensor3 t(2, 3, 4);
  t(1, 2, 3) = 42.0;
  EXPECT_DOUBLE_EQ(t(1, 2, 3), 42.0);
  EXPECT_EQ(t.block(1).size(), 12u);
  EXPECT_DOUBLE_EQ(t.block(1)[2 * 4 + 3], 42.0);
}

TEST(Tensor3, Equality) {
  Tensor3 a(2, 2, 2, 1.0);
  Tensor3 b(2, 2, 2, 1.0);
  EXPECT_EQ(a, b);
  b(0, 0, 0) = 2.0;
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace geonas
