// Oracle tests for the blocked/threaded GEMM kernel layer: every path
// (packing, edge tiles, transposed reads, strided C, alpha/beta
// handling, thread splitting, aliasing fallback) is checked against a
// naive triple-loop reference over adversarial shapes.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <thread>
#include <vector>

#include "hpc/parallel_for.hpp"
#include "tensor/blas.hpp"
#include "tensor/prepack.hpp"
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

/// Restores the ambient kernel-pool configuration on scope exit so a
/// failing assertion cannot leak a pinned thread count into later tests.
struct KernelThreadsGuard {
  explicit KernelThreadsGuard(std::size_t threads) {
    hpc::set_kernel_threads(threads);
  }
  ~KernelThreadsGuard() { hpc::set_kernel_threads(0); }
};

void expect_matches_naive(const Matrix& a, const Matrix& b, double tol) {
  const Matrix fast = matmul(a, b);
  const Matrix ref = naive_matmul(a, b);
  ASSERT_EQ(fast.rows(), ref.rows());
  ASSERT_EQ(fast.cols(), ref.cols());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    ASSERT_NEAR(fast.flat()[i], ref.flat()[i], tol) << "flat index " << i;
  }
}

TEST(BlockedGemm, OracleOverNonSquareAndEdgeShapes) {
  // 1x1, single-row/column, primes straddling the register tile, and
  // shapes that cross the kMC (96), kKC (256) and kNC (1024) cache
  // blocks, alone and together.
  const std::size_t shapes[][3] = {
      {1, 1, 1},   {1, 1, 7},    {1, 9, 1},     {6, 1, 1},    {1, 17, 13},
      {13, 1, 17}, {13, 17, 1},  {2, 3, 4},     {4, 8, 4},    {5, 9, 3},
      {7, 13, 31}, {31, 7, 13},  {97, 53, 61},  {101, 8, 4},  {3, 103, 5},
      {64, 64, 64}, {130, 70, 190}, {97, 300, 11}, {5, 1030, 300},
      {100, 20, 600}, {97, 1100, 260},
  };
  Rng rng(1234);
  for (const auto& s : shapes) {
    const Matrix a = random_matrix(s[0], s[2], rng);
    const Matrix b = random_matrix(s[2], s[1], rng);
    SCOPED_TRACE(::testing::Message() << "m=" << s[0] << " n=" << s[1]
                                      << " k=" << s[2]);
    expect_matches_naive(a, b, 1e-11 * static_cast<double>(s[2] + 1));
  }
}

TEST(BlockedGemm, AlphaBetaCombinations) {
  Rng rng(77);
  const Matrix a = random_matrix(23, 29, rng);
  const Matrix b = random_matrix(29, 17, rng);
  const Matrix ref = naive_matmul(a, b);
  const double alphas[] = {0.0, 1.0, 0.5, -2.0};
  const double betas[] = {0.0, 1.0, 0.25, -1.0};
  for (const double alpha : alphas) {
    for (const double beta : betas) {
      Matrix c = random_matrix(23, 17, rng);
      const Matrix c0 = c;
      gemm(a, b, c, alpha, beta);
      SCOPED_TRACE(::testing::Message() << "alpha=" << alpha
                                        << " beta=" << beta);
      for (std::size_t i = 0; i < c.size(); ++i) {
        ASSERT_NEAR(c.flat()[i], alpha * ref.flat()[i] + beta * c0.flat()[i],
                    1e-12);
      }
    }
  }
}

TEST(BlockedGemm, TransposedReadsMatchMaterializedTransposes) {
  Rng rng(91);
  const Matrix a = random_matrix(37, 11, rng);
  const Matrix b = random_matrix(37, 19, rng);
  const Matrix atb = matmul_at_b(a, b);
  const Matrix atb_ref = naive_matmul(a.transposed(), b);
  for (std::size_t i = 0; i < atb.size(); ++i) {
    ASSERT_NEAR(atb.flat()[i], atb_ref.flat()[i], 1e-12);
  }
  const Matrix d = random_matrix(29, 11, rng);
  Matrix abt(37, 29);
  gemm_raw(Trans::kNone, Trans::kTranspose, 37, 29, 11, 1.0, a.flat().data(),
           11, d.flat().data(), 11, 0.0, abt.flat().data(), 29);
  const Matrix abt_ref = naive_matmul(a, d.transposed());
  for (std::size_t i = 0; i < abt.size(); ++i) {
    ASSERT_NEAR(abt.flat()[i], abt_ref.flat()[i], 1e-12);
  }
}

TEST(BlockedGemm, StridedSubmatrixUpdateLeavesNeighborsUntouched) {
  // The recurrent layers update column blocks of a wider C in place
  // (ldc > n) and read strided operands; verify against per-element
  // reference and check the sentinel columns outside the block.
  Rng rng(55);
  const std::size_t m = 21, n = 10, k = 13, ldc = 27, lda = 19;
  std::vector<double> a_buf(m * lda);
  for (double& v : a_buf) v = rng.uniform(-1.0, 1.0);
  const Matrix b = random_matrix(k, n, rng);
  std::vector<double> c_buf(m * ldc, 123.5);
  const std::size_t col0 = 9;  // C block lives at columns [9, 19)
  gemm_raw(Trans::kNone, Trans::kNone, m, n, k, 1.0, a_buf.data() + 2, lda,
           b.flat().data(), n, 0.0, c_buf.data() + col0, ldc);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < ldc; ++j) {
      const double got = c_buf[i * ldc + j];
      if (j < col0 || j >= col0 + n) {
        // geonas-lint: allow(float-eq-in-tests) sentinel must be bitwise untouched
        ASSERT_EQ(got, 123.5) << "sentinel overwritten at " << i << "," << j;
      } else {
        double acc = 0.0;
        for (std::size_t p = 0; p < k; ++p) {
          acc += a_buf[i * lda + 2 + p] * b(p, j - col0);
        }
        ASSERT_NEAR(got, acc, 1e-12);
      }
    }
  }
}

TEST(BlockedGemm, IdenticalResultsAcrossThreadCounts) {
  Rng rng(42);
  // 2 * 150 * 90 * 70 = 1.9 MFLOP: above the parallel_for threshold, so
  // the pool genuinely engages for counts > 1.
  const Matrix a = random_matrix(150, 70, rng);
  const Matrix b = random_matrix(70, 90, rng);
  Matrix reference;
  {
    KernelThreadsGuard guard(1);
    reference = matmul(a, b);
  }
  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  const std::size_t counts[] = {1, 2, hw, hw + 3};
  for (const std::size_t threads : counts) {
    KernelThreadsGuard guard(threads);
    EXPECT_EQ(hpc::kernel_threads(), threads);
    const Matrix c = matmul(a, b);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    // The M-split never changes any element's summation order, so the
    // result is bitwise identical, not merely close.
    ASSERT_EQ(c, reference);
  }
}

TEST(BlockedGemm, TilePathsAgreeBitwise) {
  // M 24 x N 40 is three row pairs by two column pairs of full slivers,
  // which an AVX-512F host runs as 8x16 super-tiles, and one lone
  // 8-column sliver of 4x8 tiles. A product of one 4x8 block never forms
  // a super-tile, and a 3x7 product is an edge tile through the scratch
  // tile and write_tile. With alpha 1 and beta 0 or 1 the full tiles are
  // written in place; (0.75, -0.5) keeps write_tile for every tile. The
  // whole product, its 4x8 blocks and the corner agree bit for bit only
  // if every write path gives each element the same arithmetic. K = 300
  // spans two kKC blocks, so the later block's accumulate runs too. Every
  // product here stays under the parallel_for threshold, so the pass at
  // 4 kernel threads runs the same single stripe as the pass at 1.
  std::cout << "[ info ] gemm kernel: " << tensor::gemm_kernel() << "\n";
  constexpr std::size_t m = 24, n = 40;
  struct Scale {
    double alpha, beta;
  };
  const Scale scales[] = {{1.0, 0.0}, {1.0, 1.0}, {0.75, -0.5}};
  const std::size_t depths[] = {1, 5, 96, 300};
  const auto expect_bits = [](const Matrix& got, const Matrix& want,
                              std::size_t i0, std::size_t j0,
                              std::size_t rows, std::size_t cols) {
    for (std::size_t i = i0; i < i0 + rows; ++i) {
      for (std::size_t j = j0; j < j0 + cols; ++j) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got(i, j)),
                  std::bit_cast<std::uint64_t>(want(i, j)))
            << "at " << i << "," << j;
      }
    }
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    KernelThreadsGuard guard(threads);
    for (const std::size_t k : depths) {
      Rng rng(300 + k);
      const Matrix a = random_matrix(m, k, rng);
      const Matrix b = random_matrix(k, n, rng);
      const Matrix c0 = random_matrix(m, n, rng);
      for (const bool packed : {false, true}) {
        for (const Scale s : scales) {
          SCOPED_TRACE(::testing::Message()
                       << "threads=" << threads << " k=" << k
                       << " packed=" << packed << " alpha=" << s.alpha
                       << " beta=" << s.beta);
          // C(i0:i0+rows, j0:j0+cols) as its own product, through
          // strided A and C and a strided raw B or a panel of B's
          // columns.
          const auto product = [&](Matrix& c, std::size_t i0, std::size_t j0,
                                   std::size_t rows, std::size_t cols) {
            const double* a_rows = a.flat().data() + i0 * k;
            double* c_block = c.flat().data() + i0 * n + j0;
            if (!packed) {
              gemm_raw(Trans::kNone, Trans::kNone, rows, cols, k, s.alpha,
                       a_rows, k, b.flat().data() + j0, n, s.beta, c_block,
                       n);
              return;
            }
            Matrix b_cols(k, cols);
            for (std::size_t p = 0; p < k; ++p) {
              for (std::size_t j = 0; j < cols; ++j) {
                b_cols(p, j) = b(p, j0 + j);
              }
            }
            tensor::PackedPanels panel;
            panel.ensure(b_cols, Trans::kNone);
            gemm_raw(Trans::kNone, rows, s.alpha, a_rows, k, panel, s.beta,
                     c_block, n);
          };
          Matrix whole = c0;
          product(whole, 0, 0, m, n);
          Matrix tiles = c0;
          for (std::size_t i0 = 0; i0 < m; i0 += 4) {
            for (std::size_t j0 = 0; j0 < n; j0 += 8) {
              product(tiles, i0, j0, 4, 8);
            }
          }
          expect_bits(tiles, whole, 0, 0, m, n);
          Matrix corner = c0;
          product(corner, m - 3, n - 7, 3, 7);
          expect_bits(corner, whole, m - 3, n - 7, 3, 7);
        }
      }
    }
  }
}

TEST(BlockedGemm, AliasedOutputMatchesUnaliasedProduct) {
  Rng rng(7);
  // C is also A: gemm(a, b, a) must behave as if computed out of place.
  Matrix a = random_matrix(12, 12, rng);
  const Matrix a0 = a;
  const Matrix b = random_matrix(12, 12, rng);
  gemm(a0, b, a);
  const Matrix ref = naive_matmul(a0, b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a.flat()[i], ref.flat()[i], 1e-12);
  }

  // C is both operands: gemm(a, a, a) squares the matrix.
  Matrix sq = random_matrix(9, 9, rng);
  const Matrix sq0 = sq;
  gemm(sq, sq, sq);
  const Matrix sq_ref = naive_matmul(sq0, sq0);
  for (std::size_t i = 0; i < sq.size(); ++i) {
    ASSERT_NEAR(sq.flat()[i], sq_ref.flat()[i], 1e-12);
  }

  // Aliased accumulate (beta != 0) must read the pre-call C.
  Matrix acc = random_matrix(12, 12, rng);
  const Matrix acc0 = acc;
  gemm(acc0, b, acc, 2.0, 0.5);
  const Matrix acc_ref = naive_matmul(acc0, b);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    ASSERT_NEAR(acc.flat()[i], 2.0 * acc_ref.flat()[i] + 0.5 * acc0.flat()[i],
                1e-12);
  }
}

TEST(BlockedGemm, AliasedOutputWithShapeMismatchStillSafe) {
  Rng rng(8);
  // gemm(a, b, a) where the product shape differs from a's shape: the
  // seed implementation would have resized (and corrupted) a before
  // reading it.
  Matrix a = random_matrix(6, 4, rng);
  const Matrix a0 = a;
  const Matrix b = random_matrix(4, 11, rng);
  gemm(a0, b, a);
  const Matrix ref = naive_matmul(a0, b);
  ASSERT_EQ(a.rows(), 6u);
  ASSERT_EQ(a.cols(), 11u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a.flat()[i], ref.flat()[i], 1e-12);
  }
}

}  // namespace
}  // namespace geonas
