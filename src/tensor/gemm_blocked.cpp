// Cache-blocked, register-tiled GEMM with runtime micro-kernel dispatch:
// both geonas::gemm_raw overloads (tensor/blas.hpp) run the one loop
// nest here. See tensor/gemm_kernel.hpp for the blocking structure.
#include "tensor/gemm_kernel.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "hpc/kernel_team.hpp"
#include "hpc/parallel_for.hpp"
#include "tensor/blas.hpp"
#include "tensor/prepack.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define GEONAS_GEMM_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace geonas {
namespace detail {
namespace {

// Micro-kernel contract: a kernel computes its tile's accumulator,
// acc(r, j) = sum over p < kc of op(A)(r, p) * op(B)(p, j) read from the
// packed slivers, one K-ordered FMA (or multiply-add) chain per element,
// and puts it into C (leading dim ldc): stored, or added to C when
// `add`. Slivers are packed and zero-padded, so the kernels are
// branch-free and always full-tile. A partial tile, or a general alpha
// or beta, runs the tile kernel into a scratch tile (c = the scratch,
// ldc = kNR, add false) and then write_tile.
//
// A tile kernel covers kMR x kNR from one A and one B sliver. A
// super-tile kernel covers 2kMR x 2kNR from the A slivers at a and
// a + kMR * kc and the B slivers at b and b + kNR * kc: adjacent slivers
// of the blocks pack_a and pack_b already lay out, so it needs no pack
// of its own, and each element gets the tile kernel's chain.
using TileKernel = void (*)(std::size_t kc, const double* a_sliver,
                            const double* b_sliver, double* c,
                            std::size_t ldc, bool add);

void tile_portable(std::size_t kc, const double* a_sliver,
                   const double* b_sliver, double* c, std::size_t ldc,
                   bool add) {
  double acc[kMR * kNR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    for (std::size_t r = 0; r < kMR; ++r) {
      const double av = a_sliver[r];
      for (std::size_t j = 0; j < kNR; ++j) {
        acc[r * kNR + j] += av * b_sliver[j];
      }
    }
    a_sliver += kMR;
    b_sliver += kNR;
  }
  for (std::size_t r = 0; r < kMR; ++r) {
    for (std::size_t j = 0; j < kNR; ++j) {
      double& dst = c[r * ldc + j];
      dst = add ? dst + acc[r * kNR + j] : acc[r * kNR + j];
    }
  }
}

#ifdef GEONAS_GEMM_X86_DISPATCH
// One 4x8 tile row: its two accumulators into C's 8 columns.
__attribute__((target("avx2,fma"), always_inline)) inline void put_row_avx2(
    double* row, __m256d lo, __m256d hi, bool add) {
  if (add) {
    lo = _mm256_add_pd(_mm256_loadu_pd(row), lo);
    hi = _mm256_add_pd(_mm256_loadu_pd(row + 4), hi);
  }
  _mm256_storeu_pd(row, lo);
  _mm256_storeu_pd(row + 4, hi);
}

// Hand-vectorized 4x8 tile: 8 YMM accumulators live across the whole
// K-block, 2 B loads + 4 A broadcasts feed 8 FMAs per iteration.
__attribute__((target("avx2,fma"))) void tile_avx2(
    std::size_t kc, const double* a_sliver, const double* b_sliver,
    double* c, std::size_t ldc, bool add) {
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256d b0 = _mm256_loadu_pd(b_sliver);
    const __m256d b1 = _mm256_loadu_pd(b_sliver + 4);
    __m256d av = _mm256_set1_pd(a_sliver[0]);
    c00 = _mm256_fmadd_pd(av, b0, c00);
    c01 = _mm256_fmadd_pd(av, b1, c01);
    av = _mm256_set1_pd(a_sliver[1]);
    c10 = _mm256_fmadd_pd(av, b0, c10);
    c11 = _mm256_fmadd_pd(av, b1, c11);
    av = _mm256_set1_pd(a_sliver[2]);
    c20 = _mm256_fmadd_pd(av, b0, c20);
    c21 = _mm256_fmadd_pd(av, b1, c21);
    av = _mm256_set1_pd(a_sliver[3]);
    c30 = _mm256_fmadd_pd(av, b0, c30);
    c31 = _mm256_fmadd_pd(av, b1, c31);
    a_sliver += kMR;
    b_sliver += kNR;
  }
  put_row_avx2(c, c00, c01, add);
  put_row_avx2(c + ldc, c10, c11, add);
  put_row_avx2(c + 2 * ldc, c20, c21, add);
  put_row_avx2(c + 3 * ldc, c30, c31, add);
}

// One super-tile row: the accumulators of its two B slivers into C's 16
// columns.
__attribute__((target("avx512f"), always_inline)) inline void put_row_avx512(
    double* row, __m512d lo, __m512d hi, bool add) {
  if (add) {
    lo = _mm512_add_pd(_mm512_loadu_pd(row), lo);
    hi = _mm512_add_pd(_mm512_loadu_pd(row + kNR), hi);
  }
  _mm512_storeu_pd(row, lo);
  _mm512_storeu_pd(row + kNR, hi);
}

// 8x16 super-tile: 16 ZMM accumulators (one per row and B sliver) live
// across the whole K-block; 2 B loads + 8 A broadcasts feed 16 FMAs per
// iteration. Each element's FMA chain is the 4x8 kernels' chain.
__attribute__((target("avx512f"))) void super_tile_avx512(
    std::size_t kc, const double* a_sliver, const double* b_sliver,
    double* c, std::size_t ldc, bool add) {
  const double* a_lo = a_sliver;
  const double* a_hi = a_sliver + kMR * kc;
  const double* b_lo = b_sliver;
  const double* b_hi = b_sliver + kNR * kc;
  __m512d c00 = _mm512_setzero_pd(), c01 = _mm512_setzero_pd();
  __m512d c10 = _mm512_setzero_pd(), c11 = _mm512_setzero_pd();
  __m512d c20 = _mm512_setzero_pd(), c21 = _mm512_setzero_pd();
  __m512d c30 = _mm512_setzero_pd(), c31 = _mm512_setzero_pd();
  __m512d c40 = _mm512_setzero_pd(), c41 = _mm512_setzero_pd();
  __m512d c50 = _mm512_setzero_pd(), c51 = _mm512_setzero_pd();
  __m512d c60 = _mm512_setzero_pd(), c61 = _mm512_setzero_pd();
  __m512d c70 = _mm512_setzero_pd(), c71 = _mm512_setzero_pd();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m512d b0 = _mm512_loadu_pd(b_lo);
    const __m512d b1 = _mm512_loadu_pd(b_hi);
    __m512d av = _mm512_set1_pd(a_lo[0]);
    c00 = _mm512_fmadd_pd(av, b0, c00);
    c01 = _mm512_fmadd_pd(av, b1, c01);
    av = _mm512_set1_pd(a_lo[1]);
    c10 = _mm512_fmadd_pd(av, b0, c10);
    c11 = _mm512_fmadd_pd(av, b1, c11);
    av = _mm512_set1_pd(a_lo[2]);
    c20 = _mm512_fmadd_pd(av, b0, c20);
    c21 = _mm512_fmadd_pd(av, b1, c21);
    av = _mm512_set1_pd(a_lo[3]);
    c30 = _mm512_fmadd_pd(av, b0, c30);
    c31 = _mm512_fmadd_pd(av, b1, c31);
    av = _mm512_set1_pd(a_hi[0]);
    c40 = _mm512_fmadd_pd(av, b0, c40);
    c41 = _mm512_fmadd_pd(av, b1, c41);
    av = _mm512_set1_pd(a_hi[1]);
    c50 = _mm512_fmadd_pd(av, b0, c50);
    c51 = _mm512_fmadd_pd(av, b1, c51);
    av = _mm512_set1_pd(a_hi[2]);
    c60 = _mm512_fmadd_pd(av, b0, c60);
    c61 = _mm512_fmadd_pd(av, b1, c61);
    av = _mm512_set1_pd(a_hi[3]);
    c70 = _mm512_fmadd_pd(av, b0, c70);
    c71 = _mm512_fmadd_pd(av, b1, c71);
    a_lo += kMR;
    a_hi += kMR;
    b_lo += kNR;
    b_hi += kNR;
  }
  put_row_avx512(c, c00, c01, add);
  put_row_avx512(c + ldc, c10, c11, add);
  put_row_avx512(c + 2 * ldc, c20, c21, add);
  put_row_avx512(c + 3 * ldc, c30, c31, add);
  put_row_avx512(c + 4 * ldc, c40, c41, add);
  put_row_avx512(c + 5 * ldc, c50, c51, add);
  put_row_avx512(c + 6 * ldc, c60, c61, add);
  put_row_avx512(c + 7 * ldc, c70, c71, add);
}
#endif  // GEONAS_GEMM_X86_DISPATCH

// The kernel set one host runs, picked once from its CPU. `super_tile` is
// null where the host has no super-tile kernel.
struct GemmKernels {
  const char* name;
  TileKernel tile;
  TileKernel super_tile;
};

GemmKernels select_kernels() {
#ifdef GEONAS_GEMM_X86_DISPATCH
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    if (__builtin_cpu_supports("avx512f")) {
      return {"avx512f-8x16", tile_avx2, super_tile_avx512};
    }
    return {"avx2-fma-4x8", tile_avx2, nullptr};
  }
#endif
  return {"portable-4x8", tile_portable, nullptr};
}

const GemmKernels& kernels() {
  static const GemmKernels set = select_kernels();
  return set;
}

// Packs the logical block op(A)(i0:i0+mc, p0:p0+kc) into kMR-row
// slivers: sliver ir holds [p][r] = op(A)(i0+ir+r, p0+p), zero-padded
// to kMR rows so edge tiles run the same full micro-kernel.
void pack_a(double* dst, const double* a, std::size_t lda, bool trans,
            std::size_t i0, std::size_t p0, std::size_t mc, std::size_t kc) {
  for (std::size_t ir = 0; ir < mc; ir += kMR) {
    const std::size_t rows = std::min(kMR, mc - ir);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t i = i0 + ir + r;
        dst[r] = trans ? a[(p0 + p) * lda + i] : a[i * lda + p0 + p];
      }
      for (std::size_t r = rows; r < kMR; ++r) dst[r] = 0.0;
      dst += kMR;
    }
  }
}

// Packs op(B)(p0:p0+kc, j0:j0+nc) into kNR-column slivers: sliver jr
// holds [p][j] = op(B)(p0+p, j0+jr+j), zero-padded to kNR columns.
void pack_b(double* dst, const double* b, std::size_t ldb, bool trans,
            std::size_t p0, std::size_t j0, std::size_t kc, std::size_t nc) {
  for (std::size_t jr = 0; jr < nc; jr += kNR) {
    const std::size_t cols = std::min(kNR, nc - jr);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t j = 0; j < cols; ++j) {
        const std::size_t jj = j0 + jr + j;
        dst[j] = trans ? b[jj * ldb + p0 + p] : b[(p0 + p) * ldb + jj];
      }
      for (std::size_t j = cols; j < kNR; ++j) dst[j] = 0.0;
      dst += kNR;
    }
  }
}

// Per-thread pack scratch, sized once (kMC*kKC + kKC*kNC doubles) and
// reused across every gemm on the thread. File-scope so the worker
// warm-up hook can pre-reserve it before a worker's first dispatch.
thread_local std::vector<double> t_a_pack;
thread_local std::vector<double> t_b_pack;

// C tile (mr x nr at c, leading dim ldc) <- alpha * ab combined with the
// existing C: the first K-block applies beta (without reading C when
// beta == 0, so uninitialized output storage is fine), later K-blocks
// accumulate. Serves the partial tiles and any product whose alpha or
// beta rules out the kernels' in-place write (see gemm_stripe).
void write_tile(double* c, std::size_t ldc, const double* ab, std::size_t mr,
                std::size_t nr, double alpha, double beta, bool first_kblock) {
  if (!first_kblock) {
    for (std::size_t r = 0; r < mr; ++r) {
      for (std::size_t j = 0; j < nr; ++j) {
        c[r * ldc + j] += alpha * ab[r * kNR + j];
      }
    }
  } else if (beta == 0.0) {
    for (std::size_t r = 0; r < mr; ++r) {
      for (std::size_t j = 0; j < nr; ++j) {
        c[r * ldc + j] = alpha * ab[r * kNR + j];
      }
    }
  } else {
    for (std::size_t r = 0; r < mr; ++r) {
      for (std::size_t j = 0; j < nr; ++j) {
        c[r * ldc + j] = alpha * ab[r * kNR + j] + beta * c[r * ldc + j];
      }
    }
  }
}

// Where a product's B slivers come from: op(B) read through (data, ldb,
// trans), or, when panel, a pack_b_full panel at data.
struct BSource {
  const double* data;
  std::size_t ldb;
  bool trans;
  bool panel;
};

// One task's stripe: rows [i_begin, i_end) of C through the full
// jc/pc/ic blocking. A raw B is packed per (jc, pc) block into the
// thread-local t_b_pack; a panel's block is read in place at
// pc * n_pad + jc * kc (kNC % kNR == 0, so jc starts a sliver). Both are
// the same sliver bytes, so the two sources give bitwise-equal C, and
// stripes share nothing writable.
void gemm_stripe(std::size_t i_begin, std::size_t i_end, std::size_t n,
                 std::size_t k, double alpha, const double* a, std::size_t lda,
                 bool trans_a, const BSource& b, double beta, double* c,
                 std::size_t ldc) {
  std::vector<double>& a_pack = t_a_pack;
  std::vector<double>& b_pack = t_b_pack;
  a_pack.resize(kMC * kKC);
  if (!b.panel) b_pack.resize(kKC * kNC);

  const GemmKernels& kern = kernels();
  const std::size_t n_pad = packed_b_ncols(n);
  // With alpha 1 and beta 0 or 1, write_tile stores the accumulator
  // (first K block, beta 0) or adds it to C, since 1 * x == x; a kernel
  // can do that in place. Any other alpha or beta keeps write_tile's
  // arithmetic: a kernel's alpha * acc + beta * c would be contracted
  // into an FMA inside its target("...fma"/"avx512f") body, skipping the
  // rounding of alpha * acc.
  const bool in_place = alpha == 1.0 && (beta == 0.0 || beta == 1.0);
  const bool super = in_place && kern.super_tile != nullptr;
  double ab[kMR * kNR];

  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nc = std::min(kNC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      const bool first_kblock = pc == 0;
      const bool add = !first_kblock || beta != 0.0;
      const double* b_block = b_pack.data();
      if (b.panel) {
        b_block = b.data + pc * n_pad + jc * kc;
      } else {
        pack_b(b_pack.data(), b.data, b.ldb, b.trans, pc, jc, kc, nc);
      }
      for (std::size_t ic = i_begin; ic < i_end; ic += kMC) {
        const std::size_t mc = std::min(kMC, i_end - ic);
        pack_a(a_pack.data(), a, lda, trans_a, ic, pc, mc, kc);
        // Sliver ir of the A block sits at ir * kc, sliver jr of the B
        // block at jr * kc, and C's tile at (ic + ir, jc + jr).
        const auto a_at = [&](std::size_t ir) {
          return a_pack.data() + ir * kc;
        };
        const auto b_at = [&](std::size_t jr) { return b_block + jr * kc; };
        const auto c_at = [&](std::size_t ir, std::size_t jr) {
          return c + (ic + ir) * ldc + jc + jr;
        };
        // Super-tiles cover every pair of full A slivers by every pair of
        // full B slivers, rows [0, m_super) of columns [0, n_super); 4x8
        // tiles cover the rest of the block.
        const std::size_t n_super = super ? nc / (2 * kNR) * (2 * kNR) : 0;
        const std::size_t m_super = mc / (2 * kMR) * (2 * kMR);
        for (std::size_t jr = 0; jr < n_super; jr += 2 * kNR) {
          for (std::size_t ir = 0; ir < m_super; ir += 2 * kMR) {
            kern.super_tile(kc, a_at(ir), b_at(jr), c_at(ir, jr), ldc, add);
          }
        }
        for (std::size_t jr = 0; jr < nc; jr += kNR) {
          const std::size_t nr = std::min(kNR, nc - jr);
          for (std::size_t ir = jr < n_super ? m_super : 0; ir < mc;
               ir += kMR) {
            const std::size_t mr = std::min(kMR, mc - ir);
            if (in_place && mr == kMR && nr == kNR) {
              kern.tile(kc, a_at(ir), b_at(jr), c_at(ir, jr), ldc, add);
            } else {
              kern.tile(kc, a_at(ir), b_at(jr), ab, kNR, false);
              write_tile(c_at(ir, jr), ldc, ab, mr, nr, alpha, beta,
                         first_kblock);
            }
          }
        }
      }
    }
  }
}

// C = beta * C for the degenerate alpha == 0 / k == 0 cases.
void scale_c(std::size_t m, std::size_t n, double beta, double* c,
             std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    double* row = c + i * ldc;
    if (beta == 0.0) {
      std::fill(row, row + n, 0.0);
    } else if (beta != 1.0) {
      for (std::size_t j = 0; j < n; ++j) row[j] *= beta;
    }
  }
}

// C (m x n) = alpha * op(A) * op(B) + beta * C, M split across the kernel
// pool on kMR grains. The cost model, grain and split do not depend on
// B's source, so a product lands on the same stripes whether its B is
// raw or a panel.
void gemm_split(std::size_t m, std::size_t n, std::size_t k, double alpha,
                const double* a, std::size_t lda, Trans trans_a,
                const BSource& b, double beta, double* c, std::size_t ldc) {
  if (m == 0 || n == 0) return;
  if (alpha == 0.0 || k == 0) {
    scale_c(m, n, beta, c, ldc);  // degenerate product: C = beta * C
    return;
  }
  const double cost = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                      static_cast<double>(k);
  const bool ta = trans_a == Trans::kTranspose;
  hpc::parallel_for(
      0, m, cost, kMR, [&](std::size_t lo, std::size_t hi) {
        gemm_stripe(lo, hi, n, k, alpha, a, lda, ta, b, beta, c, ldc);
      });
}

// Pre-reserve pack scratch on every kernel team worker before it takes
// its first chunk, so the thread_local first-allocation cannot land
// inside a steady-state (alloc-audited) dispatch. Registered from a
// static initializer: teams are created lazily at first over-threshold
// dispatch, which is always after static init completes.
[[maybe_unused]] const bool g_warmup_registered = [] {
  hpc::set_worker_warmup(&reserve_gemm_scratch);
  return true;
}();

}  // namespace

// Full-width prepack: every kKC-row block of op(B) packed across the
// whole width n. Identical bytes to the per-call pack_b tiles laid
// end-to-end (see gemm_kernel.hpp for the offset arithmetic).
void pack_b_full(double* dst, const double* b, std::size_t ldb, bool trans,
                 std::size_t k, std::size_t n) {
  const std::size_t n_pad = packed_b_ncols(n);
  for (std::size_t pc = 0; pc < k; pc += kKC) {
    const std::size_t kc = std::min(kKC, k - pc);
    pack_b(dst + pc * n_pad, b, ldb, trans, pc, 0, kc, n);
  }
}

void reserve_gemm_scratch() {
  t_a_pack.resize(kMC * kKC);
  t_b_pack.resize(kKC * kNC);
}

}  // namespace detail

namespace tensor {

const char* gemm_kernel() noexcept { return detail::kernels().name; }

}  // namespace tensor

void gemm_raw(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
              std::size_t k, double alpha, const double* a, std::size_t lda,
              const double* b, std::size_t ldb, double beta, double* c,
              std::size_t ldc) {
  detail::gemm_split(m, n, k, alpha, a, lda, trans_a,
                     {b, ldb, trans_b == Trans::kTranspose, false}, beta, c,
                     ldc);
}

void gemm_raw(Trans trans_a, std::size_t m, double alpha, const double* a,
              std::size_t lda, const tensor::PackedPanels& b, double beta,
              double* c, std::size_t ldc) {
  detail::gemm_split(m, b.n(), b.k(), alpha, a, lda, trans_a,
                     {b.data(), 0, false, true}, beta, c, ldc);
}

}  // namespace geonas
