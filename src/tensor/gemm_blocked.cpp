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

// Micro-kernel contract: ab (kMR x kNR, row-major) = sum over p < kc of
// a_sliver[p * kMR + r] * b_sliver[p * kNR + j]. Slivers are packed and
// zero-padded, so the kernel is branch-free and always full-tile.
using MicroKernel = void (*)(std::size_t kc, const double* a_sliver,
                             const double* b_sliver, double* ab);

void micro_kernel_portable(std::size_t kc, const double* a_sliver,
                           const double* b_sliver, double* ab) {
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
  std::copy(acc, acc + kMR * kNR, ab);
}

#ifdef GEONAS_GEMM_X86_DISPATCH
// Hand-vectorized 4x8 tile: 8 YMM accumulators live across the whole
// K-block, 2 B loads + 4 A broadcasts feed 8 FMAs per iteration.
__attribute__((target("avx2,fma"))) void micro_kernel_avx2(
    std::size_t kc, const double* a_sliver, const double* b_sliver,
    double* ab) {
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
  _mm256_storeu_pd(ab + 0, c00);
  _mm256_storeu_pd(ab + 4, c01);
  _mm256_storeu_pd(ab + 8, c10);
  _mm256_storeu_pd(ab + 12, c11);
  _mm256_storeu_pd(ab + 16, c20);
  _mm256_storeu_pd(ab + 20, c21);
  _mm256_storeu_pd(ab + 24, c30);
  _mm256_storeu_pd(ab + 28, c31);
}
#endif  // GEONAS_GEMM_X86_DISPATCH

MicroKernel select_micro_kernel() {
#ifdef GEONAS_GEMM_X86_DISPATCH
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return micro_kernel_avx2;
  }
#endif
  return micro_kernel_portable;
}

MicroKernel micro_kernel() {
  static const MicroKernel kernel = select_micro_kernel();
  return kernel;
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
// accumulate.
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

  const MicroKernel micro = micro_kernel();
  const std::size_t n_pad = packed_b_ncols(n);
  double ab[kMR * kNR];

  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nc = std::min(kNC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      const bool first_kblock = pc == 0;
      const double* b_block = b_pack.data();
      if (b.panel) {
        b_block = b.data + pc * n_pad + jc * kc;
      } else {
        pack_b(b_pack.data(), b.data, b.ldb, b.trans, pc, jc, kc, nc);
      }
      for (std::size_t ic = i_begin; ic < i_end; ic += kMC) {
        const std::size_t mc = std::min(kMC, i_end - ic);
        pack_a(a_pack.data(), a, lda, trans_a, ic, pc, mc, kc);
        for (std::size_t jr = 0; jr < nc; jr += kNR) {
          const std::size_t nr = std::min(kNR, nc - jr);
          const double* b_sliver = b_block + (jr / kNR) * kNR * kc;
          for (std::size_t ir = 0; ir < mc; ir += kMR) {
            const std::size_t mr = std::min(kMR, mc - ir);
            micro(kc, a_pack.data() + (ir / kMR) * kMR * kc, b_sliver, ab);
            write_tile(c + (ic + ir) * ldc + jc + jr, ldc, ab, mr, nr, alpha,
                       beta, first_kblock);
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
