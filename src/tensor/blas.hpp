// BLAS-like dense kernels used throughout geonas.
//
// All kernels are written against contiguous row-major storage. The
// matrix products run through a shared cache-blocked, register-tiled
// GEMM (see tensor/gemm_kernel.hpp) with runtime-dispatched AVX-512F and
// AVX2+FMA micro-kernels on x86-64 and an autovectorized portable
// fallback; the M dimension is split across the geonas::hpc kernel pool
// above a flops threshold, so POD correlation matrices (Ns x Ns with
// Ns ~ 500) and whole-sequence LSTM projections parallelize while tiny
// NAS-cell matmuls stay serial. gemm_raw exposes the strided
// (leading-dimension) form so recurrent layers can run per-timestep slab
// updates in place with zero allocation.
#pragma once

#include <cstddef>

#include "tensor/matrix.hpp"

namespace geonas {

namespace tensor {
class PackedPanels;

/// The GEMM micro-kernel set this host runs, picked once from its CPU:
/// "avx512f-8x16", "avx2-fma-4x8" or "portable-4x8" (see
/// tensor/gemm_blocked.cpp).
[[nodiscard]] const char* gemm_kernel() noexcept;
}  // namespace tensor

/// Transpose selector for gemm_raw (op(X) = X or X^T).
enum class Trans { kNone, kTranspose };

/// C (m x n, leading dimension ldc) = alpha * op(A) * op(B) + beta * C.
///
/// op(A) is m x k and op(B) is k x n. For Trans::kNone, A is stored
/// m x k with leading dimension lda (lda >= k); for Trans::kTranspose,
/// A is stored k x m with lda >= m (same convention for B, and ldc >= n
/// for C). When beta == 0, C is written without being read, so it may
/// be uninitialized. C must NOT overlap A or B — use the Matrix-level
/// gemm() wrapper when aliasing is possible; it detects overlap and
/// falls back to a temporary.
void gemm_raw(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
              std::size_t k, double alpha, const double* a, std::size_t lda,
              const double* b, std::size_t ldb, double beta, double* c,
              std::size_t ldc);

/// Prepacked-B variant: C (m x b.n(), leading dim ldc) =
/// alpha * op(A) * B + beta * C, where B was packed once by a
/// tensor::PackedPanels (n and k come from the pack, trans for B was
/// chosen at pack time). Skips all per-call B packing and otherwise
/// runs the same loop nest, so it is bitwise identical to the
/// equivalent unpacked gemm_raw call at every kernel thread count. The
/// pack must be fresh for the weights it was built from (callers
/// ensure() before use; see tensor/prepack.hpp).
void gemm_raw(Trans trans_a, std::size_t m, double alpha, const double* a,
              std::size_t lda, const tensor::PackedPanels& b, double beta,
              double* c, std::size_t ldc);

/// C = alpha * A * B + beta * C. Shapes: A (m x k), B (k x n), C (m x n).
/// C is resized (and zeroed) if beta == 0 and its shape does not match.
/// Safe when C aliases A and/or B (including gemm(a, b, a)): overlap is
/// detected and the product is computed through a temporary.
void gemm(const Matrix& a, const Matrix& b, Matrix& c, double alpha = 1.0,
          double beta = 0.0);

/// Convenience: returns A * B.
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);

/// Returns A^T * B without materializing A^T.
[[nodiscard]] Matrix matmul_at_b(const Matrix& a, const Matrix& b);

}  // namespace geonas
