// Internal blocked-GEMM kernel API shared by blas.cpp and the kernel
// implementation. Public callers use geonas::gemm / geonas::gemm_raw
// from tensor/blas.hpp; this header exists so the blocking parameters
// and the low-level entry point are visible to tests and benchmarks, and
// so the recurrent layers can cut their batch-row slices on kMR tiles.
//
// Structure (BLIS-style three-level blocking):
//   for jc over N in steps of kNC:            L3-resident B panel
//     for pc over K in steps of kKC:          packed once per (jc, pc)
//       pack B(pc:pc+kc, jc:jc+nc) into NR-column slivers
//       for ic over M in steps of kMC:        L2-resident A block
//         pack A(ic:ic+mc, pc:pc+kc) into MR-row slivers
//         for jr, ir over the block: kMR x kNR register micro-kernel
//
// The micro-kernel keeps a kMR x kNR accumulator tile in registers for
// the whole K-block; an AVX2+FMA variant is selected once at runtime on
// x86-64 (the portable variant autovectorizes under the default flags).
// Packing reads through the (lda, transposed?) source view, so the same
// kernel serves A*B, A^T*B and A*B^T without materialized transposes.
// The M dimension is split across geonas::hpc::parallel_for above its
// flops threshold; every C element is written by exactly one task and
// the per-element summation order is independent of the split, so
// results are bitwise reproducible across thread counts.
#pragma once

#include <cstddef>

namespace geonas::detail {

// Register tile (micro-kernel) footprint: 4 x 8 doubles = 8 YMM
// accumulators under AVX2, and a shape GCC autovectorizes well for the
// portable build.
inline constexpr std::size_t kMR = 4;
inline constexpr std::size_t kNR = 8;
// Cache blocking: the packed A block (kMC x kKC doubles = 192 KiB) and
// the in-flight B slivers fit in a typical 512 KiB-1 MiB L2; the packed
// B panel (kKC x kNC = 2 MiB) lives in L3.
inline constexpr std::size_t kMC = 96;
inline constexpr std::size_t kKC = 256;
inline constexpr std::size_t kNC = 1024;

// Small-M prepacked fast path: when a stripe covers at most kMC rows
// AND the whole prepacked B (k x n_pad doubles) fits in this budget,
// the jc/ic blocking loops are dropped — B is L2-resident, so there is
// nothing left to block for. Sized for a conservative 512 KiB L2 with
// half left for the A slivers and C tiles.
inline constexpr std::size_t kPrepackL2Bytes = 256 * 1024;

/// n rounded up to a whole number of kNR-column slivers.
constexpr std::size_t packed_b_ncols(std::size_t n) {
  return (n + kNR - 1) / kNR * kNR;
}

/// Doubles of storage for a full-width prepacked B of shape k x n:
/// every kKC-row block holds kc * packed_b_ncols(n) doubles and the
/// blocks sum to k rows.
constexpr std::size_t packed_b_doubles(std::size_t k, std::size_t n) {
  return k * packed_b_ncols(n);
}

/// C (m x n, leading dim ldc) = alpha * op(A) * op(B) + beta * C.
/// op(A) is m x k; when trans_a, A is stored k x m with leading
/// dimension lda and op(A)(i,p) = a[p * lda + i] (same convention for
/// B). C must not overlap A or B (the Matrix-level geonas::gemm wrapper
/// handles aliasing; raw callers must guarantee it).
void gemm_blocked(std::size_t m, std::size_t n, std::size_t k, double alpha,
                  const double* a, std::size_t lda, bool trans_a,
                  const double* b, std::size_t ldb, bool trans_b, double beta,
                  double* c, std::size_t ldc);

/// Packs the logical block op(A)(i0:i0+mc, p0:p0+kc) into kMR-row
/// slivers: sliver ir holds [p][r] = op(A)(i0+ir+r, p0+p), zero-padded
/// to kMR rows. dst needs mc rounded up to kMR times kc doubles.
void pack_a(double* dst, const double* a, std::size_t lda, bool trans,
            std::size_t i0, std::size_t p0, std::size_t mc, std::size_t kc);

/// Packs op(B)(p0:p0+kc, j0:j0+nc) into kNR-column slivers: sliver jr
/// holds [p][j] = op(B)(p0+p, j0+jr+j), zero-padded to kNR columns.
/// dst needs kc * packed_b_ncols(nc) doubles.
void pack_b(double* dst, const double* b, std::size_t ldb, bool trans,
            std::size_t p0, std::size_t j0, std::size_t kc, std::size_t nc);

/// Packs ALL of op(B) (k x n) into the full-width panel layout consumed
/// by gemm_blocked_packed_b: for each kKC-row block pc (kc rows), the
/// complete row of kNR-column slivers across n. Block pc starts at
/// doubles-offset pc * packed_b_ncols(n); sliver s within it at
/// s * kNR * kc. Byte-for-byte the concatenation of what the per-call
/// path's pack_b produces for every (pc, jc) tile (kNC is a multiple of
/// kNR, so jc boundaries always fall on sliver boundaries). dst needs
/// packed_b_doubles(k, n) doubles.
void pack_b_full(double* dst, const double* b, std::size_t ldb, bool trans,
                 std::size_t k, std::size_t n);

/// gemm_blocked with B already packed by pack_b_full. Skips all per-call
/// B packing, and for small M (stripe <= kMC rows) with the whole packed
/// B under kPrepackL2Bytes also skips the jc/ic blocking loops. The
/// kKC K-partitioning, micro-kernel accumulation order and parallel_for
/// M-split are identical to gemm_blocked, so results are bitwise equal
/// to the unpacked path at every thread count.
void gemm_blocked_packed_b(std::size_t m, std::size_t n, std::size_t k,
                           double alpha, const double* a, std::size_t lda,
                           bool trans_a, const double* packed_b, double beta,
                           double* c, std::size_t ldc);

/// Resizes the calling thread's pack scratch buffers to their steady-state
/// capacity (kMC*kKC + kKC*kNC doubles). Registered as the hpc worker
/// warm-up hook so pool workers never first-allocate inside an audited
/// dispatch; also callable directly from tests.
void reserve_gemm_scratch();

}  // namespace geonas::detail
