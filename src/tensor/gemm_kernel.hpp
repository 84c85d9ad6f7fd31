// Blocking constants and weight-panel layout of the GEMM kernel behind
// both geonas::gemm_raw overloads (tensor/blas.hpp; the kernel itself is
// tensor/gemm_blocked.cpp). tensor::PackedPanels packs weight panels
// with pack_b_full, the graph sizes its panel arena with
// packed_b_doubles, and the recurrent layers cut their batch-row slices
// on kMR tiles.
//
// Structure (BLIS-style three-level blocking), one loop nest whether B
// is packed per call or read from a panel:
//   for jc over N in steps of kNC:            L3-resident B panel
//     for pc over K in steps of kKC:          one B block per (jc, pc)
//       B(pc:pc+kc, jc:jc+nc) as NR-column slivers: packed per call,
//       or read in place from a pack_b_full panel
//       for ic over M in steps of kMC:        L2-resident A block
//         pack A(ic:ic+mc, pc:pc+kc) into MR-row slivers
//         for jr, ir over the block: register micro-kernels, a
//         2kMR x 2kNR super-tile per pair of full A and B slivers where
//         the host has one, kMR x kNR tiles elsewhere
//
// A micro-kernel keeps its accumulator tile in registers for the whole
// K-block. The set is selected once at runtime from the CPU
// (tensor::gemm_kernel() names it): on x86-64 an AVX-512F 8x16
// super-tile with AVX2+FMA 4x8 edge tiles, or AVX2+FMA 4x8 tiles; else
// the portable 4x8 tile, which autovectorizes under the default flags.
// Every kernel gives each C element the same K-ordered chain, and with
// alpha 1 and beta 0 or 1 (every product in src/) it writes full tiles
// into C in place.
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
// portable build. The AVX-512F super-tile is 2 x 2 of these tiles: 16
// ZMM accumulators.
inline constexpr std::size_t kMR = 4;
inline constexpr std::size_t kNR = 8;
// Cache blocking: the packed A block (kMC x kKC doubles = 192 KiB) and
// the in-flight B slivers fit in a typical 512 KiB-1 MiB L2; the packed
// B panel (kKC x kNC = 2 MiB) lives in L3.
inline constexpr std::size_t kMC = 96;
inline constexpr std::size_t kKC = 256;
inline constexpr std::size_t kNC = 1024;

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

/// Packs ALL of op(B) (k x n) into the full-width panel layout the
/// packed gemm_raw reads: for each kKC-row block pc (kc rows), the
/// complete row of kNR-column slivers across n. Block pc starts at
/// doubles-offset pc * packed_b_ncols(n), sliver s within it at
/// s * kNR * kc, so the loop nest's (jc, pc) block starts at
/// pc * packed_b_ncols(n) + jc * kc. Byte-for-byte what the per-call
/// path packs for every (pc, jc) block (kNC is a multiple of kNR, so
/// jc boundaries fall on sliver boundaries). dst needs
/// packed_b_doubles(k, n) doubles.
void pack_b_full(double* dst, const double* b, std::size_t ldb, bool trans,
                 std::size_t k, std::size_t n);

/// Resizes the calling thread's pack scratch buffers to their steady-state
/// capacity (kMC*kKC + kKC*kNC doubles). Registered as the hpc worker
/// warm-up hook so pool workers never first-allocate inside an audited
/// dispatch; also callable directly from tests.
void reserve_gemm_scratch();

}  // namespace geonas::detail
