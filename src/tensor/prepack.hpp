// Pack-once GEMM weight panels.
//
// Every hot-path GEMM in the recurrent layers multiplies activations
// against a persistent weight matrix (always the B operand: x·W, h·R
// forward; dZ·Wᵀ backward). The blocked kernel re-packs B into
// NR-column slivers on every call — per timestep, per training step,
// per serve request — even though the weights only change at optimizer
// steps. PackedPanels hoists that packing: it holds op(W) in exactly
// the sliver layout the per-call path produces (see pack_b_full in
// tensor/gemm_kernel.hpp), re-packed only when the source Matrix's
// version() counter says the weights actually changed. The packed
// gemm_raw overload in tensor/blas.hpp then skips B packing entirely
// and otherwise runs the per-call path's loop nest. Because the packed
// bytes and the operation order are identical to the per-call path,
// results are bitwise equal to the unpacked kernel at every thread
// count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/blas.hpp"
#include "tensor/matrix.hpp"

namespace geonas::tensor {

/// One weight matrix, packed as a GEMM B operand. A PackedPanels
/// instance serves exactly one role — one (matrix, trans) combination;
/// layers keep one instance per weight-GEMM site. Storage is owned and
/// repacked in place, so steady-state re-packs after optimizer steps
/// allocate nothing.
class PackedPanels {
 public:
  PackedPanels() = default;

  /// Packs op(w) (kNone: w itself, k = rows x n = cols; kTranspose: wᵀ)
  /// if the pack is missing or stale, else returns immediately. The
  /// freshness test is (data pointer, version()) equality — any mutable
  /// access to w since the last pack triggers a re-pack.
  void ensure(const Matrix& w, Trans trans);

  /// True when the pack holds the current contents of w (same storage,
  /// no mutable access since packing). The layers re-ensure before
  /// every use, so this only returns false between a weight mutation
  /// and the next ensure.
  [[nodiscard]] bool fresh_for(const Matrix& w) const noexcept {
    return storage_ != nullptr && source_data_ == w.flat().data() &&
           source_version_ == w.version();
  }

  /// Packed panel base pointer (layout documented at pack_b_full).
  [[nodiscard]] const double* data() const noexcept { return storage_; }
  /// op(B) dimensions: the packed operand is k() x n().
  [[nodiscard]] std::size_t k() const noexcept { return k_; }
  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return storage_ == nullptr; }
  /// Times the panel was actually (re-)packed — lets tests pin the
  /// invalidation rule (n ensures after m mutations => m+1 packs).
  [[nodiscard]] std::uint64_t repack_count() const noexcept {
    return repacks_;
  }

 private:
  std::vector<double> owned_;
  double* storage_ = nullptr;     // owned_.data() once packed
  std::size_t k_ = 0;
  std::size_t n_ = 0;
  Trans trans_ = Trans::kNone;
  const double* source_data_ = nullptr;
  std::uint64_t source_version_ = 0;
  std::uint64_t repacks_ = 0;
};

}  // namespace geonas::tensor
