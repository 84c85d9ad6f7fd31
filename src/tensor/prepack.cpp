#include "tensor/prepack.hpp"

#include <cassert>

#include "tensor/gemm_kernel.hpp"

namespace geonas::tensor {

void PackedPanels::ensure_block(const Matrix& w, Trans trans,
                                std::size_t col0, std::size_t ncols) {
  assert(col0 + ncols <= w.cols());
  const double* src = w.flat().data();  // const overload: no version bump
  const bool transpose = trans == Trans::kTranspose;
  const std::size_t k = transpose ? ncols : w.rows();
  const std::size_t n = transpose ? w.rows() : ncols;

  if (storage_ != nullptr && source_data_ == src &&
      source_version_ == w.version() && trans_ == trans && col0_ == col0 &&
      k_ == k && n_ == n) {
    return;  // fresh: the common steady-state outcome
  }

  const std::size_t need = detail::packed_b_doubles(k, n);
  if (owned_.size() < need) {
    // First pack (or a genuine weight-shape change, which never happens
    // in steady state): same-shape re-packs after optimizer steps write
    // in place and stay heap-free.
    owned_.resize(need);  // geonas-lint: allow(hot-path-alloc) cold first-pack / shape change only
    storage_ = owned_.data();
  }

  detail::pack_b_full(storage_, src + col0, w.cols(), transpose, k, n);
  k_ = k;
  n_ = n;
  trans_ = trans;
  col0_ = col0;
  source_data_ = src;
  source_version_ = w.version();
  ++repacks_;
}

void PackedPanels::assert_fresh([[maybe_unused]] const Matrix& w) const noexcept {
  assert(fresh_for(w) && "PackedPanels: stale pack consumed");
}

}  // namespace geonas::tensor
