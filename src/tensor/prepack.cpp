#include "tensor/prepack.hpp"

#include "tensor/gemm_kernel.hpp"

namespace geonas::tensor {

void PackedPanels::ensure(const Matrix& w, Trans trans) {
  const double* src = w.flat().data();  // const overload: no version bump
  const bool transpose = trans == Trans::kTranspose;
  const std::size_t k = transpose ? w.cols() : w.rows();
  const std::size_t n = transpose ? w.rows() : w.cols();

  if (storage_ != nullptr && source_data_ == src &&
      source_version_ == w.version() && trans_ == trans && k_ == k &&
      n_ == n) {
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

  detail::pack_b_full(storage_, src, w.cols(), transpose, k, n);
  k_ = k;
  n_ = n;
  trans_ = trans;
  source_data_ = src;
  source_version_ = w.version();
  ++repacks_;
}

}  // namespace geonas::tensor
