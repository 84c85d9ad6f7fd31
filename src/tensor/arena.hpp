// Bump allocator for steady-state-allocation-free hot paths.
//
// The NN layers carve all their forward/backward scratch out of an Arena
// at bind time (one arena per GraphNetwork), so a steady-state train step
// touches the heap zero times: the general-purpose allocator is replaced
// by a pointer bump inside pre-sized 64-byte-aligned slabs. Slabs are
// retained across reset(), which means a bind at an already-seen shape is
// pure pointer arithmetic. See DESIGN.md, "Memory model".
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace geonas::tensor {

class Arena {
 public:
  /// Alignment of every allocation (one cache line, and enough for any
  /// vectorized double kernel).
  static constexpr std::size_t kAlignment = 64;

  /// `initial_bytes` pre-sizes the first slab (0 defers until first use).
  explicit Arena(std::size_t initial_bytes = 0);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// `count` doubles, kAlignment-aligned, NOT zero-initialized. Grows a
  /// new slab only when no retained slab fits; steady-state calls never
  /// touch the heap.
  double* alloc_doubles(std::size_t count);
  std::span<double> alloc_span(std::size_t count) {
    return {alloc_doubles(count), count};
  }

  /// Rewinds to empty. Retains a single slab of the combined capacity so
  /// the next carve sequence of the same total size allocates nothing;
  /// coalescing happens here (cold path) rather than in alloc_doubles.
  void reset();

  /// Bytes currently carved (aligned sizes).
  [[nodiscard]] std::size_t bytes_in_use() const noexcept { return in_use_; }
  /// Largest bytes_in_use ever observed — the arena's working-set size.
  [[nodiscard]] std::size_t high_water_bytes() const noexcept {
    return high_water_;
  }
  [[nodiscard]] std::size_t slab_count() const noexcept {
    return slabs_.size();
  }
  [[nodiscard]] std::size_t capacity_bytes() const noexcept;

  /// Publishes high-water/capacity/slab-count to the installed obs
  /// registry ("arena.*" instruments); no-op without a registry. Called
  /// by GraphNetwork after each workspace bind — the cold path.
  void export_stats() const;

 private:
  struct Slab {
    double* data = nullptr;   // kAlignment-aligned
    std::size_t bytes = 0;    // capacity
  };

  static Slab allocate_slab(std::size_t bytes);
  static void free_slab(Slab& slab) noexcept;

  std::vector<Slab> slabs_;
  std::size_t current_ = 0;   // slab being bumped
  std::size_t offset_ = 0;    // bytes used in slabs_[current_]
  std::size_t in_use_ = 0;
  std::size_t high_water_ = 0;
};

/// Non-owning row-major matrix view over arena memory. The layer
/// workspaces are ArenaMatrix instead of Matrix: same indexing surface,
/// but rebinding is a pointer swap and carries no allocation or implicit
/// refill (bind() zero-fills once; later passes overwrite in place).
class ArenaMatrix {
 public:
  ArenaMatrix() = default;

  /// Carves rows*cols doubles from `arena` and zero-fills them (matching
  /// the Matrix(rows, cols) construction the layers previously relied
  /// on). The view is valid until the arena is reset past the carve.
  void bind(Arena& arena, std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_ = arena.alloc_doubles(rows * cols);
    fill(0.0);
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return rows_ * cols_; }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<double> flat() noexcept {
    return {data_, rows_ * cols_};
  }
  [[nodiscard]] std::span<const double> flat() const noexcept {
    return {data_, rows_ * cols_};
  }
  [[nodiscard]] std::span<double> row_span(std::size_t r) noexcept {
    return {data_ + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row_span(std::size_t r) const noexcept {
    return {data_ + r * cols_, cols_};
  }

  void fill(double value) noexcept {
    const std::size_t n = rows_ * cols_;
    for (std::size_t i = 0; i < n; ++i) data_[i] = value;
  }

 private:
  double* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

}  // namespace geonas::tensor
