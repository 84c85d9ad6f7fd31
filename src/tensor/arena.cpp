#include "tensor/arena.hpp"

#include <new>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace geonas::tensor {

namespace {

constexpr std::size_t kMinSlabBytes = 1 << 16;  // 64 KiB

std::size_t align_up(std::size_t bytes) noexcept {
  return (bytes + Arena::kAlignment - 1) & ~(Arena::kAlignment - 1);
}

}  // namespace

Arena::Arena(std::size_t initial_bytes) {
  if (initial_bytes > 0) {
    slabs_.push_back(allocate_slab(align_up(initial_bytes)));
  }
}

Arena::~Arena() {
  for (Slab& slab : slabs_) free_slab(slab);
}

Arena::Slab Arena::allocate_slab(std::size_t bytes) {
  Slab slab;
  slab.bytes = bytes;
  slab.data = static_cast<double*>(
      ::operator new(bytes, std::align_val_t{kAlignment}));
  return slab;
}

void Arena::free_slab(Slab& slab) noexcept {
  ::operator delete(slab.data, std::align_val_t{kAlignment});
  slab.data = nullptr;
  slab.bytes = 0;
}

double* Arena::alloc_doubles(std::size_t count) {
  const std::size_t bytes = align_up(count * sizeof(double));
  if (bytes == 0) {
    // A zero-size carve still needs a unique, aligned address.
    static double sentinel alignas(kAlignment);
    return &sentinel;
  }
  // Bump in the current slab; otherwise advance through retained slabs
  // (their tails were abandoned by an earlier pass of a different shape)
  // before growing a fresh one.
  while (current_ < slabs_.size() &&
         slabs_[current_].bytes - offset_ < bytes) {
    ++current_;
    offset_ = 0;
  }
  if (current_ == slabs_.size()) {
    const std::size_t prev = slabs_.empty() ? 0 : slabs_.back().bytes;
    const std::size_t grown = prev * 2 > kMinSlabBytes ? prev * 2
                                                       : kMinSlabBytes;
    slabs_.push_back(allocate_slab(bytes > grown ? bytes : grown));
    offset_ = 0;
  }
  double* p = slabs_[current_].data + offset_ / sizeof(double);
  offset_ += bytes;
  in_use_ += bytes;
  if (in_use_ > high_water_) high_water_ = in_use_;
  return p;
}

void Arena::reset() {
  if (slabs_.size() > 1) {
    // Coalesce so the carve sequence that overflowed into extra slabs
    // fits one slab next time (after which reset never allocates).
    std::size_t total = 0;
    for (Slab& slab : slabs_) {
      total += slab.bytes;
      free_slab(slab);
    }
    slabs_.clear();
    slabs_.push_back(allocate_slab(total));
  }
  current_ = 0;
  offset_ = 0;
  in_use_ = 0;
}

std::size_t Arena::capacity_bytes() const noexcept {
  std::size_t total = 0;
  for (const Slab& slab : slabs_) total += slab.bytes;
  return total;
}

void Arena::export_stats() const {
  obs::MetricsRegistry* reg = obs::registry();
  if (reg == nullptr) return;
  reg->counter("arena.binds").add(1);
  reg->histogram("arena.high_water_bytes")
      .observe(static_cast<double>(high_water_));
  reg->histogram("arena.capacity_bytes")
      .observe(static_cast<double>(capacity_bytes()));
  reg->gauge("arena.slabs").set(static_cast<double>(slabs_.size()));
}

}  // namespace geonas::tensor
