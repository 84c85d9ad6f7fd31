// Arena bump-allocator unit tests: alignment, high-water accounting,
// and the reset() coalescing contract the zero-alloc hot paths depend
// on (DESIGN.md "Memory model").
#include <gtest/gtest.h>

#include <cstdint>
#include <cstddef>

#include "tensor/arena.hpp"

namespace geonas::tensor {
namespace {

bool is_aligned(const double* p) {
  return reinterpret_cast<std::uintptr_t>(p) % Arena::kAlignment == 0;
}

TEST(Arena, AllocationsAreCacheLineAligned) {
  Arena arena;
  // Odd counts force padding between carvings; every pointer must still
  // land on a 64-byte boundary.
  for (const std::size_t count : {1u, 3u, 7u, 64u, 1000u, 4097u}) {
    double* p = arena.alloc_doubles(count);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(is_aligned(p)) << "count=" << count;
    // The carve is writable over its full extent.
    p[0] = 1.0;
    p[count - 1] = 2.0;
  }
}

TEST(Arena, SpanCoversRequestedCount) {
  Arena arena;
  const auto span = arena.alloc_span(37);
  EXPECT_EQ(span.size(), 37u);
  EXPECT_TRUE(is_aligned(span.data()));
}

TEST(Arena, BytesInUseGrowsByAlignedSizes) {
  Arena arena;
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  (void)arena.alloc_doubles(1);  // 8 bytes, padded to one cache line
  EXPECT_EQ(arena.bytes_in_use(), Arena::kAlignment);
  (void)arena.alloc_doubles(8);  // exactly one cache line
  EXPECT_EQ(arena.bytes_in_use(), 2 * Arena::kAlignment);
}

TEST(Arena, HighWaterTracksPeakNotCurrent) {
  Arena arena;
  (void)arena.alloc_doubles(4096);
  const std::size_t peak = arena.bytes_in_use();
  arena.reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_GE(arena.high_water_bytes(), peak);
  (void)arena.alloc_doubles(8);
  EXPECT_GE(arena.high_water_bytes(), peak);  // peak survives smaller use
}

TEST(Arena, ResetCoalescesToSingleSlab) {
  Arena arena(1024);  // small first slab forces growth below
  // Carve well past any single slab so several slabs exist.
  for (int i = 0; i < 8; ++i) (void)arena.alloc_doubles(16 * 1024);
  const std::size_t peak = arena.high_water_bytes();
  ASSERT_GE(arena.slab_count(), 2u);

  arena.reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.slab_count(), 1u);
  EXPECT_GE(arena.capacity_bytes(), peak);

  // The same carve sequence now fits the retained slab: no growth.
  for (int i = 0; i < 8; ++i) (void)arena.alloc_doubles(16 * 1024);
  EXPECT_EQ(arena.slab_count(), 1u);
}

TEST(Arena, PreSizedArenaServesWithoutGrowth) {
  Arena arena(1 << 20);
  EXPECT_EQ(arena.slab_count(), 1u);
  (void)arena.alloc_doubles((1 << 20) / sizeof(double) / 2);
  EXPECT_EQ(arena.slab_count(), 1u);
}

TEST(ArenaMatrix, BindZeroFillsAndIndexes) {
  Arena arena;
  ArenaMatrix m;
  m.bind(arena, 3, 5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m.size(), 15u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 5; ++c) EXPECT_EQ(m(r, c), 0.0);
  }
  m(2, 4) = 7.5;
  EXPECT_EQ(m.flat()[2 * 5 + 4], 7.5);
  EXPECT_EQ(m.row_span(2)[4], 7.5);
}

TEST(ArenaMatrix, RebindAfterResetReusesCapacity) {
  Arena arena;
  ArenaMatrix m;
  m.bind(arena, 16, 16);
  m.fill(3.0);
  arena.reset();
  m.bind(arena, 16, 16);  // same shape, retained slab: fresh zeros
  EXPECT_EQ(arena.slab_count(), 1u);
  // geonas-lint: allow(float-eq-in-tests) bind() writes literal zeros
  for (double v : m.flat()) ASSERT_EQ(v, 0.0);
}

}  // namespace
}  // namespace geonas::tensor
