// WindowView zero-copy gathering against an independent reference loop —
// including stride > 1 and a dropped trailing remainder — and the
// index-level train/validation split.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/windowing.hpp"
#include "tensor/random.hpp"

namespace geonas::data {
namespace {

Matrix random_coeffs(std::size_t nr, std::size_t ns, std::uint64_t seed) {
  Rng rng(seed);
  Matrix a(nr, ns);
  for (double& v : a.flat()) v = rng.uniform(-2.0, 2.0);
  return a;
}

/// Hand-rolled reference gather, written independently of
/// WindowView::gather: example e's input step t is
/// column e*stride + t of A, transposed to row-major [K, Nr].
void reference_gather(const Matrix& a, const WindowConfig& cfg,
                      std::size_t e, bool target, std::vector<double>& dst) {
  const std::size_t nr = a.rows();
  const std::size_t base = e * cfg.stride + (target ? cfg.window : 0);
  dst.assign(cfg.window * nr, 0.0);
  for (std::size_t t = 0; t < cfg.window; ++t) {
    for (std::size_t m = 0; m < nr; ++m) {
      dst[t * nr + m] = a(m, base + t);
    }
  }
}

TEST(WindowView, GatherMatchesReference) {
  const WindowConfig cfg{.window = 8, .stride = 1};
  const Matrix a = random_coeffs(5, 40, 77);
  const WindowView view(a, cfg);
  const WindowedDataset mat = view.materialize();

  ASSERT_EQ(view.size(), window_count(a.cols(), cfg));
  ASSERT_EQ(view.size(), mat.size());
  EXPECT_EQ(view.features(), a.rows());

  std::vector<double> got(cfg.window * a.rows());
  std::vector<double> ref;
  for (std::size_t e = 0; e < view.size(); ++e) {
    view.gather_x(e, got);
    reference_gather(a, cfg, e, /*target=*/false, ref);
    ASSERT_EQ(got, ref) << "x example " << e;
    const auto xb = mat.x.block(e);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), xb.begin(), xb.end()));

    view.gather_y(e, got);
    reference_gather(a, cfg, e, /*target=*/true, ref);
    ASSERT_EQ(got, ref) << "y example " << e;
    const auto yb = mat.y.block(e);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), yb.begin(), yb.end()));
  }
}

TEST(WindowView, StridedGatherDropsRemainder) {
  // Ns = 43, 2K = 12, stride = 3: offsets 0,3,...,30 fit a full 2K
  // window (31 columns of span starting at 30 ends at 41 < 43); offset
  // 33 would need column 44 — the trailing remainder must be dropped.
  const WindowConfig cfg{.window = 6, .stride = 3};
  const Matrix a = random_coeffs(4, 43, 78);
  const WindowView view(a, cfg);
  ASSERT_EQ(view.size(), window_count(a.cols(), cfg));
  ASSERT_GT(view.size(), 0u);
  // The last example's final target column must be in bounds.
  const std::size_t last = view.size() - 1;
  ASSERT_LE(last * cfg.stride + 2 * cfg.window, a.cols());

  std::vector<double> got(cfg.window * a.rows());
  std::vector<double> ref;
  for (std::size_t e = 0; e < view.size(); ++e) {
    view.gather_x(e, got);
    reference_gather(a, cfg, e, /*target=*/false, ref);
    ASSERT_EQ(got, ref);
    view.gather_y(e, got);
    reference_gather(a, cfg, e, /*target=*/true, ref);
    ASSERT_EQ(got, ref);
  }
}

TEST(WindowView, RejectsBadConfigs) {
  const Matrix a = random_coeffs(3, 15, 81);
  try {
    (void)WindowView(a, {.window = 8, .stride = 1});  // 15 < 2K = 16
    FAIL() << "a series shorter than 2K accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("WindowView"), std::string::npos) << what;
    EXPECT_NE(what.find("Ns = 15"), std::string::npos) << what;
    EXPECT_NE(what.find("2K = 16"), std::string::npos) << what;
    EXPECT_NE(what.find("K = 8"), std::string::npos) << what;
  }
  EXPECT_THROW(WindowView(a, {.window = 4, .stride = 0}),
               std::invalid_argument);
  EXPECT_THROW(WindowView(a, {.window = 0, .stride = 1}),
               std::invalid_argument);
}

TEST(WindowSplit, IndicesPartitionAndRepeatBySeed) {
  // The split is a seeded permutation of [0, n) cut after
  // round(0.8 * n) ids: together the sides hold every id exactly once,
  // the same seed gives the same split, and another seed another one.
  constexpr std::size_t kN = 45;
  const SplitIndices split = train_val_split_indices(kN, 0.8, 1234);
  EXPECT_EQ(split.train.size(), 36u);  // round(0.8 * 45)
  EXPECT_EQ(split.val.size(), kN - 36u);
  std::vector<std::size_t> ids = split.train;
  ids.insert(ids.end(), split.val.begin(), split.val.end());
  std::sort(ids.begin(), ids.end());
  std::vector<std::size_t> all(kN);
  std::iota(all.begin(), all.end(), std::size_t{0});
  EXPECT_EQ(ids, all);

  const SplitIndices again = train_val_split_indices(kN, 0.8, 1234);
  EXPECT_EQ(again.train, split.train);
  EXPECT_EQ(again.val, split.val);
  const SplitIndices other = train_val_split_indices(kN, 0.8, 1235);
  EXPECT_NE(other.train, split.train);
}

TEST(WindowSplit, IndicesClampToNonEmptySides) {
  // 2 examples at an extreme fraction: both sides must stay non-empty.
  const SplitIndices lo = train_val_split_indices(2, 0.01, 7);
  EXPECT_EQ(lo.train.size(), 1u);
  EXPECT_EQ(lo.val.size(), 1u);
  const SplitIndices hi = train_val_split_indices(2, 0.99, 7);
  EXPECT_EQ(hi.train.size(), 1u);
  EXPECT_EQ(hi.val.size(), 1u);
  EXPECT_THROW((void)train_val_split_indices(1, 0.8, 7),
               std::invalid_argument);
  EXPECT_THROW((void)train_val_split_indices(10, 0.0, 7),
               std::invalid_argument);
  EXPECT_THROW((void)train_val_split_indices(10, 1.0, 7),
               std::invalid_argument);
}

}  // namespace
}  // namespace geonas::data
