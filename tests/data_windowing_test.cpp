// WindowView zero-copy gathering vs the materializing make_windows path:
// the view must reproduce the classic tensor-pair dataset bitwise —
// including stride > 1 and a dropped trailing remainder — and the
// index-level split must reproduce train_val_split example-for-example.
#include <gtest/gtest.h>

#include <cstddef>
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

/// Hand-rolled reference gather, written independently of both
/// WindowView::gather and make_windows: example e's input step t is
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

TEST(WindowView, GatherMatchesReferenceAndMakeWindows) {
  const WindowConfig cfg{.window = 8, .stride = 1};
  const Matrix a = random_coeffs(5, 40, 77);
  const WindowView view(a, cfg);
  const WindowedDataset mat = make_windows(a, cfg);

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

TEST(WindowView, MaterializeIsBitwiseMakeWindows) {
  for (const std::size_t stride : {1u, 2u, 5u}) {
    const WindowConfig cfg{.window = 4, .stride = stride};
    const Matrix a = random_coeffs(6, 37, 80 + stride);
    const WindowedDataset via_view = WindowView(a, cfg).materialize();
    const WindowedDataset direct = make_windows(a, cfg);
    ASSERT_EQ(via_view.size(), direct.size());
    ASSERT_EQ(via_view.x, direct.x) << "stride " << stride;
    ASSERT_EQ(via_view.y, direct.y) << "stride " << stride;
  }
}

TEST(WindowView, RejectsBadConfigsLikeMakeWindows) {
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
  EXPECT_THROW(make_windows(a, {.window = 8, .stride = 1}),
               std::invalid_argument);
}

TEST(WindowSplit, IndicesReproduceTrainValSplitBitwise) {
  const WindowConfig cfg{.window = 8, .stride = 1};
  const Matrix a = random_coeffs(5, 60, 82);
  const WindowedDataset data = make_windows(a, cfg);
  const WindowView view(a, cfg);

  constexpr double kFraction = 0.8;
  constexpr std::uint64_t kSeed = 1234;
  const SplitDataset split = train_val_split(data, kFraction, kSeed);
  const SplitIndices idx =
      train_val_split_indices(data.size(), kFraction, kSeed);

  ASSERT_EQ(idx.train.size(), split.train.size());
  ASSERT_EQ(idx.val.size(), split.val.size());
  ASSERT_EQ(idx.train.size() + idx.val.size(), data.size());

  // Gathering through the view at the split indices must land on the
  // exact bytes of the materialized split, example for example.
  std::vector<double> got(cfg.window * a.rows());
  const auto check = [&](const std::vector<std::size_t>& ids,
                         const WindowedDataset& part) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      view.gather_x(ids[i], got);
      const auto xb = part.x.block(i);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), xb.begin(), xb.end()))
          << "train/val x example " << i;
      view.gather_y(ids[i], got);
      const auto yb = part.y.block(i);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), yb.begin(), yb.end()))
          << "train/val y example " << i;
    }
  };
  check(idx.train, split.train);
  check(idx.val, split.val);
}

TEST(WindowSplit, IndicesClampToNonEmptySides) {
  // 2 examples at an extreme fraction: both sides must stay non-empty,
  // exactly as train_val_split guarantees.
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
