// Synthetic SST statistical properties, comparator surrogates, and the
// windowed dataset machinery of paper §II-B.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/comparators.hpp"
#include "data/sst.hpp"
#include "data/windowing.hpp"
#include "io/binary.hpp"
#include "pod/pod.hpp"
#include "tensor/stats.hpp"

namespace geonas::data {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<std::uint64_t> bits(std::span<const double> values) {
  std::vector<std::uint64_t> out;
  out.reserve(values.size());
  for (const double x : values) out.push_back(bits(x));
  return out;
}

/// io's CRC-32 of a matrix's row-major bytes.
std::uint32_t crc_of(const Matrix& m) {
  return io::crc32_update(0, m.flat().data(), m.size() * sizeof(double));
}

TEST(SST, DeterministicForSeed) {
  const SyntheticSST a, b;
  EXPECT_DOUBLE_EQ(a.value(10.0, 200.0, 5), b.value(10.0, 200.0, 5));
  SSTOptions other;
  other.seed = 9999;
  const SyntheticSST c(other);
  EXPECT_NE(a.value(10.0, 200.0, 5), c.value(10.0, 200.0, 5));
}

TEST(SST, PhysicalTemperatureRange) {
  const SyntheticSST sst;
  for (std::size_t week : {0UL, 100UL, 1000UL, 1900UL}) {
    for (double lat : {-80.0, -40.0, 0.0, 40.0, 80.0}) {
      for (double lon : {10.0, 120.0, 235.0, 350.0}) {
        const double t = sst.value(lat, lon, week);
        EXPECT_GE(t, -1.9);
        EXPECT_LE(t, 40.0);
      }
    }
  }
}

TEST(SST, EquatorWarmerThanPoles) {
  const SyntheticSST sst;
  double eq = 0.0, pole = 0.0;
  for (std::size_t w = 0; w < 52; ++w) {
    eq += sst.value(0.5, 180.0, w);
    pole += sst.value(75.0, 180.0, w);
  }
  EXPECT_GT(eq / 52.0, pole / 52.0 + 10.0);
}

TEST(SST, SeasonalCycleAntiphaseAcrossHemispheres) {
  const SyntheticSST sst;
  // Correlation of the seasonal signal at +/-50 degrees over 4 years.
  std::vector<double> north, south;
  for (std::size_t w = 0; w < 208; ++w) {
    north.push_back(sst.seasonal(50.0, 180.0, static_cast<double>(w)));
    south.push_back(sst.seasonal(-50.0, 180.0, static_cast<double>(w)));
  }
  EXPECT_LT(pearson(north, south), -0.8);
}

TEST(SST, SeasonalPeriodicity) {
  const SyntheticSST sst;
  // One year later the seasonal component nearly repeats.
  const double a = sst.seasonal(45.0, 180.0, 10.0);
  const double b = sst.seasonal(45.0, 180.0, 10.0 + kWeeksPerYear);
  EXPECT_NEAR(a, b, 1e-9);
}

TEST(SST, TrendIsSecular) {
  const SyntheticSST sst;
  EXPECT_GT(sst.trend(0.0, 1900.0), sst.trend(0.0, 0.0));
  // Roughly kTrendPerDecade at the equator over a decade.
  const double decade = sst.trend(0.0, 10.0 * kWeeksPerYear) - sst.trend(0.0, 0.0);
  EXPECT_NEAR(decade, kTrendPerDecade, 0.05);
}

TEST(SST, EnsoPatternLocalizedInEasternPacific) {
  const SyntheticSST sst;
  EXPECT_GT(sst.enso_pattern(0.0, 235.0), 0.9);
  EXPECT_LT(sst.enso_pattern(0.0, 100.0), 0.01);
  EXPECT_LT(sst.enso_pattern(50.0, 235.0), 0.01);
}

TEST(SST, EddyRealizationsDiffer) {
  const SyntheticSST sst;
  double diff = 0.0;
  for (std::size_t w = 0; w < 20; ++w) {
    diff += std::abs(sst.eddy(30.0, 150.0, static_cast<double>(w), 1) -
                     sst.eddy(30.0, 150.0, static_cast<double>(w), 2));
  }
  EXPECT_GT(diff, 0.1);
}

TEST(SST, FiveModesCaptureMostVariance) {
  // The paper's Nr = 5 captures ~92 % of the NOAA variance; the synthetic
  // field must have the same low-rank structure (85-99 %).
  const Grid grid{45, 90};
  const LandMask mask(grid, 7);
  const SyntheticSST sst;
  const Matrix snaps = sst.snapshots(mask, 0, 160);
  pod::POD p;
  p.fit(snaps, {.num_modes = 5});
  const double e5 = p.energy_captured(5);
  EXPECT_GT(e5, 0.85);
  EXPECT_LT(e5, 0.999);
  // Higher modes are increasingly stochastic: mode energies decay.
  const auto& ev = p.eigenvalues();
  EXPECT_GT(ev[0], ev[4]);
  EXPECT_GT(ev[4], ev[20]);
}

TEST(SST, SnapshotMatrixLayout) {
  const Grid grid{45, 90};
  const LandMask mask(grid, 7);
  const SyntheticSST sst;
  const Matrix snaps = sst.snapshots(mask, 3, 4);
  EXPECT_EQ(snaps.rows(), mask.ocean_count());
  EXPECT_EQ(snaps.cols(), 4u);
  // Column c is the ocean part of week 3 + c's field, bit for bit.
  Matrix expected(mask.ocean_count(), 4);
  for (std::size_t c = 0; c < 4; ++c) {
    expected.set_col(c, mask.flatten(sst.field(grid, 3 + c)));
  }
  EXPECT_EQ(bits(snaps.flat()), bits(expected.flat()));
}

TEST(SST, SnapshotBytesPinned) {
  // CRC-32 of the row-major snapshot bytes, re-pinned when the seasonal
  // cycle and the eddy bank became one dot product of a cell half and a
  // week half (angle addition; the entries moved by at most 7.4e-13 C).
  // These bytes feed the POD basis, both pipeline R² values and every
  // campaign digest, so a change here is a change to all of them. The
  // digests hold this libm's sin/cos/exp/log results (glibc, x86-64).
  const LandMask mask(Grid{45, 90}, 7);
  EXPECT_EQ(crc_of(SyntheticSST().snapshots(mask, 0, 427)), 0xb393fc1bu);
  EXPECT_EQ(crc_of(SyntheticSST().snapshots(mask, 1850, 64)), 0x6963f896u);
}

TEST(SST, ValueIndependentOfQueryHistory) {
  // Regression: a query past the Lorenz record's horizon used to
  // re-integrate and re-standardize the whole record, so week 10 read
  // differently once an instance had answered a query for week 2500 or
  // 5000.
  const SyntheticSST fresh, after_2500, after_5000;
  (void)after_2500.value(10.0, 200.0, 2500);
  (void)after_5000.value(10.0, 200.0, 5000);
  const double week10 = fresh.value(10.0, 200.0, 10);
  EXPECT_DOUBLE_EQ(week10, 28.292463632961084);
  EXPECT_EQ(bits(after_2500.value(10.0, 200.0, 10)), bits(week10));
  EXPECT_EQ(bits(after_5000.value(10.0, 200.0, 10)), bits(week10));
  // Weeks past the first window do not depend on the path to them either.
  const SyntheticSST direct;
  for (const double t : {2998.5, 3400.25, 4999.0}) {
    EXPECT_EQ(bits(direct.enso_index(t)), bits(after_2500.enso_index(t)));
    EXPECT_EQ(bits(direct.tele_index(t)), bits(after_2500.tele_index(t)));
  }
}

TEST(SST, SnapshotsIndependentOfQueryHistory) {
  // Regression: each eddy wave's AR(1) amplitude series was stored as
  // 1 + deviation, and an extension restarted the recursion from
  // s.back() - 1, which rounds. An instance whose series had grown to week
  // 3993 in one step then read differently from a fresh one growing them
  // week by week (first at week 21, in 247,282 of these entries).
  const LandMask mask(Grid{20, 40}, 7);
  const SyntheticSST warm, fresh;
  (void)warm.value(10.0, 200.0, 3990);
  const Matrix a = warm.snapshots(mask, 0, 4000);
  const Matrix b = fresh.snapshots(mask, 0, 4000);
  EXPECT_EQ(bits(a.flat()), bits(b.flat()));
}

TEST(Comparators, HycomFieldMatchesValue) {
  // field() reads the truth once per week through SyntheticSST::field();
  // every entry must still be value() at that cell, bit for bit. On this
  // grid the truth field clears the parallel_for threshold, so it is split
  // over the kernel pool when that has more than one thread.
  const Grid grid{30, 60};
  const SyntheticSST sst;
  const HYCOMSurrogate hycom(sst);
  const std::size_t week = HYCOMSurrogate::first_available_week();
  const std::vector<double> field = hycom.field(grid, week);
  ASSERT_EQ(field.size(), grid.cells());
  std::vector<double> expected;
  for (std::size_t i = 0; i < grid.nlat; ++i) {
    for (std::size_t j = 0; j < grid.nlon; ++j) {
      expected.push_back(hycom.value(grid.lat_of(i), grid.lon_of(j), week));
    }
  }
  EXPECT_EQ(bits(field), bits(expected));
}

TEST(Comparators, CesmFieldMatchesValue) {
  // field() reads the week's modes once and the truth's seasonal and eddy
  // terms through their grid overloads (one week half, one share per row
  // and column); every entry must still be value() at that cell, bit for
  // bit.
  const Grid grid{30, 60};
  const SyntheticSST sst;
  const CESMSurrogate cesm(sst);
  const std::size_t week = HYCOMSurrogate::first_available_week();
  const std::vector<double> field = cesm.field(grid, week);
  ASSERT_EQ(field.size(), grid.cells());
  std::vector<double> expected;
  for (std::size_t i = 0; i < grid.nlat; ++i) {
    for (std::size_t j = 0; j < grid.nlon; ++j) {
      expected.push_back(cesm.value(grid.lat_of(i), grid.lon_of(j), week));
    }
  }
  EXPECT_EQ(bits(field), bits(expected));
}

TEST(Comparators, HycomTracksTruthCloselyInEasternPacific) {
  const SyntheticSST sst;
  const HYCOMSurrogate hycom(sst);
  const CESMSurrogate cesm(sst);

  // Sample the full Table-I assessment box (-10..10 lat, 200..250 lon).
  const std::size_t w0 = HYCOMSurrogate::first_available_week();
  std::vector<double> truth, hy, ce;
  for (std::size_t w = w0; w < w0 + 30; ++w) {
    for (double lat = -8.0; lat <= 8.0; lat += 4.0) {
      for (double lon = 202.0; lon <= 248.0; lon += 7.5) {
        truth.push_back(sst.value(lat, lon, w));
        hy.push_back(hycom.value(lat, lon, w));
        ce.push_back(cesm.value(lat, lon, w));
      }
    }
  }
  const double rmse_hycom = rmse(truth, hy);
  const double rmse_cesm = rmse(truth, ce);
  // Paper Table I ordering: HYCOM ~1.0 C, CESM ~1.85 C. This 30-week probe
  // sits in a low-error stretch of CESM's phase drift, so its band is
  // wider than the full-period Table I numbers.
  EXPECT_GT(rmse_cesm, rmse_hycom);
  EXPECT_GT(rmse_hycom, 0.4);
  EXPECT_LT(rmse_hycom, 1.8);
  EXPECT_GT(rmse_cesm, 1.0);
  EXPECT_LT(rmse_cesm, 3.0);
}

TEST(Comparators, HycomAvailabilityWindowMatchesPaper) {
  EXPECT_EQ(HYCOMSurrogate::first_available_week(),
            static_cast<std::size_t>(week_of_date(2015, 4, 5)));
  EXPECT_EQ(HYCOMSurrogate::last_available_week(),
            static_cast<std::size_t>(week_of_date(2018, 6, 24)));
  EXPECT_LT(HYCOMSurrogate::first_available_week(),
            HYCOMSurrogate::last_available_week());
}

TEST(Comparators, SnapshotShapes) {
  const Grid grid{45, 90};
  const LandMask mask(grid, 7);
  const SyntheticSST sst;
  const CESMSurrogate cesm(sst);
  const Matrix s = cesm.snapshots(mask, 100, 3);
  EXPECT_EQ(s.rows(), mask.ocean_count());
  EXPECT_EQ(s.cols(), 3u);
}

TEST(Comparators, FieldBytesPinned) {
  // CRC-32 of both comparators' full-grid fields in HYCOM's first
  // available week and 100 weeks later, one chain per comparator. The
  // comparators recompose the truth's components with their own error
  // constants, so these bytes hold every one of those constants and the
  // component calls they feed (Table I, Figs 5-7).
  const Grid grid{20, 40};
  const SyntheticSST sst;
  const CESMSurrogate cesm(sst);
  const HYCOMSurrogate hycom(sst);
  const std::size_t w0 = HYCOMSurrogate::first_available_week();
  std::uint32_t cesm_crc = 0, hycom_crc = 0;
  for (const std::size_t week : {w0, w0 + 100}) {
    const std::vector<double> c = cesm.field(grid, week);
    cesm_crc = io::crc32_update(cesm_crc, c.data(), c.size() * sizeof(double));
    const std::vector<double> h = hycom.field(grid, week);
    hycom_crc =
        io::crc32_update(hycom_crc, h.data(), h.size() * sizeof(double));
  }
  EXPECT_EQ(cesm_crc, 0xccc237c8u);
  EXPECT_EQ(hycom_crc, 0x946e11d0u);
}

TEST(Windowing, CountFormula) {
  EXPECT_EQ(window_count(427, {.window = 8, .stride = 1}), 412u);
  EXPECT_EQ(window_count(16, {.window = 8, .stride = 1}), 1u);
  EXPECT_EQ(window_count(15, {.window = 8, .stride = 1}), 0u);
  EXPECT_EQ(window_count(20, {.window = 4, .stride = 2}), 7u);
}

TEST(Windowing, InputOutputAlignment) {
  // Coefficients: mode m at time t = 100*m + t, easy to verify.
  const std::size_t nr = 3, ns = 20, k = 4;
  Matrix coeffs(nr, ns);
  for (std::size_t m = 0; m < nr; ++m) {
    for (std::size_t t = 0; t < ns; ++t) {
      coeffs(m, t) = 100.0 * static_cast<double>(m) + static_cast<double>(t);
    }
  }
  const WindowedDataset set =
      WindowView(coeffs, {.window = k, .stride = 1}).materialize();
  EXPECT_EQ(set.size(), ns - 2 * k + 1);
  // Example e, step t, mode m: input = coeffs(m, e + t).
  EXPECT_DOUBLE_EQ(set.x(2, 1, 1), 103.0);
  // Output shifts by K.
  EXPECT_DOUBLE_EQ(set.y(2, 1, 1), 107.0);
  const Matrix too_short(2, 5);
  EXPECT_THROW(WindowView(too_short, {.window = 8}), std::invalid_argument);
}

TEST(Windowing, SplitSizesAndDisjointness) {
  Matrix coeffs(2, 60);
  for (std::size_t t = 0; t < 60; ++t) {
    coeffs(0, t) = static_cast<double>(t);
    coeffs(1, t) = static_cast<double>(t) * 2.0;
  }
  const WindowView view(coeffs, {.window = 5, .stride = 1});
  const SplitIndices split = train_val_split_indices(view.size(), 0.8, 99);
  EXPECT_EQ(split.train.size() + split.val.size(), view.size());
  const auto expected_train =
      static_cast<std::size_t>(0.8 * static_cast<double>(view.size()) + 0.5);
  EXPECT_EQ(split.train.size(), expected_train);

  // Every example must appear exactly once; identify each by its first
  // input value.
  std::vector<double> x(view.window() * view.features());
  std::vector<double> seen;
  for (const auto* side : {&split.train, &split.val}) {
    for (const std::size_t e : *side) {
      view.gather_x(e, x);
      seen.push_back(x[0]);
    }
  }
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_DOUBLE_EQ(seen[i], static_cast<double>(i));
  }
}

TEST(Windowing, StrideZeroRejected) {
  // Regression: window_count used to normalize stride 0 to 1 while the
  // window extraction multiplied by the raw stride, silently producing N
  // identical windows all starting at column 0.
  EXPECT_THROW((void)window_count(427, {.window = 8, .stride = 0}),
               std::invalid_argument);
  Matrix coeffs(2, 20);
  for (std::size_t t = 0; t < 20; ++t) {
    coeffs(0, t) = static_cast<double>(t);
    coeffs(1, t) = static_cast<double>(t) * 2.0;
  }
  EXPECT_THROW(WindowView(coeffs, {.window = 4, .stride = 0}),
               std::invalid_argument);
  // Window 0 is refused by name, not reported as a too-short series.
  try {
    (void)window_count(427, {.window = 0, .stride = 1});
    FAIL() << "window 0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("window K must be >= 1"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(WindowView(coeffs, {.window = 0, .stride = 1}),
               std::invalid_argument);
}

TEST(Windowing, SplitRejectsFractionExtremes) {
  // Regression: train_fraction == 1.0 used to round n_train to n,
  // constructing a zero-example validation set that downstream
  // evaluation divides by.
  Matrix coeffs(1, 30, 0.0);
  for (std::size_t t = 0; t < 30; ++t) coeffs(0, t) = static_cast<double>(t);
  const std::size_t n = WindowView(coeffs, {.window = 3}).size();
  EXPECT_THROW((void)train_val_split_indices(n, 1.0, 7),
               std::invalid_argument);
  EXPECT_THROW((void)train_val_split_indices(n, 0.0, 7),
               std::invalid_argument);
  EXPECT_THROW((void)train_val_split_indices(n, 1.5, 7),
               std::invalid_argument);
  EXPECT_THROW((void)train_val_split_indices(n, -0.2, 7),
               std::invalid_argument);
}

TEST(Windowing, SplitClampsToNonEmptySides) {
  // Valid-but-extreme fractions round to all-train / all-val at small n;
  // the clamp keeps one example on each side.
  Matrix coeffs(1, 12, 0.0);
  for (std::size_t t = 0; t < 12; ++t) coeffs(0, t) = static_cast<double>(t);
  const std::size_t n = WindowView(coeffs, {.window = 3}).size();  // 7
  const SplitIndices high = train_val_split_indices(n, 0.99, 7);
  EXPECT_EQ(high.train.size(), n - 1);
  EXPECT_EQ(high.val.size(), 1u);
  const SplitIndices low = train_val_split_indices(n, 0.01, 7);
  EXPECT_EQ(low.train.size(), 1u);
  EXPECT_EQ(low.val.size(), n - 1);

  // Fewer than 2 windows cannot produce two non-empty splits.
  Matrix tiny(1, 6, 0.0);
  const std::size_t one = WindowView(tiny, {.window = 3}).size();  // 1
  EXPECT_THROW((void)train_val_split_indices(one, 0.8, 7),
               std::invalid_argument);
}

TEST(Windowing, SplitDeterministicBySeed) {
  Matrix coeffs(1, 30, 0.0);
  for (std::size_t t = 0; t < 30; ++t) coeffs(0, t) = static_cast<double>(t);
  const std::size_t n = WindowView(coeffs, {.window = 3}).size();
  const SplitIndices a = train_val_split_indices(n, 0.8, 5);
  const SplitIndices b = train_val_split_indices(n, 0.8, 5);
  EXPECT_EQ(a.train, b.train);
  const SplitIndices c = train_val_split_indices(n, 0.8, 6);
  EXPECT_NE(a.train, c.train);
}

}  // namespace
}  // namespace geonas::data
