// Grid geometry, calendar mapping, regions, and the procedural land mask.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "data/calendar.hpp"
#include "data/grid.hpp"
#include "data/landmask.hpp"

namespace geonas::data {
namespace {

TEST(Grid, PaperResolution) {
  const Grid g = Grid::paper();
  EXPECT_EQ(g.nlat, 180u);
  EXPECT_EQ(g.nlon, 360u);
  EXPECT_EQ(g.cells(), 64800u);
  EXPECT_DOUBLE_EQ(g.lat_of(0), -89.5);
  EXPECT_DOUBLE_EQ(g.lat_of(179), 89.5);
  EXPECT_DOUBLE_EQ(g.lon_of(0), 0.5);
  EXPECT_DOUBLE_EQ(g.lon_of(359), 359.5);
}

TEST(Grid, RowColLookupRoundTrip) {
  const Grid g = Grid::paper();
  for (std::size_t i : {0UL, 45UL, 90UL, 179UL}) {
    EXPECT_EQ(g.row_of_lat(g.lat_of(i)), i);
  }
  for (std::size_t j : {0UL, 100UL, 200UL, 359UL}) {
    EXPECT_EQ(g.col_of_lon(g.lon_of(j)), j);
  }
  // Wrapping and clamping.
  EXPECT_EQ(g.col_of_lon(-0.5), g.col_of_lon(359.5));
  EXPECT_EQ(g.row_of_lat(-95.0), 0u);
  EXPECT_EQ(g.row_of_lat(95.0), 179u);
}

TEST(Grid, ReducedGridCoversSameDomain) {
  const Grid g = Grid::reduced();
  EXPECT_DOUBLE_EQ(g.lat_of(0), -88.0);
  EXPECT_DOUBLE_EQ(g.lat_of(g.nlat - 1), 88.0);
}

TEST(Region, EasternPacificContainment) {
  const Region ep = Region::eastern_pacific();
  EXPECT_TRUE(ep.contains(0.0, 225.0));
  EXPECT_TRUE(ep.contains(-10.0, 200.0));
  EXPECT_FALSE(ep.contains(12.0, 225.0));
  EXPECT_FALSE(ep.contains(0.0, 199.0));
}

TEST(Region, CellsInRegionCount) {
  const Grid g = Grid::paper();
  const auto cells = cells_in_region(g, Region::eastern_pacific());
  // 20 degrees of latitude x 50 of longitude on a 1-degree grid, cell
  // centers strictly inside: 20 x 50 = 1000.
  EXPECT_EQ(cells.size(), 1000u);
}

TEST(Calendar, EpochIsWeekZero) {
  EXPECT_EQ(week_of_date(1981, 10, 22), 0);
  EXPECT_EQ(week_of_date(1981, 10, 28), 0);
  EXPECT_EQ(week_of_date(1981, 10, 29), 1);
  EXPECT_LT(week_of_date(1981, 10, 1), 0);
}

TEST(Calendar, PaperSplitBoundaries) {
  // Training covers weeks 0..426 (427 snapshots); week 427 — the first
  // test snapshot — begins around New Year 1990.
  EXPECT_EQ(week_of_date(1989, 12, 31), 427);
  EXPECT_EQ(date_of_week(426).substr(0, 4), "1989");
  EXPECT_EQ(date_of_week(427).substr(0, 4), "1989");  // starts Dec 28 1989
  EXPECT_EQ(date_of_week(428).substr(0, 4), "1990");
  // The last snapshot (index 1913) starts in the second half of June 2018,
  // consistent with the record ending 2018-06-30.
  EXPECT_EQ(date_of_week(kTotalSnapshots - 1).substr(0, 7), "2018-06");
  EXPECT_EQ(kTrainSnapshots + kTestSnapshots, kTotalSnapshots);
}

TEST(Calendar, TableIRange) {
  // Table I: Apr 5 2015 - Jun 24 2018.
  const long start = week_of_date(2015, 4, 5);
  const long end = week_of_date(2018, 6, 24);
  EXPECT_GT(start, static_cast<long>(kTrainSnapshots));
  EXPECT_LE(end, static_cast<long>(kTotalSnapshots));
  EXPECT_GT(end, start);
}

TEST(Calendar, DateOfWeekRoundTrip) {
  EXPECT_EQ(date_of_week(0), "1981-10-22");
  // Fig 6: the week starting June 14, 2015.
  const auto w = static_cast<std::size_t>(week_of_date(2015, 6, 14));
  const std::string date = date_of_week(w);
  EXPECT_EQ(date.substr(0, 7), "2015-06");
}

TEST(LandMask, FractionApproximatelyRequested) {
  const Grid g{45, 90};
  const LandMask mask(g, 7, 0.30);
  const double land_frac =
      static_cast<double>(mask.land_count()) / static_cast<double>(g.cells());
  EXPECT_NEAR(land_frac, 0.30, 0.05);  // Antarctic cap adds a little
  EXPECT_EQ(mask.ocean_count() + mask.land_count(), g.cells());
}

TEST(LandMask, DeterministicForSeed) {
  const Grid g{45, 90};
  const LandMask a(g, 7), b(g, 7), c(g, 8);
  EXPECT_EQ(a.ocean_cells(), b.ocean_cells());
  EXPECT_NE(a.ocean_cells(), c.ocean_cells());
}

TEST(LandMask, AntarcticCapIsLand) {
  const Grid g{45, 90};
  const LandMask mask(g, 7);
  for (std::size_t j = 0; j < g.nlon; ++j) {
    EXPECT_TRUE(mask.is_land(0, j));  // lat -88
  }
}

TEST(LandMask, FlattenUnflattenRoundTrip) {
  const Grid g{45, 90};
  const LandMask mask(g, 7);
  std::vector<double> full(g.cells());
  for (std::size_t i = 0; i < full.size(); ++i) {
    full[i] = static_cast<double>(i) * 0.1;
  }
  const auto ocean = mask.flatten(full);
  EXPECT_EQ(ocean.size(), mask.ocean_count());
  const auto back = mask.unflatten(ocean, -999.0);
  for (std::size_t cell = 0; cell < g.cells(); ++cell) {
    if (mask.is_land_cell(cell)) {
      EXPECT_DOUBLE_EQ(back[cell], -999.0);
    } else {
      EXPECT_DOUBLE_EQ(back[cell], full[cell]);
    }
  }
  EXPECT_THROW((void)mask.flatten(std::vector<double>(3)),
               std::invalid_argument);
}

TEST(LandMask, RegionPositionsConsistent) {
  const Grid g{45, 90};
  const LandMask mask(g, 7);
  const Region ep = Region::eastern_pacific();
  const auto positions = mask.ocean_positions_in_region(ep);
  EXPECT_FALSE(positions.empty());
  for (std::size_t pos : positions) {
    ASSERT_LT(pos, mask.ocean_count());
    const std::size_t cell = mask.ocean_cells()[pos];
    const std::size_t i = cell / g.nlon;
    const std::size_t j = cell % g.nlon;
    EXPECT_TRUE(ep.contains(g.lat_of(i), g.lon_of(j)));
  }
}

TEST(LandMask, RefusesEmptyGrid) {
  // Regression: an empty grid reached nth_element with an iterator past
  // the end of an empty vector (SIGSEGV from `geonas_cli generate --nlat 0`).
  for (const Grid g : {Grid{0, 90}, Grid{45, 0}}) {
    try {
      const LandMask mask(g, 7);
      FAIL() << "grid " << g.nlat << "x" << g.nlon << " accepted";
    } catch (const std::invalid_argument& e) {
      const std::string shape =
          std::to_string(g.nlat) + "x" + std::to_string(g.nlon);
      EXPECT_NE(std::string(e.what()).find(shape), std::string::npos)
          << e.what();
    }
  }
}

TEST(LandMask, SameCoastlineAcrossResolutions) {
  // The mask thresholds a fixed continuous elevation field, so a point
  // deep inside a continent is land at both resolutions.
  const LandMask coarse(Grid{45, 90}, 7);
  const LandMask fine(Grid{90, 180}, 7);
  std::size_t agree = 0, total = 0;
  const Grid cg{45, 90};
  for (std::size_t i = 4; i < cg.nlat; i += 3) {  // skip the Antarctic cap
    for (std::size_t j = 0; j < cg.nlon; j += 3) {
      const double lat = cg.lat_of(i), lon = cg.lon_of(j);
      const Grid fg{90, 180};
      const bool a = coarse.is_land(i, j);
      const bool b = fine.is_land(fg.row_of_lat(lat), fg.col_of_lon(lon));
      agree += a == b ? 1 : 0;
      ++total;
    }
  }
  // Quantile thresholds differ slightly between grids; demand 85+% match.
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(total), 0.85);
}

}  // namespace
}  // namespace geonas::data
