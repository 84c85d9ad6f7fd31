// Procedural land/ocean mask.
//
// The NOAA record masks out land cells before flattening each snapshot to
// an RZ-dimensional ocean vector (paper §II-A). Our mask is a smooth,
// seed-deterministic "elevation" field (a fixed bank of low-frequency
// spherical harmonics) thresholded to a target land fraction, plus a polar
// Antarctic cap — continent-like blobs at any grid resolution, with the
// same coastline at every resolution for a given seed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/grid.hpp"

namespace geonas::data {

class LandMask {
 public:
  /// Builds a mask with approximately `land_fraction` of cells on land.
  /// Throws std::invalid_argument for a grid without rows or columns.
  explicit LandMask(const Grid& grid, std::uint64_t seed = 7,
                    double land_fraction = 0.30);

  [[nodiscard]] const Grid& grid() const noexcept { return grid_; }
  [[nodiscard]] bool is_land(std::size_t ilat, std::size_t ilon) const noexcept {
    return land_[grid_.index(ilat, ilon)] != 0;
  }
  [[nodiscard]] bool is_land_cell(std::size_t cell) const noexcept {
    return land_[cell] != 0;
  }

  /// Number of ocean cells Nh (the flattened snapshot dimension).
  [[nodiscard]] std::size_t ocean_count() const noexcept {
    return ocean_cells_.size();
  }
  [[nodiscard]] std::size_t land_count() const noexcept {
    return grid_.cells() - ocean_cells_.size();
  }
  /// Flattened full-grid indices of the ocean cells, ascending.
  [[nodiscard]] const std::vector<std::size_t>& ocean_cells() const noexcept {
    return ocean_cells_;
  }

  /// Extracts the ocean cells of a full-grid field into an Nh-vector.
  [[nodiscard]] std::vector<double> flatten(
      std::span<const double> full_field) const;

  /// Scatters an Nh-vector back onto the full grid; land cells get
  /// `land_fill`.
  [[nodiscard]] std::vector<double> unflatten(
      std::span<const double> ocean_field, double land_fill = 0.0) const;

  /// Positions within the flattened ocean vector of the ocean cells lying
  /// inside `region` (used for Eastern-Pacific RMSE in Table I).
  [[nodiscard]] std::vector<std::size_t> ocean_positions_in_region(
      const Region& region) const;

 private:
  Grid grid_;
  std::vector<std::uint8_t> land_;
  std::vector<std::size_t> ocean_cells_;
};

}  // namespace geonas::data
