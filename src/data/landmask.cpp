#include "data/landmask.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

#include "tensor/random.hpp"

namespace geonas::data {

namespace {

constexpr int kHarmonics = 12;

struct Harmonic {
  double amp, klat, klon, phase_lat, phase_lon;
};

std::vector<Harmonic> make_harmonics(std::uint64_t seed) {
  Rng rng(hash_combine(seed, 0xC0A57ULL));
  std::vector<Harmonic> hs(kHarmonics);
  for (int m = 0; m < kHarmonics; ++m) {
    // Low wavenumbers give continent-scale blobs; amplitude decays with
    // frequency so the coastline is smooth.
    const double klat = 1.0 + rng.uniform() * 3.0;
    const double klon = 1.0 + rng.uniform() * 4.0;
    hs[m] = {1.0 / (1.0 + 0.5 * (klat + klon)), klat, klon,
             rng.uniform(0.0, 2.0 * std::numbers::pi),
             rng.uniform(0.0, 2.0 * std::numbers::pi)};
  }
  return hs;
}

double elevation(const std::vector<Harmonic>& hs, double lat_deg,
                 double lon_deg) {
  const double lat = lat_deg * std::numbers::pi / 180.0;
  const double lon = lon_deg * std::numbers::pi / 180.0;
  double e = 0.0;
  for (const Harmonic& h : hs) {
    e += h.amp * std::sin(h.klat * lat + h.phase_lat) *
         std::cos(h.klon * lon + h.phase_lon);
  }
  return e;
}

}  // namespace

LandMask::LandMask(const Grid& grid, std::uint64_t seed, double land_fraction)
    : grid_(grid), land_(grid.cells(), 0) {
  if (grid.nlat == 0 || grid.nlon == 0) {
    throw std::invalid_argument("LandMask: grid " + std::to_string(grid.nlat) +
                                "x" + std::to_string(grid.nlon) +
                                " (nlat x nlon) has no cells");
  }
  if (land_fraction < 0.0 || land_fraction >= 1.0) {
    throw std::invalid_argument("LandMask: land_fraction must be in [0, 1)");
  }
  const auto hs = make_harmonics(seed);

  // Compute the elevation of every cell, then pick the threshold as a
  // quantile over non-Antarctic cells, discounting the always-land cap so
  // the total land fraction hits the request.
  std::vector<double> elev(grid.cells());
  std::vector<double> sorted;
  sorted.reserve(grid.cells());
  std::size_t cap_cells = 0;
  for (std::size_t i = 0; i < grid.nlat; ++i) {
    const bool antarctic = grid.lat_of(i) < -78.0;
    for (std::size_t j = 0; j < grid.nlon; ++j) {
      elev[grid.index(i, j)] = elevation(hs, grid.lat_of(i), grid.lon_of(j));
      if (antarctic) {
        ++cap_cells;
      } else {
        sorted.push_back(elev[grid.index(i, j)]);
      }
    }
  }
  const double want_land =
      std::max(0.0, land_fraction * static_cast<double>(grid.cells()) -
                        static_cast<double>(cap_cells));
  const auto cut = static_cast<std::size_t>(
      std::max(0.0, static_cast<double>(sorted.size()) - want_land));
  const std::size_t nth = std::min(cut, sorted.size() - 1);
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(nth),
                   sorted.end());
  const double threshold = sorted[nth];

  for (std::size_t i = 0; i < grid.nlat; ++i) {
    const bool antarctic = grid.lat_of(i) < -78.0;
    for (std::size_t j = 0; j < grid.nlon; ++j) {
      const std::size_t cell = grid.index(i, j);
      land_[cell] = (antarctic || elev[cell] > threshold) ? 1 : 0;
    }
  }
  ocean_cells_.reserve(grid.cells());
  for (std::size_t cell = 0; cell < grid.cells(); ++cell) {
    if (!land_[cell]) ocean_cells_.push_back(cell);
  }
  if (ocean_cells_.empty()) {
    throw std::domain_error("LandMask: mask left no ocean cells");
  }
}

std::vector<double> LandMask::flatten(std::span<const double> full) const {
  if (full.size() != grid_.cells()) {
    throw std::invalid_argument("LandMask::flatten: field size mismatch");
  }
  std::vector<double> out(ocean_cells_.size());
  for (std::size_t k = 0; k < ocean_cells_.size(); ++k) {
    out[k] = full[ocean_cells_[k]];
  }
  return out;
}

std::vector<double> LandMask::unflatten(std::span<const double> ocean,
                                        double land_fill) const {
  if (ocean.size() != ocean_cells_.size()) {
    throw std::invalid_argument("LandMask::unflatten: field size mismatch");
  }
  std::vector<double> out(grid_.cells(), land_fill);
  for (std::size_t k = 0; k < ocean_cells_.size(); ++k) {
    out[ocean_cells_[k]] = ocean[k];
  }
  return out;
}

std::vector<std::size_t> LandMask::ocean_positions_in_region(
    const Region& region) const {
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < ocean_cells_.size(); ++k) {
    const std::size_t cell = ocean_cells_[k];
    const std::size_t i = cell / grid_.nlon;
    const std::size_t j = cell % grid_.nlon;
    if (region.contains(grid_.lat_of(i), grid_.lon_of(j))) out.push_back(k);
  }
  return out;
}

}  // namespace geonas::data
