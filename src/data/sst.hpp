// Synthetic NOAA-OI-like weekly sea-surface-temperature generator.
//
// Substitute for the proprietary-download NOAA OI SST V2 record (see
// DESIGN.md §1). The generated field is a deterministic function of
// (lat, lon, week, seed) composed of:
//   * a latitudinal climatology (warm equator, cold poles),
//   * an annual + semi-annual seasonal cycle with hemisphere-antisymmetric
//     amplitude (the paper's "strong periodic structure"),
//   * an ENSO-like quasi-periodic mode localized in the eastern equatorial
//     Pacific (the Table I assessment region),
//   * a slow warming trend,
//   * mesoscale eddies: a fixed bank of traveling waves, stronger in
//     mid-latitudes, giving the increasingly stochastic higher POD modes
//     the paper describes ("mode 4 and beyond"),
//   * hash-based white measurement noise.
// The deterministic components are low-rank, so ~5 POD modes capture
// ~90 % of the centered variance — matching the paper's Nr = 5 setting.
//
// The substitute is defined by the statistics it reproduces at one
// calibration (DESIGN.md §1), so every amplitude, rate and the eddy
// bank's size is a named constant: the ones the comparators also read
// are below, the rest in sst.cpp. The seed is the only setting.
//
// The seasonal cycle and the eddy bank form one dot product per
// (cell, week): by angle addition, sin(ψ − ωt) = sin ψ·cos ωt −
// cos ψ·sin ωt, so each is a sum over terms that factor into a cell half
// (the ψ side, built from a grid row's and a grid column's shares) and a
// week half (the ωt side). value(), field(), snapshots() and the
// components seasonal() and eddy() compose the same halves with the same
// fixed-order dot, so a (cell, week) gets the same bits whichever path
// asks for it (DESIGN.md §5 "Data generation").
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "data/grid.hpp"
#include "data/landmask.hpp"
#include "tensor/matrix.hpp"

namespace geonas::data {

/// Mean tropical year in weeks; the seasonal cycle period.
inline constexpr double kWeeksPerYear = 52.1775;
/// ENSO mode amplitude at its pattern centre (deg C).
inline constexpr double kEnsoAmplitude = 0.7;
/// Teleconnection mode amplitude at its pattern centre (deg C).
inline constexpr double kTeleAmplitude = 1.0;
/// Secular warming at the equator (deg C per decade).
inline constexpr double kTrendPerDecade = 0.13;
/// Total RMS of the eddy field (deg C).
inline constexpr double kEddyAmplitude = 0.85;

struct SSTOptions {
  std::uint64_t seed = 2020;
};

class SyntheticSST {
 public:
  explicit SyntheticSST(SSTOptions options = SSTOptions{});

  /// Temperature at an exact location and snapshot week (deg C).
  [[nodiscard]] double value(double lat, double lon, std::size_t week) const;

  /// Full-grid field at `week`, row-major [nlat x nlon] (land cells get
  /// ordinary values; apply a LandMask to discard them). Each entry is
  /// bitwise equal to value() at that cell's centre.
  ///
  /// Threading: as snapshots() — the cells are split over the kernel pool
  /// after the caches have grown on the calling thread.
  [[nodiscard]] std::vector<double> field(const Grid& grid,
                                          std::size_t week) const;

  /// Ocean-flattened snapshot matrix S in R^{Nh x count} for weeks
  /// [week0, week0 + count) — the paper's eq. (1) layout. Entry (k, c) is
  /// bitwise equal to this instance's value() at ocean cell k in week
  /// week0 + c.
  ///
  /// Threading: the week half grows the lazy caches (wave bank, chaotic
  /// indices, eddy amplitude deviations) on the calling thread, week by
  /// week; then the ocean rows are split over the kernel pool
  /// (hpc::parallel_for), whose workers only read. The result is the same
  /// at every kernel thread count and does not depend on which weeks the
  /// instance was asked for before. Like every member, it must not run
  /// concurrently with another call on the same instance: the caches are
  /// unsynchronized state.
  [[nodiscard]] Matrix snapshots(const LandMask& mask, std::size_t week0,
                                 std::size_t count) const;

  // --- individual components, exposed so the CESM/HYCOM comparator
  // --- surrogates can recompose the field with controlled errors ---

  /// Time-mean zonal climatology.
  [[nodiscard]] double climatology(double lat) const noexcept;
  /// Annual + semi-annual cycle. The seasonal phase and amplitude vary
  /// with longitude (continental vs maritime response), so the periodic
  /// content spans several POD modes — as it does in the observed field.
  /// `phase_shift_weeks` lets comparators model phase error.
  [[nodiscard]] double seasonal(double lat, double lon, double week_time,
                                double phase_shift_weeks = 0.0) const noexcept;
  /// seasonal() at every cell centre of `grid`, row-major [nlat x nlon],
  /// each entry bitwise equal to seasonal() there: the week half is built
  /// once and each row's and column's share once, then each cell runs
  /// the cell half and the dot.
  [[nodiscard]] std::vector<double> seasonal(
      const Grid& grid, double week_time, double phase_shift_weeks) const;
  /// Secular warming trend.
  [[nodiscard]] double trend(double lat, double week_time) const noexcept;
  /// ENSO index (dimensionless, O(1)): the x-component of a slowed
  /// Lorenz-63 system — deterministic chaos that is short-term predictable
  /// by nonlinear models (the LSTM) but defeats finite-tap linear AR
  /// prediction, with an amplitude envelope that strengthens through the
  /// test decades (a post-training regime change that additionally defeats
  /// tree regressors). Negative times clamp to 0.
  [[nodiscard]] double enso_index(double week_time) const;
  /// A second chaotic climate mode (the Lorenz y-component, offset in
  /// time) loading on a mid-latitude North-Pacific pattern.
  [[nodiscard]] double tele_index(double week_time) const;
  [[nodiscard]] double tele_pattern(double lat, double lon) const noexcept;
  /// ENSO spatial loading (1 at pattern center, ~0 elsewhere).
  [[nodiscard]] double enso_pattern(double lat, double lon) const noexcept;
  /// Mesoscale eddy field for an alternative seed (comparators draw their
  /// own realizations); the truth's own seed gives the truth realization.
  [[nodiscard]] double eddy(double lat, double lon, double week_time,
                            std::uint64_t realization_seed) const;
  /// eddy() at every cell centre of `grid`, row-major [nlat x nlon], each
  /// entry bitwise equal to eddy() there, built as seasonal(grid, ...) is.
  [[nodiscard]] std::vector<double> eddy(const Grid& grid, double week_time,
                                         std::uint64_t realization_seed) const;
  /// Hash-based white noise for a given cell/week (truth realization).
  [[nodiscard]] double noise(double lat, double lon, std::size_t week) const;

 private:
  struct Wave {
    double amp, klat, klon, omega, phase;
    std::uint64_t amp_seed;  // stream for the AR(1) amplitude modulation
  };
  struct WaveBank {
    std::vector<Wave> waves;
    // Weekly AR(1) deviations of each wave's amplitude factor from 1, one
    // series per wave (lazily grown).
    std::vector<std::vector<double>> amp_dev;
  };
  /// The Lorenz-63 record behind the chaotic indices (lazily grown).
  struct ChaosRecord {
    std::array<double, 3> state{};  // the integrator, at the next sample
    double x_mean = 0.0, x_scale = 1.0, y_mean = 0.0, y_scale = 1.0;
    std::vector<double> enso;  // standardized weekly x samples
    std::vector<double> y;     // standardized weekly y samples
    std::vector<double> tele;  // y samples, offset in time
  };
  /// A point of evaluate(): indices into its distinct lats and lons.
  struct RowCol {
    std::size_t row, col;
  };

  [[nodiscard]] const WaveBank& waves_for(std::uint64_t realization_seed) const;
  void ensure_amp_series(const WaveBank& bank, std::size_t weeks) const;
  /// Lazily integrates the Lorenz system out to at least `weeks`.
  void ensure_chaos_series(std::size_t weeks) const;

  // The eddy halves: two terms per wave, wave by wave.
  /// A latitude's share of the cell half: envelope·sin and envelope·cos
  /// of each wave's 2π·klat·lat/180 + phase.
  static void eddy_lat_half(const WaveBank& bank, double lat, double envelope,
                            std::span<double> out) noexcept;
  /// A longitude's share of the cell half: sin and cos of each wave's
  /// 2π·klon·lon/360.
  static void eddy_lon_half(const WaveBank& bank, double lon,
                            std::span<double> out) noexcept;
  /// The week half at `week_time` into out[k·stride]: a(t)·amp·cos(ω·t)
  /// and −a(t)·amp·sin(ω·t) of each wave. Grows the bank's amplitude
  /// deviations as far as that needs.
  void eddy_week_half(const WaveBank& bank, double week_time, double* out,
                      std::size_t stride) const;

  /// The one evaluation path: value() at every point at weeks
  /// [week0, week0 + count) into `out`, row-major [points x count]. Point
  /// r lies at (lats[points[r].row], lons[points[r].col]).
  void evaluate(std::span<const double> lats, std::span<const double> lons,
                std::span<const RowCol> points, std::size_t week0,
                std::size_t count, std::span<double> out) const;

  SSTOptions opts_;
  mutable std::vector<std::pair<std::uint64_t, WaveBank>> wave_cache_;
  mutable ChaosRecord chaos_;
};

}  // namespace geonas::data
