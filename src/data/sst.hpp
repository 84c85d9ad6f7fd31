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
// Every path evaluates one split of the field into per-location terms
// (CellTerms) and per-week terms (WeekTerms): value(), field(),
// snapshots() and the component functions below compose the same terms,
// so a (cell, week) gets the same bits whichever path asks for it.
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

struct SSTOptions {
  std::uint64_t seed = 2020;
  double seasonal_amplitude = 6.5;   // deg C at high latitude
  double semiannual_amplitude = 0.9;
  double enso_amplitude = 0.7;       // deg C at pattern center
  /// Lorenz-63 time units per week for the chaotic climate indices; sets
  /// the predictability horizon (Lyapunov time ~ 1.1/chaos_rate weeks).
  double chaos_rate = 0.02;
  double enso_envelope_growth = 1.2e-4;  // amplitude growth per week
  double tele_amplitude = 1.0;       // teleconnection mode, deg C at center
  double trend_per_decade = 0.13;    // deg C per decade at the equator
  /// Eddy-amplitude AR(1) weekly autocorrelation (1 = frozen amplitudes).
  double eddy_ar1 = 0.93;
  double eddy_modulation = 0.55;     // relative amplitude-modulation depth
  double eddy_amplitude = 0.85;      // total RMS of the eddy field
  double noise_sigma = 0.12;         // white measurement noise
  int eddy_waves = 48;               // traveling waves in the eddy bank
};

class SyntheticSST {
 public:
  explicit SyntheticSST(SSTOptions options = SSTOptions{});

  [[nodiscard]] const SSTOptions& options() const noexcept { return opts_; }

  /// Temperature at an exact location and snapshot week (deg C).
  [[nodiscard]] double value(double lat, double lon, std::size_t week) const;

  /// Full-grid field at `week`, row-major [nlat x nlon] (land cells get
  /// ordinary values; apply a LandMask to discard them). Each entry is
  /// bitwise equal to value() at that cell's centre.
  ///
  /// Threading: as snapshots() — the grid rows are split over the kernel
  /// pool after the caches have grown on the calling thread.
  [[nodiscard]] std::vector<double> field(const Grid& grid,
                                          std::size_t week) const;

  /// Ocean-flattened snapshot matrix S in R^{Nh x count} for weeks
  /// [week0, week0 + count) — the paper's eq. (1) layout. Entry (k, c) is
  /// bitwise equal to this instance's value() at ocean cell k in week
  /// week0 + c.
  ///
  /// Threading: the lazy caches (wave bank, chaotic indices, eddy
  /// amplitude series) grow on the calling thread, week by week; then the
  /// ocean rows are split over the kernel pool (hpc::parallel_for), whose
  /// workers only read. The result is the same at every kernel thread
  /// count. Like every member, it must not run concurrently with another
  /// call on the same instance: the caches are unsynchronized state.
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
  /// own realizations); pass opts_.seed for the truth realization.
  [[nodiscard]] double eddy(double lat, double lon, double week_time,
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
    // Weekly AR(1) amplitude factors, one series per wave (lazily grown).
    std::vector<std::vector<double>> amp_series;
  };
  /// The Lorenz-63 record behind the chaotic indices (lazily grown).
  struct ChaosRecord {
    std::array<double, 3> state{};  // the integrator, at the next sample
    double x_mean = 0.0, x_scale = 1.0, y_mean = 0.0, y_scale = 1.0;
    std::vector<double> enso;  // standardized weekly x samples
    std::vector<double> y;     // standardized weekly y samples
    std::vector<double> tele;  // y samples, offset in time
  };
  // The split of value() into terms; defined in sst.cpp.
  struct CellTerms;  // the terms that depend on the location only
  struct WeekTerms;  // the terms that depend on the week only
  struct WaveWeek;   // one eddy wave's amplitude and phase advance at a week
  struct LatLon;

  [[nodiscard]] const WaveBank& waves_for(std::uint64_t realization_seed) const;
  void ensure_amp_series(const WaveBank& bank, std::size_t weeks) const;
  /// Lazily integrates the Lorenz system out to at least `weeks`.
  void ensure_chaos_series(std::size_t weeks) const;

  /// Each wave's WaveWeek at `week_time`; grows the bank's amplitude
  /// series as far as that needs.
  void wave_weeks(const WaveBank& bank, double week_time,
                  std::span<WaveWeek> out) const;
  /// Spatial phase 2π(k·x) of each wave at a location.
  static void wave_phases(const WaveBank& bank, double lat, double lon,
                          std::span<double> out) noexcept;
  /// The unscaled eddy field: Σ a(t)·amp·sin(2π(k·x) − ω·t + phase).
  [[nodiscard]] static double eddy_sum(const WaveBank& bank,
                                       std::span<const double> phases,
                                       std::span<const WaveWeek> waves) noexcept;

  [[nodiscard]] CellTerms cell_terms(double lat, double lon) const noexcept;
  /// Fills `waves` too; grows the lazy caches as far as `week` needs.
  [[nodiscard]] WeekTerms week_terms(const WaveBank& bank, std::size_t week,
                                     std::span<WaveWeek> waves) const;
  /// value() from its terms.
  [[nodiscard]] double combine(const WaveBank& bank, const CellTerms& cell,
                               std::span<const double> phases,
                               const WeekTerms& week,
                               std::span<const WaveWeek> waves) const noexcept;
  /// The one evaluation path: value() of every point at weeks
  /// [week0, week0 + count) into `out`, row-major [points x count].
  void evaluate(std::span<const LatLon> points, std::size_t week0,
                std::size_t count, std::span<double> out) const;

  SSTOptions opts_;
  mutable std::vector<std::pair<std::uint64_t, WaveBank>> wave_cache_;
  mutable ChaosRecord chaos_;
};

}  // namespace geonas::data
