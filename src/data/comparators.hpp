// Process-based forecast comparator surrogates (CESM and HYCOM).
//
// The paper compares the POD-LSTM emulator against two process-based
// systems whose data products we cannot download offline:
//   * CESM — a century-scale coupled climate run: reproduces climatology,
//     seasonality and trend (paper: "picks up trends in the large-scale
//     features, i.e. modes 1 and 2") but cannot track the observed ENSO
//     phase, carries a coarse-grid interpolation bias, and its mesoscale
//     field is an independent realization. Eastern-Pacific weekly RMSE in
//     the paper: ~1.83-1.88 C.
//   * HYCOM — a 1/12-degree short-term forecast system: tracks the truth
//     closely with small phase/amplitude errors and interpolation noise.
//     Eastern-Pacific weekly RMSE in the paper: ~0.99-1.05 C; only
//     available Apr 5 2015 - Jun 24 2018.
// Both surrogates recompose the SyntheticSST truth components with the
// corresponding error structure, so Table I and Figs 5-7 exercise the same
// comparisons with the same qualitative outcome.
#pragma once

#include <cstdint>

#include "data/calendar.hpp"
#include "data/sst.hpp"

namespace geonas::data {

struct CESMOptions {
  std::uint64_t seed = 77;
  double seasonal_phase_error_weeks = 1.6;
  double bias_amplitude = 2.4;    // smooth regional interpolation bias
  double enso_phase_offset = 71.0;  // weeks; the run's own unsynchronized ENSO
  double enso_damping = 0.5;      // climate runs produce a weaker ENSO
  double noise_sigma = 0.5;       // regridding noise
};

class CESMSurrogate {
 public:
  CESMSurrogate(const SyntheticSST& truth, CESMOptions options = CESMOptions{});

  [[nodiscard]] double value(double lat, double lon, std::size_t week) const;
  [[nodiscard]] std::vector<double> field(const Grid& grid,
                                          std::size_t week) const;
  /// Ocean-flattened snapshots, same layout as SyntheticSST::snapshots.
  [[nodiscard]] Matrix snapshots(const LandMask& mask, std::size_t week0,
                                 std::size_t count) const;

 private:
  [[nodiscard]] double bias(double lat, double lon) const noexcept;

  const SyntheticSST* truth_;
  CESMOptions opts_;
};

struct HYCOMOptions {
  std::uint64_t seed = 99;
  double error_wave_amplitude = 0.78;  // smooth forecast-error field RMS
  double bias = 0.22;                  // small systematic offset
  double noise_sigma = 0.85;           // interpolation noise
  /// Weeks of phase error in the forecast's ENSO evolution — the dominant
  /// short-term forecast error source in the Eastern Pacific.
  double enso_lag_weeks = 1.0;
  /// Fraction of the lagged-index discrepancy that reaches the forecast
  /// (the assimilation corrects most of it).
  double enso_error_fraction = 0.6;
};

class HYCOMSurrogate {
 public:
  HYCOMSurrogate(const SyntheticSST& truth,
                 HYCOMOptions options = HYCOMOptions{});

  [[nodiscard]] double value(double lat, double lon, std::size_t week) const;
  /// Full-grid forecast at `week`; each entry is bitwise equal to value()
  /// at that cell's centre. Reads the truth once, through
  /// SyntheticSST::field(), so it runs that call's kernel-pool split.
  [[nodiscard]] std::vector<double> field(const Grid& grid,
                                          std::size_t week) const;
  [[nodiscard]] Matrix snapshots(const LandMask& mask, std::size_t week0,
                                 std::size_t count) const;

  /// First snapshot week with HYCOM data (2015-04-05).
  [[nodiscard]] static std::size_t first_available_week();
  /// Last snapshot week with HYCOM data (2018-06-24).
  [[nodiscard]] static std::size_t last_available_week();

 private:
  /// The forecast at a cell whose truth reads `truth` in `week`.
  [[nodiscard]] double forecast(double truth, double lat, double lon,
                                std::size_t week) const;

  const SyntheticSST* truth_;
  HYCOMOptions opts_;
};

}  // namespace geonas::data
