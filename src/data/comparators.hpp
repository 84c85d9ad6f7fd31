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
// comparisons with the same qualitative outcome. Each error structure is
// one calibration of named constants in comparators.cpp (DESIGN.md §1),
// its own realization seed included, so a surrogate takes only the truth.
#pragma once

#include "data/calendar.hpp"
#include "data/sst.hpp"

namespace geonas::data {

class CESMSurrogate {
 public:
  explicit CESMSurrogate(const SyntheticSST& truth);

  [[nodiscard]] double value(double lat, double lon, std::size_t week) const;
  /// Full-grid run at `week`; each entry is bitwise equal to value() at
  /// that cell's centre. Reads the week's modes once and the truth's
  /// seasonal and eddy terms through their grid overloads.
  [[nodiscard]] std::vector<double> field(const Grid& grid,
                                          std::size_t week) const;
  /// Ocean-flattened snapshots, same layout as SyntheticSST::snapshots.
  [[nodiscard]] Matrix snapshots(const LandMask& mask, std::size_t week0,
                                 std::size_t count) const;

 private:
  /// The run's own climate modes at a week: the damped amplitude times
  /// the time-offset ENSO and teleconnection indices.
  struct Modes {
    double enso, tele;
  };

  [[nodiscard]] double bias(double lat, double lon) const noexcept;
  [[nodiscard]] Modes modes(std::size_t week) const;
  /// The run at a cell, from its week's modes and the truth's seasonal
  /// and eddy terms there (field() reads those for the whole grid).
  [[nodiscard]] double compose(double lat, double lon, std::size_t week,
                               const Modes& modes, double seasonal,
                               double eddy) const;

  const SyntheticSST* truth_;
};

class HYCOMSurrogate {
 public:
  explicit HYCOMSurrogate(const SyntheticSST& truth);

  [[nodiscard]] double value(double lat, double lon, std::size_t week) const;
  /// Full-grid forecast at `week`; each entry is bitwise equal to value()
  /// at that cell's centre. Reads the truth once, through
  /// SyntheticSST::field(), so it runs that call's kernel-pool split, and
  /// its error waves once, through SyntheticSST::eddy(grid, ...).
  [[nodiscard]] std::vector<double> field(const Grid& grid,
                                          std::size_t week) const;
  [[nodiscard]] Matrix snapshots(const LandMask& mask, std::size_t week0,
                                 std::size_t count) const;

  /// First snapshot week with HYCOM data (2015-04-05).
  [[nodiscard]] static std::size_t first_available_week();
  /// Last snapshot week with HYCOM data (2018-06-24).
  [[nodiscard]] static std::size_t last_available_week();

 private:
  /// The forecast at a cell whose truth reads `truth` and whose
  /// error-wave realization reads `eddy` in `week`.
  [[nodiscard]] double forecast(double truth, double eddy, double lat,
                                double lon, std::size_t week) const;

  const SyntheticSST* truth_;
};

}  // namespace geonas::data
