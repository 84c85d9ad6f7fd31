#include "data/comparators.hpp"

#include <cmath>
#include <cstdint>
#include <numbers>

#include "tensor/random.hpp"

namespace geonas::data {

namespace {

namespace cesm {
constexpr std::uint64_t kSeed = 77;
constexpr double kSeasonalPhaseErrorWeeks = 1.6;
constexpr double kBiasAmplitude = 2.4;  // smooth regional interpolation bias
/// Weeks; the run's own unsynchronized ENSO.
constexpr double kEnsoPhaseOffset = 71.0;
constexpr double kEnsoDamping = 0.5;  // climate runs produce a weaker ENSO
constexpr double kNoiseSigma = 0.5;   // regridding noise
}  // namespace cesm

namespace hycom {
constexpr std::uint64_t kSeed = 99;
constexpr double kErrorWaveAmplitude = 0.78;  // smooth forecast-error field RMS
constexpr double kBias = 0.22;                // small systematic offset
constexpr double kNoiseSigma = 0.85;          // interpolation noise
/// Weeks of phase error in the forecast's ENSO evolution — the dominant
/// short-term forecast error source in the Eastern Pacific.
constexpr double kEnsoLagWeeks = 1.0;
/// Fraction of the lagged-index discrepancy that reaches the forecast
/// (the assimilation corrects most of it).
constexpr double kEnsoErrorFraction = 0.6;
}  // namespace hycom

double hash_normal(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                   std::uint64_t c) {
  std::uint64_t h = hash_combine(hash_combine(seed, a), hash_combine(b, c));
  std::uint64_t s1 = splitmix64(h);
  std::uint64_t s2 = splitmix64(h);
  double u1 = static_cast<double>(s1 >> 11) * 0x1.0p-53;
  const double u2 = static_cast<double>(s2 >> 11) * 0x1.0p-53;
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

Matrix collect_snapshots(const auto& model, const LandMask& mask,
                         std::size_t week0, std::size_t count) {
  Matrix s(mask.ocean_count(), count);
  for (std::size_t c = 0; c < count; ++c) {
    const auto full = model.field(mask.grid(), week0 + c);
    s.set_col(c, mask.flatten(full));
  }
  return s;
}
}  // namespace

CESMSurrogate::CESMSurrogate(const SyntheticSST& truth) : truth_(&truth) {}

double CESMSurrogate::bias(double lat, double lon) const noexcept {
  // Smooth, fixed-in-time regional bias from coarse-grid interpolation,
  // plus the well-documented uniform warm bias of coupled-model tropical
  // SSTs (~1 C).
  const double u = lat * std::numbers::pi / 180.0;
  const double v = lon * std::numbers::pi / 180.0;
  return cesm::kBiasAmplitude *
             (0.55 * std::sin(2.0 * u + 0.4) * std::cos(1.5 * v + 1.1) +
              0.45 * std::sin(3.1 * u - 0.8) * std::sin(2.3 * v + 0.2)) +
         1.0;
}

CESMSurrogate::Modes CESMSurrogate::modes(std::size_t week) const {
  // The climate run's internal variability modes evolve on their own
  // (time-offset) trajectories, damped as coupled models typically are.
  const double t = static_cast<double>(week) + cesm::kEnsoPhaseOffset;
  return {.enso = cesm::kEnsoDamping * kEnsoAmplitude * truth_->enso_index(t),
          .tele = cesm::kEnsoDamping * kTeleAmplitude * truth_->tele_index(t)};
}

double CESMSurrogate::compose(double lat, double lon, std::size_t week,
                              const Modes& modes, double seasonal,
                              double eddy) const {
  const auto t = static_cast<double>(week);
  const SyntheticSST& truth = *truth_;
  const double enso_own = modes.enso * truth.enso_pattern(lat, lon);
  const double tele_own = modes.tele * truth.tele_pattern(lat, lon);
  double temp = truth.climatology(lat) + seasonal + truth.trend(lat, t) +
                enso_own + tele_own + eddy + bias(lat, lon);
  const auto qlat = static_cast<std::uint64_t>((lat + 90.0) * 16.0);
  const auto qlon = static_cast<std::uint64_t>(lon * 16.0);
  temp += cesm::kNoiseSigma * hash_normal(cesm::kSeed, week, qlat, qlon);
  return std::max(temp, -1.9);
}

double CESMSurrogate::value(double lat, double lon, std::size_t week) const {
  const auto t = static_cast<double>(week);
  return compose(
      lat, lon, week, modes(week),
      truth_->seasonal(lat, lon, t, cesm::kSeasonalPhaseErrorWeeks),
      truth_->eddy(lat, lon, t, cesm::kSeed));
}

std::vector<double> CESMSurrogate::field(const Grid& grid,
                                         std::size_t week) const {
  const auto t = static_cast<double>(week);
  const Modes week_modes = modes(week);
  const std::vector<double> seasonal =
      truth_->seasonal(grid, t, cesm::kSeasonalPhaseErrorWeeks);
  const std::vector<double> eddy = truth_->eddy(grid, t, cesm::kSeed);
  std::vector<double> out(grid.cells());
  for (std::size_t i = 0; i < grid.nlat; ++i) {
    const double lat = grid.lat_of(i);
    for (std::size_t j = 0; j < grid.nlon; ++j) {
      const std::size_t cell = grid.index(i, j);
      out[cell] = compose(lat, grid.lon_of(j), week, week_modes,
                          seasonal[cell], eddy[cell]);
    }
  }
  return out;
}

Matrix CESMSurrogate::snapshots(const LandMask& mask, std::size_t week0,
                                std::size_t count) const {
  return collect_snapshots(*this, mask, week0, count);
}

HYCOMSurrogate::HYCOMSurrogate(const SyntheticSST& truth) : truth_(&truth) {}

double HYCOMSurrogate::forecast(double truth, double eddy, double lat,
                                double lon, std::size_t week) const {
  const auto t = static_cast<double>(week);
  // Forecast error: an independent smooth wave field (position/timing
  // errors in the mesoscale forecast) plus interpolation noise and a small
  // systematic bias.
  const double err = eddy * (hycom::kErrorWaveAmplitude / kEddyAmplitude);
  // Climate-mode mistiming: the forecast tracks the chaotic indices with a
  // lag (its data assimilation trails the real evolution).
  const double enso_err =
      hycom::kEnsoErrorFraction *
      (kEnsoAmplitude * truth_->enso_pattern(lat, lon) *
           (truth_->enso_index(t - hycom::kEnsoLagWeeks) -
            truth_->enso_index(t)) +
       kTeleAmplitude * truth_->tele_pattern(lat, lon) *
           (truth_->tele_index(t - hycom::kEnsoLagWeeks) -
            truth_->tele_index(t)));
  const auto qlat = static_cast<std::uint64_t>((lat + 90.0) * 16.0);
  const auto qlon = static_cast<std::uint64_t>(lon * 16.0);
  const double noise =
      hycom::kNoiseSigma * hash_normal(hycom::kSeed, week, qlat, qlon);
  return truth + err + enso_err + hycom::kBias + noise;
}

double HYCOMSurrogate::value(double lat, double lon, std::size_t week) const {
  const auto t = static_cast<double>(week);
  return forecast(truth_->value(lat, lon, week),
                  truth_->eddy(lat, lon, t, hycom::kSeed), lat, lon, week);
}

std::vector<double> HYCOMSurrogate::field(const Grid& grid,
                                          std::size_t week) const {
  // The truth and the error waves for the whole grid at once; their
  // entries equal value()'s.
  std::vector<double> out = truth_->field(grid, week);
  const std::vector<double> eddy =
      truth_->eddy(grid, static_cast<double>(week), hycom::kSeed);
  for (std::size_t i = 0; i < grid.nlat; ++i) {
    const double lat = grid.lat_of(i);
    for (std::size_t j = 0; j < grid.nlon; ++j) {
      const std::size_t cell = grid.index(i, j);
      out[cell] = forecast(out[cell], eddy[cell], lat, grid.lon_of(j), week);
    }
  }
  return out;
}

Matrix HYCOMSurrogate::snapshots(const LandMask& mask, std::size_t week0,
                                 std::size_t count) const {
  return collect_snapshots(*this, mask, week0, count);
}

std::size_t HYCOMSurrogate::first_available_week() {
  return static_cast<std::size_t>(week_of_date(2015, 4, 5));
}

std::size_t HYCOMSurrogate::last_available_week() {
  return static_cast<std::size_t>(week_of_date(2018, 6, 24));
}

}  // namespace geonas::data
