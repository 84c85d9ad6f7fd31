#include "data/sst.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>

#include "hpc/parallel_for.hpp"
#include "tensor/random.hpp"

namespace geonas::data {

namespace {
constexpr double kDeg2Rad = std::numbers::pi / 180.0;

/// The chaotic indices are standardized over the first this-many weeks of
/// the Lorenz record, and the teleconnection index reads its y samples a
/// quarter of that span later.
constexpr std::size_t kChaosWindow = 3000;
constexpr std::size_t kTeleOffset = kChaosWindow / 4;

/// Rough cost of one libm sin/cos/exp/log call (~20 ns), in blocked-GEMM
/// flops of the same duration. Sizes the parallel_for threshold test.
constexpr double kFlopsPerLibmCall = 100.0;

// The calibration (DESIGN.md §1); the amplitudes the comparators also
// read are in sst.hpp.
constexpr double kSeasonalAmplitude = 6.5;  // deg C at high latitude
constexpr double kSemiannualAmplitude = 0.9;
/// Lorenz-63 time units per week for the chaotic climate indices; sets
/// the predictability horizon (Lyapunov time ~ 1.1/kChaosRate weeks).
constexpr double kChaosRate = 0.02;
constexpr double kEnsoEnvelopeGrowth = 1.2e-4;  // amplitude growth per week
/// Eddy-amplitude AR(1) weekly autocorrelation. |kEddyAr1| < 1 keeps the
/// deviations stationary and their innovation scale real.
constexpr double kEddyAr1 = 0.93;
static_assert(kEddyAr1 > -1.0 && kEddyAr1 < 1.0);
constexpr double kEddyModulation = 0.55;  // relative amplitude-modulation depth
constexpr double kNoiseSigma = 0.12;      // white measurement noise
constexpr std::size_t kEddyWaves = 48;    // traveling waves in the eddy bank

/// The seasonal terms of the halves: the annual and the semi-annual
/// harmonic, each as a cos and a sin term.
constexpr std::size_t kSeasonalTerms = 4;
/// The eddy terms of the halves, two per wave, and all terms.
constexpr std::size_t kEddyTerms = 2 * kEddyWaves;
constexpr std::size_t kTerms = kEddyTerms + kSeasonalTerms;

/// Standard normal from a 64-bit hash key.
double unit_normal(std::uint64_t h) {
  std::uint64_t s1 = splitmix64(h);
  std::uint64_t s2 = splitmix64(h);
  double u1 = static_cast<double>(s1 >> 11) * 0x1.0p-53;
  const double u2 = static_cast<double>(s2 >> 11) * 0x1.0p-53;
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

/// Hash a (seed, week, lat-cell, lon-cell) tuple into a standard normal.
double hash_normal(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                   std::uint64_t c) {
  return unit_normal(hash_combine(hash_combine(seed, a), hash_combine(b, c)));
}

/// The location's half of the noise hash (the week's half is
/// hash_combine(seed, week)).
std::uint64_t noise_cell_key(double lat, double lon) {
  const auto qlat = static_cast<std::uint64_t>((lat + 90.0) * 16.0);
  const auto qlon = static_cast<std::uint64_t>(lon * 16.0);
  return hash_combine(qlat, qlon);
}

/// The measurement-noise term from the week's and the location's halves of
/// its hash: hash_normal(seed, week, lat-cell, lon-cell), scaled.
double noise_at(std::uint64_t week_key, std::uint64_t cell_key) {
  return kNoiseSigma * unit_normal(hash_combine(week_key, cell_key));
}

double climatology_at(double lat) {
  const double c = std::cos(lat * kDeg2Rad);
  // Warm pool ~29.5 C at the equator, below-freezing brine near the poles.
  return 31.0 * c * c - 1.6;
}

double trend_scale(double week_time) {
  const double per_week = kTrendPerDecade / (10.0 * kWeeksPerYear);
  return per_week * week_time;
}

double trend_weight(double lat) {
  return 0.4 + 0.6 * std::cos(lat * kDeg2Rad);
}

double eddy_envelope(double lat) {
  // Eddy kinetic energy concentrates along mid-latitude boundary currents.
  return 0.35 + 0.65 * std::pow(std::sin(2.0 * (lat * kDeg2Rad)), 2);
}

/// What a latitude contributes to a cell: its scalar terms and the
/// latitude factors of the seasonal amplitudes.
struct LatTerms {
  double climatology, trend_weight, eddy_envelope, annual, semi;
};

LatTerms lat_terms(double lat) {
  const double s = std::sin(lat * kDeg2Rad);
  // Hemisphere-antisymmetric annual amplitude; the semi-annual one is
  // symmetric.
  return {.climatology = climatology_at(lat),
          .trend_weight = trend_weight(lat),
          .eddy_envelope = eddy_envelope(lat),
          .annual = kSeasonalAmplitude * s,
          .semi = kSemiannualAmplitude * std::abs(s)};
}

/// What a longitude contributes to a cell's seasonal half: the longitude
/// factors of the amplitudes (western boundary regions respond more
/// strongly than ocean interiors) and cos/sin of the harmonics' phases.
struct LonTerms {
  double annual, semi, cos_annual, sin_annual, cos_semi, sin_semi;
};

LonTerms lon_terms(double lon) {
  const double lon_rad = lon * kDeg2Rad;
  // Longitude-dependent seasonal lag (+-4 weeks): continental coasts lead,
  // maritime interiors trail. This puts the annual cycle's sine AND cosine
  // quadratures into the spatial field, spreading periodic variance over
  // several POD modes exactly as in the observed SST record.
  const double lag = 4.0 * std::sin(lon_rad + 1.0);
  // Week 0 is late October; peak NH warmth sits in late August, i.e. about
  // 8.5 weeks before the epoch.
  const double annual_phase =
      2.0 * std::numbers::pi * (lag + 8.5) / kWeeksPerYear;
  const double semi_phase =
      4.0 * std::numbers::pi * lag / kWeeksPerYear + 0.9;
  return {.annual = 1.0 + 0.28 * std::sin(lon_rad + 2.2),
          .semi = 1.0 + 0.3 * std::cos(lon_rad - 0.7),
          .cos_annual = std::cos(annual_phase),
          .sin_annual = std::sin(annual_phase),
          .cos_semi = std::cos(semi_phase),
          .sin_semi = std::sin(semi_phase)};
}

/// A cell's seasonal half: amp·cos(θ + β) = amp·cos β·cos θ −
/// amp·sin β·sin θ, with θ the week's phase, for the annual and the
/// semi-annual harmonic.
void seasonal_cell_half(const LatTerms& lat, const LonTerms& lon,
                        std::span<double> out) {
  const double annual = lat.annual * lon.annual;
  const double semi = lat.semi * lon.semi;
  out[0] = annual * lon.cos_annual;
  out[1] = -(annual * lon.sin_annual);
  out[2] = semi * lon.cos_semi;
  out[3] = -(semi * lon.sin_semi);
}

/// The seasonal week half at `week_time` into out[k·stride]: cos and sin
/// of the annual phase 2πt/P and of the semi-annual phase, twice that.
void seasonal_week_half(double week_time, double* out, std::size_t stride) {
  const double phase = 2.0 * std::numbers::pi * week_time / kWeeksPerYear;
  out[0] = std::cos(phase);
  out[stride] = std::sin(phase);
  out[2 * stride] = std::cos(2.0 * phase);
  out[3 * stride] = std::sin(2.0 * phase);
}

/// A cell's eddy half from its row's and its column's shares, by angle
/// addition: envelope·sin(ψlat + ψlon) and envelope·cos(ψlat + ψlon) of
/// each wave.
void eddy_cell_half(std::span<const double> lat, std::span<const double> lon,
                    std::span<double> out) {
  for (std::size_t k = 0; k < out.size(); k += 2) {
    out[k] = lat[k] * lon[k + 1] + lat[k + 1] * lon[k];
    out[k + 1] = lat[k + 1] * lon[k + 1] - lat[k] * lon[k];
  }
}

/// The fixed-order dot of a cell half `u` with `row.size()` columns of a
/// week half `w` (term-major, row stride row.size()): for each term k in
/// ascending order, row[c] += u[k]·w[k][c]. Every element gets the same
/// operation sequence at any column count.
void dot(std::span<const double> u, const double* w, std::span<double> row) {
  const std::size_t count = row.size();
  std::fill(row.begin(), row.end(), 0.0);
  for (std::size_t k = 0; k < u.size(); ++k) {
    const double uk = u[k];
    const double* wk = w + k * count;
    for (std::size_t c = 0; c < count; ++c) row[c] += uk * wk[c];
  }
}

/// The latitudes of a grid's rows and the longitudes of its columns.
std::vector<double> row_lats(const Grid& grid) {
  std::vector<double> lats(grid.nlat);
  for (std::size_t i = 0; i < grid.nlat; ++i) lats[i] = grid.lat_of(i);
  return lats;
}

std::vector<double> col_lons(const Grid& grid) {
  std::vector<double> lons(grid.nlon);
  for (std::size_t j = 0; j < grid.nlon; ++j) lons[j] = grid.lon_of(j);
  return lons;
}
}  // namespace

SyntheticSST::SyntheticSST(SSTOptions options) : opts_(options) {}

double SyntheticSST::climatology(double lat) const noexcept {
  return climatology_at(lat);
}

double SyntheticSST::seasonal(double lat, double lon, double week_time,
                              double phase_shift_weeks) const noexcept {
  std::array<double, kSeasonalTerms> cell{}, week{};
  seasonal_cell_half(lat_terms(lat), lon_terms(lon), cell);
  seasonal_week_half(week_time + phase_shift_weeks, week.data(), 1);
  double out = 0.0;
  dot(cell, week.data(), {&out, 1});
  return out;
}

std::vector<double> SyntheticSST::seasonal(const Grid& grid, double week_time,
                                           double phase_shift_weeks) const {
  std::array<double, kSeasonalTerms> cell{}, week{};
  seasonal_week_half(week_time + phase_shift_weeks, week.data(), 1);
  std::vector<LatTerms> lats;
  std::vector<LonTerms> lons;
  lats.reserve(grid.nlat);
  lons.reserve(grid.nlon);
  for (std::size_t i = 0; i < grid.nlat; ++i) {
    lats.push_back(lat_terms(grid.lat_of(i)));
  }
  for (std::size_t j = 0; j < grid.nlon; ++j) {
    lons.push_back(lon_terms(grid.lon_of(j)));
  }
  std::vector<double> out(grid.cells());
  for (std::size_t i = 0; i < grid.nlat; ++i) {
    for (std::size_t j = 0; j < grid.nlon; ++j) {
      seasonal_cell_half(lats[i], lons[j], cell);
      dot(cell, week.data(), {&out[grid.index(i, j)], 1});
    }
  }
  return out;
}

double SyntheticSST::trend(double lat, double week_time) const noexcept {
  return trend_scale(week_time) * trend_weight(lat);
}

void SyntheticSST::ensure_chaos_series(std::size_t weeks) const {
  ChaosRecord& rec = chaos_;
  if (rec.tele.size() >= weeks) return;
  // Lorenz-63 (sigma=10, rho=28, beta=8/3) integrated with RK4 at fine
  // steps; weekly samples of x become the ENSO index and of y (offset by
  // kTeleOffset) the teleconnection index, each standardized with the
  // moments of the first kChaosWindow weeks. Later calls continue the same
  // integration under that normalization, so a sample never depends on
  // which weeks were asked for first. Deterministic: fixed initial
  // condition and step size.
  const double dt_natural = 0.004;
  const auto steps_per_week =
      static_cast<std::size_t>(kChaosRate / dt_natural) + 1;
  const double dt = kChaosRate / static_cast<double>(steps_per_week);

  constexpr double kSigma = 10.0, kRho = 28.0, kBeta = 8.0 / 3.0;
  auto deriv = [](const std::array<double, 3>& s) {
    return std::array<double, 3>{kSigma * (s[1] - s[0]),
                                 s[0] * (kRho - s[2]) - s[1],
                                 s[0] * s[1] - kBeta * s[2]};
  };
  auto rk4_step = [&](std::array<double, 3>& s) {
    const auto k1 = deriv(s);
    std::array<double, 3> tmp;
    for (int i = 0; i < 3; ++i) tmp[i] = s[i] + 0.5 * dt * k1[i];
    const auto k2 = deriv(tmp);
    for (int i = 0; i < 3; ++i) tmp[i] = s[i] + 0.5 * dt * k2[i];
    const auto k3 = deriv(tmp);
    for (int i = 0; i < 3; ++i) tmp[i] = s[i] + dt * k3[i];
    const auto k4 = deriv(tmp);
    for (int i = 0; i < 3; ++i) {
      s[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
  };
  // The state at the next weekly sample; advances the integrator a week.
  auto next_sample = [&] {
    const std::array<double, 3> sample = rec.state;
    for (std::size_t s = 0; s < steps_per_week; ++s) rk4_step(rec.state);
    return sample;
  };
  auto push_standardized = [&](double x, double y) {
    rec.enso.push_back((x - rec.x_mean) / rec.x_scale);
    rec.y.push_back((y - rec.y_mean) / rec.y_scale);
  };

  if (rec.y.empty()) {
    rec.state = {1.0, 1.0, 20.0};
    // Burn onto the attractor.
    for (std::size_t s = 0; s < 200 * steps_per_week; ++s) rk4_step(rec.state);
    std::vector<double> xs, ys;
    xs.reserve(kChaosWindow);
    ys.reserve(kChaosWindow);
    for (std::size_t w = 0; w < kChaosWindow; ++w) {
      const auto sample = next_sample();
      xs.push_back(sample[0]);
      ys.push_back(sample[1]);
    }
    auto moments = [](const std::vector<double>& v, double& mean,
                      double& scale) {
      double m = 0.0;
      for (double x : v) m += x;
      m /= static_cast<double>(v.size());
      double var = 0.0;
      for (double x : v) var += (x - m) * (x - m);
      const double sd = std::sqrt(var / static_cast<double>(v.size()));
      mean = m;
      scale = sd > 1e-12 ? sd : 1.0;
    };
    moments(xs, rec.x_mean, rec.x_scale);
    moments(ys, rec.y_mean, rec.y_scale);
    for (std::size_t w = 0; w < kChaosWindow; ++w) {
      push_standardized(xs[w], ys[w]);
    }
    // Inside the first window the offset wraps around, which decorrelates
    // the two indices there as well.
    for (std::size_t w = 0; w < kChaosWindow; ++w) {
      rec.tele.push_back(rec.y[(w + kTeleOffset) % kChaosWindow]);
    }
  }
  while (rec.tele.size() < weeks) {
    const std::size_t sample_week = rec.tele.size() + kTeleOffset;
    while (rec.y.size() <= sample_week) {
      const auto sample = next_sample();
      push_standardized(sample[0], sample[1]);
    }
    rec.tele.push_back(rec.y[sample_week]);
  }
}

double SyntheticSST::enso_index(double week_time) const {
  const double t = std::max(0.0, week_time);
  ensure_chaos_series(static_cast<std::size_t>(t) + 3);
  const auto i0 = static_cast<std::size_t>(t);
  const double frac = t - static_cast<double>(i0);
  const double lorenz =
      (1.0 - frac) * chaos_.enso[i0] + frac * chaos_.enso[i0 + 1];
  // ENSO blend: a recurrent quasi-periodic backbone (a ~3.7-year cycle
  // amplitude-modulated on a decadal scale plus a ~2.2-year overtone — the
  // part an emulator trained on 8 years can learn) with a chaotic Lorenz
  // component on top (the part that defeats linear AR extrapolation). The
  // weights are chosen so the blended index has ~unit variance (the qp
  // term's own sd is ~0.78), keeping the ENSO mode's energy solidly inside
  // the retained POD basis.
  const double qp =
      (std::sin(2.0 * std::numbers::pi * t / 192.0 + 0.7) *
           (1.0 + 0.45 * std::sin(2.0 * std::numbers::pi * t / 1040.0 + 1.9)) +
       0.35 * std::sin(2.0 * std::numbers::pi * t / 113.0)) /
      0.78;
  const double base = 0.85 * qp + 0.52 * lorenz;
  // Regime change: events strengthen through the record (the observed
  // post-1990 intensification), pushing test-period amplitudes outside the
  // 1981-89 training support.
  return base * (1.0 + kEnsoEnvelopeGrowth * t);
}

double SyntheticSST::tele_index(double week_time) const {
  const double t = std::max(0.0, week_time);
  ensure_chaos_series(static_cast<std::size_t>(t) + 3);
  const auto i0 = static_cast<std::size_t>(t);
  const double frac = t - static_cast<double>(i0);
  const double lorenz =
      (1.0 - frac) * chaos_.tele[i0] + frac * chaos_.tele[i0 + 1];
  // Same blend philosophy (and ~unit variance) as the ENSO index, with
  // its own periods.
  const double qp =
      (std::sin(2.0 * std::numbers::pi * t / 271.0 + 2.3) +
       0.4 * std::sin(2.0 * std::numbers::pi * t / 89.0 + 0.4)) /
      0.76;
  return 0.85 * qp + 0.52 * lorenz;
}

double SyntheticSST::tele_pattern(double lat, double lon) const noexcept {
  // Mid-latitude North-Pacific blob (a PDO/NPGO-like loading).
  const double dlat = (lat - 42.0) / 13.0;
  const double dlon = (lon - 185.0) / 40.0;
  return std::exp(-dlat * dlat - dlon * dlon);
}

double SyntheticSST::enso_pattern(double lat, double lon) const noexcept {
  // Broad enough that the ENSO mode carries top-5 global POD energy, as
  // the observed field's ENSO mode does.
  const double dlat = lat / 11.0;
  const double dlon = (lon - 235.0) / 50.0;
  return std::exp(-dlat * dlat - dlon * dlon);
}

const SyntheticSST::WaveBank& SyntheticSST::waves_for(
    std::uint64_t realization_seed) const {
  for (const auto& [seed, bank] : wave_cache_) {
    if (seed == realization_seed) return bank;
  }
  Rng rng(hash_combine(realization_seed, 0xEDD1E5ULL));
  WaveBank bank;
  bank.waves.resize(kEddyWaves);
  const double per_wave =
      kEddyAmplitude / std::sqrt(0.5 * static_cast<double>(bank.waves.size()));
  for (Wave& w : bank.waves) {
    w.amp = per_wave * rng.uniform(0.6, 1.4);
    // Wavenumbers in cycles over the domain: mesoscale (5..22 around the
    // globe). Periods span 14..90 weeks — slow enough that an 8-week
    // history carries predictive information about the next 8 weeks.
    w.klat = rng.uniform(3.0, 14.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
    w.klon = rng.uniform(5.0, 22.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
    w.omega = 2.0 * std::numbers::pi / rng.uniform(14.0, 90.0);
    w.phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
    w.amp_seed = rng.next();
  }
  bank.amp_dev.resize(bank.waves.size());
  wave_cache_.emplace_back(realization_seed, std::move(bank));
  return wave_cache_.back().second;
}

void SyntheticSST::ensure_amp_series(const WaveBank& bank,
                                     std::size_t weeks) const {
  // AR(1) deviations per wave: d(t+1) = phi d(t) + e(t), with innovations
  // scaled to the modulation depth; the amplitude factor is 1 + d. The
  // innovations come from a per-wave hash stream, and an
  // extension continues the recursion from the stored deviation itself,
  // so a series does not depend on how far it was grown at a time.
  auto& series = const_cast<WaveBank&>(bank).amp_dev;
  const double phi = kEddyAr1;
  const double innovation_sd = kEddyModulation * std::sqrt(1.0 - phi * phi);
  for (std::size_t m = 0; m < bank.waves.size(); ++m) {
    auto& s = series[m];
    if (s.size() >= weeks) continue;
    double dev = s.empty() ? 0.0 : s.back();
    if (s.empty()) s.reserve(weeks + 64);
    for (std::size_t w = s.size(); w < weeks; ++w) {
      const double innovation =
          innovation_sd *
          hash_normal(bank.waves[m].amp_seed, w, 0xA3ULL, 0x77ULL);
      dev = phi * dev + innovation;
      s.push_back(dev);
    }
  }
}

void SyntheticSST::eddy_lat_half(const WaveBank& bank, double lat,
                                 double envelope,
                                 std::span<double> out) noexcept {
  const double u = lat / 180.0;  // [-0.5, 0.5]
  for (std::size_t m = 0; m < bank.waves.size(); ++m) {
    const Wave& w = bank.waves[m];
    const double psi = 2.0 * std::numbers::pi * w.klat * u + w.phase;
    out[2 * m] = envelope * std::sin(psi);
    out[2 * m + 1] = envelope * std::cos(psi);
  }
}

void SyntheticSST::eddy_lon_half(const WaveBank& bank, double lon,
                                 std::span<double> out) noexcept {
  const double v = lon / 360.0;  // [0, 1]
  for (std::size_t m = 0; m < bank.waves.size(); ++m) {
    const double psi = 2.0 * std::numbers::pi * bank.waves[m].klon * v;
    out[2 * m] = std::sin(psi);
    out[2 * m + 1] = std::cos(psi);
  }
}

void SyntheticSST::eddy_week_half(const WaveBank& bank, double week_time,
                                  double* out, std::size_t stride) const {
  const double t = std::max(0.0, week_time);
  const auto i0 = static_cast<std::size_t>(t);
  const double frac = t - static_cast<double>(i0);
  ensure_amp_series(bank, i0 + 3);
  for (std::size_t m = 0; m < bank.waves.size(); ++m) {
    const Wave& w = bank.waves[m];
    const std::vector<double>& dev = bank.amp_dev[m];
    const double a = 1.0 + ((1.0 - frac) * dev[i0] + frac * dev[i0 + 1]);
    const double amp = a * w.amp;
    const double advance = w.omega * week_time;
    out[2 * m * stride] = amp * std::cos(advance);
    out[(2 * m + 1) * stride] = -(amp * std::sin(advance));
  }
}

double SyntheticSST::eddy(double lat, double lon, double week_time,
                          std::uint64_t realization_seed) const {
  const WaveBank& bank = waves_for(realization_seed);
  // The week half, the row and column shares, and the cell half.
  std::array<double, 4 * kEddyTerms> halves{};
  const std::span<double> all(halves);
  const std::span<double> week = all.first(kEddyTerms);
  const std::span<double> lat_half = all.subspan(kEddyTerms, kEddyTerms);
  const std::span<double> lon_half = all.subspan(2 * kEddyTerms, kEddyTerms);
  const std::span<double> cell = all.last(kEddyTerms);
  eddy_week_half(bank, week_time, week.data(), 1);
  eddy_lat_half(bank, lat, eddy_envelope(lat), lat_half);
  eddy_lon_half(bank, lon, lon_half);
  eddy_cell_half(lat_half, lon_half, cell);
  double out = 0.0;
  dot(cell, week.data(), {&out, 1});
  return out;
}

std::vector<double> SyntheticSST::eddy(const Grid& grid, double week_time,
                                       std::uint64_t realization_seed) const {
  const WaveBank& bank = waves_for(realization_seed);
  std::array<double, kEddyTerms> week{}, cell{};
  eddy_week_half(bank, week_time, week.data(), 1);
  std::vector<double> lat_shares(grid.nlat * kEddyTerms);
  std::vector<double> lon_shares(grid.nlon * kEddyTerms);
  const auto lat_share = [&](std::size_t i) {
    return std::span(lat_shares).subspan(i * kEddyTerms, kEddyTerms);
  };
  const auto lon_share = [&](std::size_t j) {
    return std::span(lon_shares).subspan(j * kEddyTerms, kEddyTerms);
  };
  for (std::size_t i = 0; i < grid.nlat; ++i) {
    const double lat = grid.lat_of(i);
    eddy_lat_half(bank, lat, eddy_envelope(lat), lat_share(i));
  }
  for (std::size_t j = 0; j < grid.nlon; ++j) {
    eddy_lon_half(bank, grid.lon_of(j), lon_share(j));
  }
  std::vector<double> out(grid.cells());
  for (std::size_t i = 0; i < grid.nlat; ++i) {
    for (std::size_t j = 0; j < grid.nlon; ++j) {
      eddy_cell_half(lat_share(i), lon_share(j), cell);
      dot(cell, week.data(), {&out[grid.index(i, j)], 1});
    }
  }
  return out;
}

double SyntheticSST::noise(double lat, double lon, std::size_t week) const {
  return noise_at(hash_combine(opts_.seed, week), noise_cell_key(lat, lon));
}

void SyntheticSST::evaluate(std::span<const double> lats,
                            std::span<const double> lons,
                            std::span<const RowCol> points, std::size_t week0,
                            std::size_t count, std::span<double> out) const {
  // The halves hold the eddy terms, two per wave, then the seasonal terms.
  const WaveBank& bank = waves_for(opts_.seed);

  // The week half first, on this thread and in week order: this is where
  // the lazy caches grow. Row k of `week_half` is term k at every week.
  struct WeekScalars {
    double trend, enso, tele;  // enso, tele: amplitude x index
    std::uint64_t noise_key;
  };
  std::vector<WeekScalars> weeks(count);
  std::vector<double> week_half(kTerms * count);
  for (std::size_t c = 0; c < count; ++c) {
    const auto t = static_cast<double>(week0 + c);
    eddy_week_half(bank, t, &week_half[c], count);
    seasonal_week_half(t, &week_half[kEddyTerms * count + c], count);
    weeks[c] = {.trend = trend_scale(t),
                .enso = kEnsoAmplitude * enso_index(t),
                .tele = kTeleAmplitude * tele_index(t),
                .noise_key = hash_combine(opts_.seed, week0 + c)};
  }

  // The rows' and the columns' shares of the cell half.
  std::vector<LatTerms> lat_scalars;
  std::vector<LonTerms> lon_scalars;
  lat_scalars.reserve(lats.size());
  lon_scalars.reserve(lons.size());
  std::vector<double> lat_eddy(lats.size() * kEddyTerms);
  std::vector<double> lon_eddy(lons.size() * kEddyTerms);
  for (std::size_t i = 0; i < lats.size(); ++i) {
    lat_scalars.push_back(lat_terms(lats[i]));
    eddy_lat_half(bank, lats[i], lat_scalars.back().eddy_envelope,
                  std::span(lat_eddy).subspan(i * kEddyTerms, kEddyTerms));
  }
  for (std::size_t j = 0; j < lons.size(); ++j) {
    lon_scalars.push_back(lon_terms(lons[j]));
    eddy_lon_half(bank, lons[j],
                  std::span(lon_eddy).subspan(j * kEddyTerms, kEddyTerms));
  }

  // Then the points, split over the kernel pool; workers only read the
  // halves above. Per (point, week): the dot (a multiply and an add per
  // term) and the noise hash's log and cos. Per point: the angle addition
  // (six flops per wave) and the two patterns' exp.
  const double per_entry =
      2.0 * static_cast<double>(kTerms) + 2.0 * kFlopsPerLibmCall;
  const double per_point =
      3.0 * static_cast<double>(kEddyTerms) + 2.0 * kFlopsPerLibmCall;
  const double cost = static_cast<double>(points.size()) *
                      (static_cast<double>(count) * per_entry + per_point);
  const std::span<const double> lat_shares(lat_eddy), lon_shares(lon_eddy);
  hpc::parallel_for(
      0, points.size(), cost, [&](std::size_t lo, std::size_t hi) {
        std::array<double, kTerms> cell{};
        for (std::size_t r = lo; r < hi; ++r) {
          const auto [i, j] = points[r];
          const double lat = lats[i], lon = lons[j];
          eddy_cell_half(lat_shares.subspan(i * kEddyTerms, kEddyTerms),
                         lon_shares.subspan(j * kEddyTerms, kEddyTerms),
                         std::span(cell).first(kEddyTerms));
          seasonal_cell_half(lat_scalars[i], lon_scalars[j],
                             std::span(cell).last(kSeasonalTerms));
          const double climatology = lat_scalars[i].climatology;
          const double trend_weight = lat_scalars[i].trend_weight;
          const double enso = enso_pattern(lat, lon);
          const double tele = tele_pattern(lat, lon);
          const std::uint64_t noise_key = noise_cell_key(lat, lon);
          const std::span<double> row = out.subspan(r * count, count);
          dot(cell, week_half.data(), row);
          for (std::size_t c = 0; c < count; ++c) {
            const WeekScalars& week = weeks[c];
            const double temp = climatology + row[c] +
                                week.trend * trend_weight +
                                week.enso * enso + week.tele * tele +
                                noise_at(week.noise_key, noise_key);
            // Sea water cannot cool much below the freezing point of brine.
            row[c] = std::max(temp, -1.9);
          }
        }
      });
}

double SyntheticSST::value(double lat, double lon, std::size_t week) const {
  const RowCol point{0, 0};
  double out = 0.0;
  evaluate({&lat, 1}, {&lon, 1}, {&point, 1}, week, 1, {&out, 1});
  return out;
}

std::vector<double> SyntheticSST::field(const Grid& grid,
                                        std::size_t week) const {
  std::vector<RowCol> points;
  points.reserve(grid.cells());
  for (std::size_t i = 0; i < grid.nlat; ++i) {
    for (std::size_t j = 0; j < grid.nlon; ++j) points.push_back({i, j});
  }
  std::vector<double> out(grid.cells());
  evaluate(row_lats(grid), col_lons(grid), points, week, 1, out);
  return out;
}

Matrix SyntheticSST::snapshots(const LandMask& mask, std::size_t week0,
                               std::size_t count) const {
  const Grid& grid = mask.grid();
  std::vector<RowCol> points;
  points.reserve(mask.ocean_count());
  for (const std::size_t cell : mask.ocean_cells()) {
    points.push_back({cell / grid.nlon, cell % grid.nlon});
  }
  Matrix s(mask.ocean_count(), count);
  evaluate(row_lats(grid), col_lons(grid), points, week0, count, s.flat());
  return s;
}

}  // namespace geonas::data
