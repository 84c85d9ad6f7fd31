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

/// Rough cost of one libm sin/cos/log call (~20 ns), in blocked-GEMM
/// flops of the same duration; one value() makes about eddy_waves + 5 such
/// calls per (cell, week). Sizes the parallel_for threshold test.
constexpr double kFlopsPerLibmCall = 100.0;

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
double noise_at(const SSTOptions& o, std::uint64_t week_key,
                std::uint64_t cell_key) {
  return o.noise_sigma * unit_normal(hash_combine(week_key, cell_key));
}

/// Per-location factors of the seasonal cycle.
struct SeasonalCell {
  double amp, lag, semi;
};

SeasonalCell seasonal_cell(const SSTOptions& o, double lat, double lon) {
  const double lat_rad = lat * kDeg2Rad;
  const double lon_rad = lon * kDeg2Rad;
  SeasonalCell cell{};
  // Hemisphere-antisymmetric amplitude, modulated in longitude (western
  // boundary regions respond more strongly than ocean interiors).
  cell.amp = o.seasonal_amplitude * std::sin(lat_rad) *
             (1.0 + 0.28 * std::sin(lon_rad + 2.2));
  // Longitude-dependent seasonal lag (+-4 weeks): continental coasts lead,
  // maritime interiors trail. This puts the annual cycle's sine AND cosine
  // quadratures into the spatial field, spreading periodic variance over
  // several POD modes exactly as in the observed SST record.
  cell.lag = 4.0 * std::sin(lon_rad + 1.0);
  cell.semi = o.semiannual_amplitude * std::abs(std::sin(lat_rad)) *
              (1.0 + 0.3 * std::cos(lon_rad - 0.7));
  return cell;
}

double seasonal_at(const SeasonalCell& cell, double week_time) {
  const double phase =
      2.0 * std::numbers::pi * (week_time + cell.lag) / kWeeksPerYear;
  // Week 0 is late October; peak NH warmth sits in late August, i.e. about
  // 8.5 weeks before the epoch.
  const double annual = cell.amp * std::cos(phase + 2.0 * std::numbers::pi *
                                                        8.5 / kWeeksPerYear);
  const double semi = cell.semi * std::cos(2.0 * phase + 0.9);
  return annual + semi;
}

double trend_scale(const SSTOptions& o, double week_time) {
  const double per_week = o.trend_per_decade / (10.0 * kWeeksPerYear);
  return per_week * week_time;
}

double trend_weight(double lat) {
  return 0.4 + 0.6 * std::cos(lat * kDeg2Rad);
}

double eddy_envelope(double lat) {
  // Eddy kinetic energy concentrates along mid-latitude boundary currents.
  return 0.35 + 0.65 * std::pow(std::sin(2.0 * (lat * kDeg2Rad)), 2);
}
}  // namespace

struct SyntheticSST::CellTerms {
  double climatology;
  SeasonalCell seasonal;
  double trend_weight, enso_pattern, tele_pattern, eddy_envelope;
  std::uint64_t noise_key;
};

struct SyntheticSST::WeekTerms {
  double time, trend, enso, tele;  // enso, tele: amplitude x index
  std::uint64_t noise_key;
};

/// One eddy wave at one week time: its AR(1)-modulated amplitude a(t)·amp
/// and its phase advance ω·t.
struct SyntheticSST::WaveWeek {
  double amp, advance;
};

struct SyntheticSST::LatLon {
  double lat, lon;
};

SyntheticSST::SyntheticSST(SSTOptions options) : opts_(options) {}

double SyntheticSST::climatology(double lat) const noexcept {
  const double c = std::cos(lat * kDeg2Rad);
  // Warm pool ~29.5 C at the equator, below-freezing brine near the poles.
  return 31.0 * c * c - 1.6;
}

double SyntheticSST::seasonal(double lat, double lon, double week_time,
                              double phase_shift_weeks) const noexcept {
  return seasonal_at(seasonal_cell(opts_, lat, lon),
                     week_time + phase_shift_weeks);
}

double SyntheticSST::trend(double lat, double week_time) const noexcept {
  return trend_scale(opts_, week_time) * trend_weight(lat);
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
  const double week_natural = opts_.chaos_rate;
  const auto steps_per_week =
      static_cast<std::size_t>(week_natural / dt_natural) + 1;
  const double dt = week_natural / static_cast<double>(steps_per_week);

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
  return base * (1.0 + opts_.enso_envelope_growth * t);
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
  bank.waves.resize(static_cast<std::size_t>(opts_.eddy_waves));
  const double per_wave =
      opts_.eddy_amplitude /
      std::sqrt(0.5 * static_cast<double>(bank.waves.size()));
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
  bank.amp_series.resize(bank.waves.size());
  wave_cache_.emplace_back(realization_seed, std::move(bank));
  return wave_cache_.back().second;
}

void SyntheticSST::ensure_amp_series(const WaveBank& bank,
                                     std::size_t weeks) const {
  // AR(1) amplitude factors per wave: a(t+1) = phi a(t) + e(t), scaled to
  // mean 1 and the configured modulation depth. The innovations come from
  // a per-wave hash stream, so the series are deterministic and extendable.
  auto& series = const_cast<WaveBank&>(bank).amp_series;
  const double phi = opts_.eddy_ar1;
  const double innovation_sd =
      opts_.eddy_modulation * std::sqrt(std::max(1e-9, 1.0 - phi * phi));
  for (std::size_t m = 0; m < bank.waves.size(); ++m) {
    auto& s = series[m];
    if (s.size() >= weeks) continue;
    double prev_dev = s.empty() ? 0.0 : s.back() - 1.0;
    if (s.empty()) s.reserve(weeks + 64);
    for (std::size_t w = s.size(); w < weeks; ++w) {
      const double innovation =
          innovation_sd *
          hash_normal(bank.waves[m].amp_seed, w, 0xA3ULL, 0x77ULL);
      prev_dev = phi * prev_dev + innovation;
      s.push_back(1.0 + prev_dev);
    }
  }
}

void SyntheticSST::wave_weeks(const WaveBank& bank, double week_time,
                              std::span<WaveWeek> out) const {
  const double t = std::max(0.0, week_time);
  const auto i0 = static_cast<std::size_t>(t);
  const double frac = t - static_cast<double>(i0);
  ensure_amp_series(bank, i0 + 3);
  for (std::size_t m = 0; m < bank.waves.size(); ++m) {
    const Wave& w = bank.waves[m];
    const double a = (1.0 - frac) * bank.amp_series[m][i0] +
                     frac * bank.amp_series[m][i0 + 1];
    out[m] = {a * w.amp, w.omega * week_time};
  }
}

void SyntheticSST::wave_phases(const WaveBank& bank, double lat, double lon,
                               std::span<double> out) noexcept {
  const double u = lat / 180.0;  // [-0.5, 0.5]
  const double v = lon / 360.0;  // [0, 1]
  for (std::size_t m = 0; m < bank.waves.size(); ++m) {
    const Wave& w = bank.waves[m];
    out[m] = 2.0 * std::numbers::pi * (w.klat * u + w.klon * v);
  }
}

double SyntheticSST::eddy_sum(const WaveBank& bank,
                              std::span<const double> phases,
                              std::span<const WaveWeek> waves) noexcept {
  double acc = 0.0;
  for (std::size_t m = 0; m < bank.waves.size(); ++m) {
    acc += waves[m].amp *
           std::sin(phases[m] - waves[m].advance + bank.waves[m].phase);
  }
  return acc;
}

double SyntheticSST::eddy(double lat, double lon, double week_time,
                          std::uint64_t realization_seed) const {
  const WaveBank& bank = waves_for(realization_seed);
  std::vector<WaveWeek> waves(bank.waves.size());
  std::vector<double> phases(bank.waves.size());
  wave_weeks(bank, week_time, waves);
  wave_phases(bank, lat, lon, phases);
  return eddy_envelope(lat) * eddy_sum(bank, phases, waves);
}

double SyntheticSST::noise(double lat, double lon, std::size_t week) const {
  return noise_at(opts_, hash_combine(opts_.seed, week),
                  noise_cell_key(lat, lon));
}

SyntheticSST::CellTerms SyntheticSST::cell_terms(double lat,
                                                 double lon) const noexcept {
  return {.climatology = climatology(lat),
          .seasonal = seasonal_cell(opts_, lat, lon),
          .trend_weight = trend_weight(lat),
          .enso_pattern = enso_pattern(lat, lon),
          .tele_pattern = tele_pattern(lat, lon),
          .eddy_envelope = eddy_envelope(lat),
          .noise_key = noise_cell_key(lat, lon)};
}

SyntheticSST::WeekTerms SyntheticSST::week_terms(
    const WaveBank& bank, std::size_t week, std::span<WaveWeek> waves) const {
  const auto t = static_cast<double>(week);
  const WeekTerms terms{.time = t,
                        .trend = trend_scale(opts_, t),
                        .enso = opts_.enso_amplitude * enso_index(t),
                        .tele = opts_.tele_amplitude * tele_index(t),
                        .noise_key = hash_combine(opts_.seed, week)};
  wave_weeks(bank, t, waves);
  return terms;
}

double SyntheticSST::combine(const WaveBank& bank, const CellTerms& cell,
                             std::span<const double> phases,
                             const WeekTerms& week,
                             std::span<const WaveWeek> waves) const noexcept {
  const double temp =
      cell.climatology + seasonal_at(cell.seasonal, week.time) +
      week.trend * cell.trend_weight + week.enso * cell.enso_pattern +
      week.tele * cell.tele_pattern +
      cell.eddy_envelope * eddy_sum(bank, phases, waves) +
      noise_at(opts_, week.noise_key, cell.noise_key);
  // Sea water cannot cool much below the freezing point of brine.
  return std::max(temp, -1.9);
}

void SyntheticSST::evaluate(std::span<const LatLon> points, std::size_t week0,
                            std::size_t count, std::span<double> out) const {
  // The week terms first, on this thread and in week order: this is where
  // the lazy caches grow.
  const WaveBank& bank = waves_for(opts_.seed);
  const std::size_t nw = bank.waves.size();
  std::vector<WeekTerms> weeks;
  weeks.reserve(count);
  std::vector<WaveWeek> waves(count * nw);
  const std::span<WaveWeek> all_waves(waves);
  for (std::size_t c = 0; c < count; ++c) {
    weeks.push_back(week_terms(bank, week0 + c, all_waves.subspan(c * nw, nw)));
  }
  // Then the points, split over the kernel pool; workers only read the
  // terms above, the wave bank and the options.
  const double cost = static_cast<double>(points.size() * count) *
                      static_cast<double>(nw + 5) * kFlopsPerLibmCall;
  hpc::parallel_for(
      0, points.size(), cost, [&](std::size_t lo, std::size_t hi) {
        std::vector<double> phases(nw);
        for (std::size_t r = lo; r < hi; ++r) {
          const CellTerms cell = cell_terms(points[r].lat, points[r].lon);
          wave_phases(bank, points[r].lat, points[r].lon, phases);
          const std::span<double> row = out.subspan(r * count, count);
          for (std::size_t c = 0; c < count; ++c) {
            row[c] = combine(bank, cell, phases, weeks[c],
                             all_waves.subspan(c * nw, nw));
          }
        }
      });
}

double SyntheticSST::value(double lat, double lon, std::size_t week) const {
  const LatLon point{lat, lon};
  double out = 0.0;
  evaluate({&point, 1}, week, 1, {&out, 1});
  return out;
}

std::vector<double> SyntheticSST::field(const Grid& grid,
                                        std::size_t week) const {
  std::vector<LatLon> points;
  points.reserve(grid.cells());
  for (std::size_t i = 0; i < grid.nlat; ++i) {
    for (std::size_t j = 0; j < grid.nlon; ++j) {
      points.push_back({grid.lat_of(i), grid.lon_of(j)});
    }
  }
  std::vector<double> out(grid.cells());
  evaluate(points, week, 1, out);
  return out;
}

Matrix SyntheticSST::snapshots(const LandMask& mask, std::size_t week0,
                               std::size_t count) const {
  const Grid& grid = mask.grid();
  std::vector<LatLon> points;
  points.reserve(mask.ocean_count());
  for (const std::size_t cell : mask.ocean_cells()) {
    points.push_back(
        {grid.lat_of(cell / grid.nlon), grid.lon_of(cell % grid.nlon)});
  }
  Matrix s(mask.ocean_count(), count);
  evaluate(points, week0, count, s.flat());
  return s;
}

}  // namespace geonas::data
