#include "tensor/random.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace geonas {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t state = a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
  return splitmix64(state);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high-quality bits into [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::size_t Rng::uniform_index(std::size_t n) noexcept {
  // Debiased modulo draw: rejection-sample the top of the 64-bit range so
  // every residue class is equally likely (bias is astronomically small for
  // the n used here, but correctness is cheap).
  const std::uint64_t bound = ~std::uint64_t{0} - (~std::uint64_t{0} % n + 1) % n;
  std::uint64_t draw = next();
  while (draw > bound) draw = next();
  return static_cast<std::size_t>(draw % n);
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

double Rng::exponential(double lambda) noexcept {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / lambda;
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  if (k > n) {
    throw std::invalid_argument(
        "sample_without_replacement: k exceeds population size");
  }
  // Partial Fisher-Yates over an index vector; O(n) setup, fine for the
  // population sizes used by aging evolution (<= a few hundred).
  std::vector<std::size_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) indices[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + uniform_index(n - i);
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

Rng Rng::fork() noexcept { return Rng(hash_combine(next(), next())); }

}  // namespace geonas
