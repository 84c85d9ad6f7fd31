// Deterministic random-number generation for geonas.
//
// Every stochastic component of the library (data synthesis, NN weight
// init, search algorithms, the cluster simulator) takes an explicit
// 64-bit seed and owns its own Rng instance, so experiments replay
// bit-for-bit. The generator is xoshiro256** seeded through SplitMix64,
// which is both fast and statistically strong — and, unlike
// std::mt19937, guaranteed identical across standard libraries.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace geonas {

/// SplitMix64 step; used for seeding and as a cheap stateless hash.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stateless 64-bit mix of two values (used to derive per-worker seeds).
[[nodiscard]] std::uint64_t hash_combine(std::uint64_t a,
                                         std::uint64_t b) noexcept;

/// xoshiro256** PRNG with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// UniformRandomBitGenerator interface.
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }
  result_type operator()() noexcept { return next(); }

  std::uint64_t next() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n). n must be > 0.
  std::size_t uniform_index(std::size_t n) noexcept;
  /// Standard normal via Box-Muller (cached second value).
  double normal() noexcept;
  double normal(double mean, double stddev) noexcept;
  /// Bernoulli trial with probability p.
  bool bernoulli(double p) noexcept;
  /// Exponential with rate lambda (> 0).
  double exponential(double lambda) noexcept;
  /// Log-normal with parameters of the underlying normal.
  double lognormal(double mu, double sigma) noexcept;

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = uniform_index(i);
      std::swap(values[i - 1], values[j]);
    }
  }

  /// k distinct indices drawn uniformly from [0, n) (k <= n).
  [[nodiscard]] std::vector<std::size_t> sample_without_replacement(
      std::size_t n, std::size_t k);

  /// Fork a statistically independent child generator (for per-worker
  /// streams in the cluster simulator).
  [[nodiscard]] Rng fork() noexcept;

  /// Complete generator state, for checkpoint/resume: restoring it
  /// continues the exact draw sequence (including the cached Box-Muller
  /// half of normal()).
  struct State {
    std::array<std::uint64_t, 4> s{};
    double cached_normal = 0.0;
    bool has_cached_normal = false;
  };
  [[nodiscard]] State state() const noexcept {
    return {s_, cached_normal_, has_cached_normal_};
  }
  void set_state(const State& state) noexcept {
    s_ = state.s;
    cached_normal_ = state.cached_normal;
    has_cached_normal_ = state.has_cached_normal;
  }

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace geonas
