#include "core/surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "tensor/random.hpp"

namespace geonas::core {

namespace {
// Fitness landscape.
constexpr double kBase = 0.964;               // the ideal architecture's reward
constexpr double kCapacityWeight = 0.030;     // penalty for off-ideal capacity
constexpr double kIdealUnits = 208.0;         // ideal total LSTM width
constexpr double kCapacitySpread = 90.0;
constexpr double kDepthWeight = 0.020;        // penalty for off-ideal depth
constexpr double kIdealDepth = 3.0;
constexpr double kInversionPenalty = 0.006;   // per wider-after-narrower pair
constexpr double kSkipBonus = 0.003;          // per active skip, saturating
constexpr double kSkipSaturation = 4.0;
constexpr double kSkipExcessPenalty = 0.004;  // per skip beyond the saturation
constexpr double kNoLstmPenalty = 0.08;       // all-Identity stacks barely fit
constexpr double kFixedEffectSigma = 0.004;   // per-architecture idiosyncrasy
// Evaluation noise.
constexpr double kNoiseSigma = 0.006;         // per-evaluation training noise
constexpr double kFailureScale = 0.08;        // depth of the bad-init tail
// Duration model (seconds on one simulated KNL node, 20 epochs).
// Calibrated so a 3-h 128-node campaign completes ~8,000 AE evaluations
// and ~40 synchronous RL rounds, matching the paper's Table III counts.
constexpr double kDurationBase = 105.0;
constexpr double kDurationPerParam = 0.45e-3;
constexpr double kDurationSigma = 0.15;       // lognormal spread
constexpr std::uint64_t kSeed = 2020;

/// Deterministic standard normal from a 64-bit key.
double key_normal(std::uint64_t key) {
  std::uint64_t s1 = splitmix64(key);
  std::uint64_t s2 = splitmix64(key);
  double u1 = static_cast<double>(s1 >> 11) * 0x1.0p-53;
  const double u2 = static_cast<double>(s2 >> 11) * 0x1.0p-53;
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}
double key_uniform(std::uint64_t key) {
  std::uint64_t state = key;
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}
}  // namespace

SurrogateEvaluator::SurrogateEvaluator(
    const searchspace::StackedLSTMSpace& space, SurrogateConfig config)
    : space_(&space), cfg_(config) {}

double SurrogateEvaluator::mean_fitness(
    const searchspace::Architecture& arch) const {
  const auto s = space_->stats(arch);

  double fitness = kBase;

  // Capacity: a Gaussian well around the ideal total width.
  const double cap_dev =
      (static_cast<double>(s.total_units) - kIdealUnits) / kCapacitySpread;
  fitness -= kCapacityWeight * (1.0 - std::exp(-cap_dev * cap_dev));

  // Depth: quadratic penalty away from the ideal stack depth.
  const double depth_dev =
      (static_cast<double>(s.active_lstm_nodes) - kIdealDepth) / 1.5;
  fitness -= kDepthWeight * depth_dev * depth_dev;

  // Width ordering: funnel-shaped (non-increasing) stacks train better at
  // 20 epochs; each inversion costs a little.
  fitness -= kInversionPenalty * static_cast<double>(s.width_inversions);

  // Skips: a few help gradient flow; the benefit saturates and an excess
  // of projection paths starts to hurt at a 20-epoch budget.
  const auto skips = static_cast<double>(s.active_skips);
  fitness += kSkipBonus * std::min(skips, kSkipSaturation);
  fitness -= kSkipExcessPenalty * std::max(0.0, skips - kSkipSaturation);

  if (s.active_lstm_nodes == 0) fitness -= kNoLstmPenalty;

  // Per-architecture fixed effect (idiosyncratic trainability).
  fitness += kFixedEffectSigma * key_normal(hash_combine(kSeed, arch.hash()));
  return fitness;
}

hpc::EvalOutcome SurrogateEvaluator::evaluate(
    const searchspace::Architecture& arch, std::uint64_t eval_seed) {
  const auto s = space_->stats(arch);
  const std::uint64_t key = hash_combine(kSeed, eval_seed);

  double reward = mean_fitness(arch) +
                  kNoiseSigma * key_normal(hash_combine(key, 0xA11CEULL));
  // Occasional bad initialization: a heavy left tail, never a right one.
  if (key_uniform(hash_combine(key, 0xFA11ULL)) < cfg_.failure_prob) {
    reward -= std::abs(key_normal(hash_combine(key, 0xBADULL))) * kFailureScale;
  }
  // Cap at the best 20-epoch validation R^2 real trainings of this space
  // reach (the paper's search rewards top out around 0.965-0.98).
  reward = std::clamp(reward, -1.0, 0.982);

  const double duration =
      (kDurationBase + kDurationPerParam * static_cast<double>(s.params)) *
      std::exp(kDurationSigma * key_normal(hash_combine(key, 0xD04ULL)));

  return {reward, duration, s.params};
}

}  // namespace geonas::core
