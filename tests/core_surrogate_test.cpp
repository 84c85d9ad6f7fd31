// Surrogate evaluator: landscape calibration (random plateau vs optimum
// band), determinism, noise structure, and the duration model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/surrogate.hpp"
#include "io/binary.hpp"
#include "tensor/stats.hpp"

namespace geonas::core {
namespace {

using searchspace::Architecture;
using searchspace::StackedLSTMSpace;

TEST(Surrogate, DeterministicPerEvalSeed) {
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  Rng rng(1);
  const Architecture arch = space.random_architecture(rng);
  const auto a = oracle.evaluate(arch, 7);
  const auto b = oracle.evaluate(arch, 7);
  EXPECT_DOUBLE_EQ(a.reward, b.reward);
  EXPECT_DOUBLE_EQ(a.duration_seconds, b.duration_seconds);
  const auto c = oracle.evaluate(arch, 8);
  EXPECT_NE(a.reward, c.reward);  // retraining noise
}

TEST(Surrogate, RandomPlateauMatchesPaperBand) {
  // Fig 3: the RS moving-average plateau sits in 0.93-0.94.
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  Rng rng(2);
  std::vector<double> rewards;
  for (std::size_t i = 0; i < 3000; ++i) {
    rewards.push_back(
        oracle.evaluate(space.random_architecture(rng), i).reward);
  }
  const double m = mean(rewards);
  EXPECT_GT(m, 0.920);
  EXPECT_LT(m, 0.945);
}

TEST(Surrogate, OptimumRegionNearAEPlateau) {
  // A funnel stack near the ideal capacity with a few skips must reach the
  // paper's AE plateau (~0.96+).
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  std::vector<std::size_t> op_genes, skip_genes;
  for (std::size_t g = 0; g < space.num_genes(); ++g) {
    (space.is_skip_gene(g) ? skip_genes : op_genes).push_back(g);
  }
  Architecture ideal;
  ideal.genes.assign(space.num_genes(), 0);
  ideal.genes[op_genes[0]] = 5;  // LSTM(96)
  ideal.genes[op_genes[1]] = 4;  // LSTM(80)
  ideal.genes[op_genes[2]] = 2;  // LSTM(32) -> total 208 units
  for (std::size_t i = 0; i < 4; ++i) ideal.genes[skip_genes[i]] = 1;
  EXPECT_GT(oracle.mean_fitness(ideal), 0.960);
  EXPECT_LT(oracle.mean_fitness(ideal), 0.985);
}

TEST(Surrogate, AllIdentityIsPoor) {
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  Architecture empty;
  empty.genes.assign(space.num_genes(), 0);
  EXPECT_LT(oracle.mean_fitness(empty), 0.88);
}

TEST(Surrogate, RareHighPerformersAmongRandomDraws) {
  // Fig 8 threshold: R^2 > 0.96 should be rare but present in random
  // sampling (RS finds some, far fewer than AE).
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  Rng rng(3);
  std::size_t high = 0;
  const std::size_t n = 4000;
  for (std::size_t i = 0; i < n; ++i) {
    if (oracle.evaluate(space.random_architecture(rng), i).reward > 0.96) {
      ++high;
    }
  }
  EXPECT_GT(high, 0u);
  EXPECT_LT(static_cast<double>(high) / static_cast<double>(n), 0.10);
}

TEST(Surrogate, FailureTailOnlyHurts) {
  const StackedLSTMSpace space;
  SurrogateConfig cfg;
  cfg.failure_prob = 1.0;  // force the bad-init path every time
  SurrogateEvaluator with_failures(space, cfg);
  cfg.failure_prob = 0.0;
  SurrogateEvaluator without(space, cfg);
  Rng rng(4);
  const Architecture arch = space.random_architecture(rng);
  for (std::uint64_t s = 0; s < 50; ++s) {
    EXPECT_LE(with_failures.evaluate(arch, s).reward,
              without.evaluate(arch, s).reward + 1e-12);
  }
}

TEST(Surrogate, OutcomeBitsPinned) {
  // CRC-32 of (reward, duration_seconds, params) for 256 random draws,
  // each evaluated under its own eval_seed. Every landscape weight, the
  // noise and failure-tail scales, the duration model and the seed feed
  // these bytes, and through them every campaign on the surrogate
  // (Figs 3, 8 and 9, Table III, the e2e winner).
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  Rng rng(5);
  std::uint32_t crc = 0;
  for (std::uint64_t i = 0; i < 256; ++i) {
    const auto out = oracle.evaluate(space.random_architecture(rng), i);
    const double fields[] = {out.reward, out.duration_seconds,
                             static_cast<double>(out.params)};
    crc = io::crc32_update(crc, fields, sizeof(fields));
  }
  EXPECT_EQ(crc, 0xcb661e6au);
}

TEST(Surrogate, DurationGrowsWithParams) {
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  Architecture small;
  small.genes.assign(space.num_genes(), 0);
  Architecture large;
  large.genes.assign(space.num_genes(), 0);
  for (std::size_t g = 0; g < space.num_genes(); ++g) {
    if (!space.is_skip_gene(g)) large.genes[g] = 5;  // five LSTM(96)
  }
  // Compare average durations over seeds (lognormal noise).
  double d_small = 0.0, d_large = 0.0;
  for (std::uint64_t s = 0; s < 20; ++s) {
    d_small += oracle.evaluate(small, s).duration_seconds;
    d_large += oracle.evaluate(large, s).duration_seconds;
  }
  EXPECT_GT(d_large, 1.8 * d_small);
  // Typical magnitudes: minutes, not hours (paper: ~minutes per training).
  EXPECT_GT(d_small / 20.0, 20.0);
  EXPECT_LT(d_large / 20.0, 1200.0);
}

TEST(Surrogate, RewardsAreBoundedAndFinite) {
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  Rng rng(5);
  for (std::size_t i = 0; i < 500; ++i) {
    const auto out = oracle.evaluate(space.random_architecture(rng), i);
    ASSERT_TRUE(std::isfinite(out.reward));
    ASSERT_LE(out.reward, 0.995);
    ASSERT_GE(out.reward, -1.0);
    ASSERT_GT(out.duration_seconds, 0.0);
  }
}

TEST(Surrogate, MutationNeighborhoodIsSmooth) {
  // AE climbs only if one-gene mutations usually change mean fitness by a
  // small amount: landscape must be locally smooth.
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  Rng rng(6);
  std::size_t small_steps = 0;
  const std::size_t trials = 300;
  for (std::size_t i = 0; i < trials; ++i) {
    const Architecture parent = space.random_architecture(rng);
    const Architecture child = space.mutate(parent, rng);
    const double delta =
        std::abs(oracle.mean_fitness(child) - oracle.mean_fitness(parent));
    if (delta < 0.03) ++small_steps;
  }
  EXPECT_GT(static_cast<double>(small_steps) / static_cast<double>(trials),
            0.8);
}

}  // namespace
}  // namespace geonas::core
