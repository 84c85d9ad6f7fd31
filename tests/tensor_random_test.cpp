// RNG determinism, distribution moments, and sampling utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "tensor/random.hpp"

namespace geonas {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-5.0, 5.0);
    ASSERT_GE(u, -5.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMoments) {
  Rng rng(4);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sq += u * u;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.01);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, UniformIndexInBoundsAndCoversAll) {
  Rng rng(6);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::size_t idx = rng.uniform_index(7);
    ASSERT_LT(idx, 7u);
    seen.insert(idx);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(8);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, LognormalPositive) {
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
  }
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(12);
  for (int trial = 0; trial < 100; ++trial) {
    const auto sample = rng.sample_without_replacement(20, 10);
    ASSERT_EQ(sample.size(), 10u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    ASSERT_EQ(unique.size(), 10u);
    for (std::size_t idx : sample) ASSERT_LT(idx, 20u);
  }
  EXPECT_THROW((void)rng.sample_without_replacement(3, 4),
               std::invalid_argument);
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(13);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next() == child.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(SplitMix, HashCombineIsDeterministicAndSpread) {
  EXPECT_EQ(hash_combine(1, 2), hash_combine(1, 2));
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_NE(hash_combine(0, 0), 0u);
}

}  // namespace
}  // namespace geonas
