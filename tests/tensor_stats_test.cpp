// Statistics & metric identities: R^2, RMSE, moving average, running stats.
#include <gtest/gtest.h>

#include <cmath>

#include "tensor/stats.hpp"

namespace geonas {
namespace {

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(x), 2.5);
  EXPECT_DOUBLE_EQ(variance(x), 1.25);
  EXPECT_DOUBLE_EQ(stddev(x), std::sqrt(1.25));
  EXPECT_THROW((void)mean(std::vector<double>{}), std::invalid_argument);
}

TEST(Stats, R2PerfectPrediction) {
  const std::vector<double> t{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(r2_score(t, t), 1.0);
}

TEST(Stats, R2MeanPredictionIsZero) {
  const std::vector<double> t{1.0, 2.0, 3.0};
  const std::vector<double> p{2.0, 2.0, 2.0};
  EXPECT_NEAR(r2_score(t, p), 0.0, 1e-12);
}

TEST(Stats, R2WorseThanMeanIsNegative) {
  const std::vector<double> t{1.0, 2.0, 3.0};
  const std::vector<double> p{3.0, 2.0, 1.0};
  EXPECT_LT(r2_score(t, p), 0.0);
}

TEST(Stats, R2ConstantTruth) {
  const std::vector<double> t{2.0, 2.0};
  EXPECT_DOUBLE_EQ(r2_score(t, t), 1.0);
  EXPECT_DOUBLE_EQ(r2_score(t, std::vector<double>{1.0, 3.0}), 0.0);
}

TEST(Stats, R2MatrixOverload) {
  const Matrix t{{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(r2_score(t, t), 1.0);
}

TEST(Stats, RmseAndMae) {
  const std::vector<double> t{0.0, 0.0};
  const std::vector<double> p{3.0, 4.0};
  EXPECT_DOUBLE_EQ(rmse(t, p), std::sqrt(12.5));
}

TEST(Stats, PearsonPerfectAndAnti) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> y{2.0, 4.0, 6.0};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  const std::vector<double> z{3.0, 2.0, 1.0};
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(Stats, MovingAverageWindow) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto ma = moving_average(x, 2);
  ASSERT_EQ(ma.size(), 5u);
  EXPECT_DOUBLE_EQ(ma[0], 1.0);        // partial window
  EXPECT_DOUBLE_EQ(ma[1], 1.5);
  EXPECT_DOUBLE_EQ(ma[4], 4.5);
}

TEST(Stats, MovingAverageWindowLargerThanSeries) {
  const std::vector<double> x{2.0, 4.0};
  const auto ma = moving_average(x, 100);
  EXPECT_DOUBLE_EQ(ma[0], 2.0);
  EXPECT_DOUBLE_EQ(ma[1], 3.0);
}

TEST(Stats, RunningStatsMatchesBatch) {
  const std::vector<double> x{3.0, -1.0, 4.0, 1.0, -5.0, 9.0};
  RunningStats rs;
  for (double v : x) rs.add(v);
  EXPECT_EQ(rs.count(), x.size());
  EXPECT_NEAR(rs.mean(), mean(x), 1e-12);
  EXPECT_NEAR(rs.variance(), variance(x), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), -5.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

}  // namespace
}  // namespace geonas
