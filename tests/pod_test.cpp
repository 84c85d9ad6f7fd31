// POD properties (paper eqs. 1-8): orthonormal basis, exact full-rank
// reconstruction, the analytic/empirical projection-error identity, energy
// monotonicity, and parameterized (Nh, Ns, Nr) sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "data/landmask.hpp"
#include "data/sst.hpp"
#include "io/binary.hpp"
#include "pod/pod.hpp"
#include "tensor/blas.hpp"
#include "tensor/random.hpp"

namespace geonas {
namespace {

/// Low-rank-plus-noise snapshot generator: rank `r` deterministic structure
/// with optional noise — the same shape class as geophysical fields.
Matrix synthetic_snapshots(std::size_t nh, std::size_t ns, std::size_t rank,
                           double noise, Rng& rng) {
  Matrix u(nh, rank), v(rank, ns);
  for (double& x : u.flat()) x = rng.normal();
  for (std::size_t k = 0; k < rank; ++k) {
    const double scale = std::pow(2.0, static_cast<double>(rank - k));
    for (std::size_t j = 0; j < ns; ++j) {
      v(k, j) = scale * std::sin(0.1 * static_cast<double>((k + 1) * j) +
                                 static_cast<double>(k));
    }
  }
  Matrix s = matmul(u, v);
  for (double& x : s.flat()) x += noise * rng.normal();
  return s;
}

TEST(POD, RejectsBadArguments) {
  pod::POD p;
  EXPECT_THROW(p.fit(Matrix{}, {.num_modes = 1}), std::invalid_argument);
  Matrix s(10, 4, 1.0);
  EXPECT_THROW(p.fit(s, {.num_modes = 5}), std::invalid_argument);
  EXPECT_THROW(p.fit(s, {.num_modes = 0}), std::invalid_argument);
  EXPECT_THROW((void)p.project(s), std::logic_error);
}

/// io's CRC-32 of the bytes of `values`.
std::uint32_t crc_of(std::span<const double> values) {
  return io::crc32_update(0, values.data(), values.size() * sizeof(double));
}

TEST(POD, QuickScaleBasisPinned) {
  // The first stage after the snapshots (SST.SnapshotBytesPinned pins
  // this input): the 5-mode basis and the 427 eigenvalues of the
  // quick-scale fit. The pipeline's coefficients, both R² values and
  // every campaign digest are computed from them, so a numerics change
  // that moves them shows here first. Captured with the default build
  // options, like SST.SnapshotBytesPinned.
  const data::LandMask mask(data::Grid{45, 90}, 7);
  pod::POD p;
  p.fit(data::SyntheticSST().snapshots(mask, 0, 427), {.num_modes = 5});
  EXPECT_EQ(crc_of(p.basis().flat()), 0xfae0c6abu)
      << std::hex << crc_of(p.basis().flat());
  EXPECT_EQ(crc_of(p.eigenvalues()), 0x46364448u)
      << std::hex << crc_of(p.eigenvalues());
}

TEST(POD, RejectsNonFiniteSnapshots) {
  // Unchecked, an inf snapshot becomes a NaN basis without a word.
  Rng rng(24);
  Matrix s = synthetic_snapshots(10, 4, 2, 0.1, rng);
  s(7, 2) = std::numeric_limits<double>::infinity();
  pod::POD p;
  try {
    p.fit(s, {.num_modes = 2});
    FAIL() << "inf snapshot accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("POD::fit"), std::string::npos) << what;
    EXPECT_NE(what.find("inf at (7, 2)"), std::string::npos) << what;
  }
  EXPECT_FALSE(p.fitted());
  s(7, 2) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(p.fit(s, {.num_modes = 2}), std::invalid_argument);
}

TEST(POD, BasisIsOrthonormal) {
  Rng rng(21);
  const Matrix s = synthetic_snapshots(60, 20, 5, 0.05, rng);
  pod::POD p;
  p.fit(s, {.num_modes = 5});
  const Matrix& psi = p.basis();
  const Matrix g = matmul_at_b(psi, psi);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(g(i, j), i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(POD, FullRankReconstructionIsExact) {
  Rng rng(22);
  // Mean subtraction reduces the snapshot rank to Ns - 1, so Ns - 1 modes
  // reconstruct centered data exactly.
  const Matrix s = synthetic_snapshots(40, 12, 12, 0.2, rng);
  pod::POD p;
  p.fit(s, {.num_modes = 11});
  const Matrix a = p.project(s);
  const Matrix recon = p.reconstruct(a);
  double scale = 0.0;
  for (const double v : s.flat()) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(recon.flat()[i], s.flat()[i], 1e-8 * scale);
  }
}

TEST(POD, LowRankDataExactlyCapturedByRank) {
  Rng rng(23);
  // Exactly rank-3 data: 3 modes must reconstruct perfectly.
  const Matrix s = synthetic_snapshots(50, 15, 3, 0.0, rng);
  pod::POD p;
  p.fit(s, {.num_modes = 3});
  EXPECT_NEAR(p.empirical_projection_error(s), 0.0, 1e-10);
  EXPECT_NEAR(p.energy_captured(3), 1.0, 1e-10);
}

TEST(POD, ProjectionErrorIdentityEq8) {
  Rng rng(24);
  const Matrix s = synthetic_snapshots(80, 25, 8, 0.3, rng);
  for (std::size_t nr : {2UL, 4UL, 6UL, 10UL}) {
    pod::POD p;
    p.fit(s, {.num_modes = nr});
    // Empirical relative projection error on the fitted snapshots equals
    // the eigenvalue-tail identity of eq. (8).
    EXPECT_NEAR(p.empirical_projection_error(s), p.analytic_projection_error(),
                1e-9)
        << "Nr=" << nr;
  }
}

TEST(POD, EnergyMonotoneIncreasing) {
  Rng rng(25);
  const Matrix s = synthetic_snapshots(60, 18, 6, 0.2, rng);
  pod::POD p;
  p.fit(s, {.num_modes = 5});
  double prev = 0.0;
  for (std::size_t m = 1; m <= 18; ++m) {
    const double e = p.energy_captured(m);
    EXPECT_GE(e, prev - 1e-12);
    prev = e;
  }
  EXPECT_NEAR(p.energy_captured(18), 1.0, 1e-9);
}

TEST(POD, MeanSubtractionStored) {
  Matrix s(4, 3);
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t i = 0; i < 4; ++i) {
      s(i, j) = static_cast<double>(i) + static_cast<double>(j + 1);
    }
  }
  pod::POD p;
  p.fit(s, {.num_modes = 1, .subtract_mean = true});
  ASSERT_EQ(p.temporal_mean().size(), 4u);
  EXPECT_NEAR(p.temporal_mean()[0], 2.0, 1e-12);  // (1+2+3)/3
  EXPECT_NEAR(p.temporal_mean()[3], 5.0, 1e-12);
}

TEST(POD, NoMeanSubtractionOption) {
  Rng rng(26);
  const Matrix s = synthetic_snapshots(30, 10, 4, 0.1, rng);
  pod::POD p;
  p.fit(s, {.num_modes = 4, .subtract_mean = false});
  EXPECT_TRUE(p.temporal_mean().empty());
  // Reconstruction through projection still approximates the data.
  const Matrix recon = p.reconstruct(p.project(s));
  EXPECT_LT((recon - s).frobenius_norm() / s.frobenius_norm(), 0.6);
}

TEST(POD, ProjectUsesTrainingMeanOnNewData) {
  Rng rng(27);
  const Matrix train = synthetic_snapshots(40, 14, 4, 0.05, rng);
  const Matrix test = synthetic_snapshots(40, 6, 4, 0.05, rng);
  pod::POD p;
  p.fit(train, {.num_modes = 4});
  const Matrix a = p.project(test);
  EXPECT_EQ(a.rows(), 4u);
  EXPECT_EQ(a.cols(), 6u);
  EXPECT_THROW((void)p.project(Matrix(39, 6)), std::invalid_argument);
}

struct PodSweepParam {
  std::size_t nh, ns, rank, nr;
};

class PodSweep : public ::testing::TestWithParam<PodSweepParam> {};

TEST_P(PodSweep, ReconstructionErrorMatchesTailEnergy) {
  const auto param = GetParam();
  Rng rng(1000 + param.nh + param.ns);
  const Matrix s =
      synthetic_snapshots(param.nh, param.ns, param.rank, 0.15, rng);
  pod::POD p;
  p.fit(s, {.num_modes = param.nr});
  EXPECT_EQ(p.num_modes(), param.nr);
  EXPECT_EQ(p.num_dof(), param.nh);
  EXPECT_NEAR(p.empirical_projection_error(s), p.analytic_projection_error(),
              1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PodSweep,
    ::testing::Values(PodSweepParam{30, 10, 3, 2}, PodSweepParam{64, 16, 5, 5},
                      PodSweepParam{100, 30, 8, 4},
                      PodSweepParam{128, 20, 10, 10},
                      PodSweepParam{50, 50, 6, 3}));

TEST(POD, ReconstructShapeValidation) {
  Rng rng(28);
  const Matrix s = synthetic_snapshots(30, 10, 4, 0.1, rng);
  pod::POD p;
  p.fit(s, {.num_modes = 3});
  EXPECT_THROW((void)p.reconstruct(Matrix(4, 2)), std::invalid_argument);
}

}  // namespace
}  // namespace geonas
