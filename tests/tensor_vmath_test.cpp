// Enforces the tensor::vmath contract (vmath.hpp header comment): the
// dispatched vexp/vtanh/vsigmoid stay within 4 ULP of the scalar
// std-math reference across the training-relevant range, saturate
// exactly at the IEEE-754 limits, preserve signed zero and denormals
// where the function is ~identity, and propagate NaN. The fused LSTM
// pointwise kernels are checked A/B against plain reference loops and
// against finite-difference gradient oracles built from the forward
// kernels themselves.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/random.hpp"
#include "tensor/vmath.hpp"

namespace geonas::tensor {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Distance in representable doubles between two finite values of the
/// same sign regime (maps the sign-magnitude bit pattern to a linear
/// ordering, the standard ULP metric).
std::uint64_t ulp_distance(double a, double b) {
  auto ordered = [](double v) -> std::int64_t {
    const auto bits = std::bit_cast<std::int64_t>(v);
    return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
  };
  const std::int64_t ia = ordered(a);
  const std::int64_t ib = ordered(b);
  return ia > ib ? static_cast<std::uint64_t>(ia - ib)
                 : static_cast<std::uint64_t>(ib - ia);
}

/// Asserts both values are bitwise identical (covers NaN payloads and
/// signed zero, which EXPECT_DOUBLE_EQ cannot distinguish).
void expect_bits(double got, double want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": got " << got << ", want " << want;
}

std::vector<double> apply_span(void (*fn)(std::span<const double>,
                                          std::span<double>),
                               const std::vector<double>& x) {
  std::vector<double> out(x.size());
  fn(std::span<const double>(x), std::span<double>(out));
  return out;
}

double fn_exp(double x) { return vref::exp(x); }
double fn_tanh(double x) { return vref::tanh(x); }
double fn_sigmoid(double x) { return vref::sigmoid(x); }

struct SweepCase {
  const char* name;
  void (*vec)(std::span<const double>, std::span<double>);
  double (*ref)(double);
};

TEST(Vmath, BackendNameIsKnown) {
  const std::string backend = vmath_backend();
  EXPECT_TRUE(backend == "avx2-fma" || backend == "portable-fma")
      << "unexpected backend: " << backend;
}

TEST(Vmath, UlpSweepAgainstScalarReference) {
  // 2e5 points across [-50, 50]: covers the documented [-40, 40] budget
  // window plus the saturated shoulders. Budget: 4 ULP (measured: 2).
  constexpr std::size_t kPoints = 200001;
  std::vector<double> x(kPoints);
  for (std::size_t i = 0; i < kPoints; ++i) {
    x[i] = -50.0 + 100.0 * static_cast<double>(i) /
                       static_cast<double>(kPoints - 1);
  }
  const SweepCase cases[] = {{"vexp", &vexp, &fn_exp},
                             {"vtanh", &vtanh, &fn_tanh},
                             {"vsigmoid", &vsigmoid, &fn_sigmoid}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<double> got = apply_span(c.vec, x);
    std::uint64_t worst = 0;
    double worst_x = 0.0;
    for (std::size_t i = 0; i < kPoints; ++i) {
      const double want = c.ref(x[i]);
      const std::uint64_t d = ulp_distance(got[i], want);
      if (d > worst) {
        worst = d;
        worst_x = x[i];
      }
    }
    EXPECT_LE(worst, 4u) << c.name << " worst ULP error at x=" << worst_x;
  }
}

TEST(Vmath, ExpSaturatesAtIeeeLimits) {
  // Overflow threshold 709.78..., underflow-to-zero threshold -745.13...
  const std::vector<double> x{710.0, 1e308, kInf, -746.0, -1e308, -kInf};
  const std::vector<double> y = apply_span(&vexp, x);
  expect_bits(y[0], kInf, "exp(710)");
  expect_bits(y[1], kInf, "exp(1e308)");
  expect_bits(y[2], kInf, "exp(inf)");
  expect_bits(y[3], 0.0, "exp(-746)");
  expect_bits(y[4], 0.0, "exp(-1e308)");
  expect_bits(y[5], 0.0, "exp(-inf)");
}

TEST(Vmath, TanhSaturatesAndPreservesSignedZeroAndDenormals) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double tiny = 1e-310;  // subnormal
  const std::vector<double> x{50.0,  1e300, kInf,  -50.0, -1e300, -kInf,
                              0.0,   -0.0,  denorm, -denorm, tiny, -tiny};
  const std::vector<double> y = apply_span(&vtanh, x);
  expect_bits(y[0], 1.0, "tanh(50)");
  expect_bits(y[1], 1.0, "tanh(1e300)");
  expect_bits(y[2], 1.0, "tanh(inf)");
  expect_bits(y[3], -1.0, "tanh(-50)");
  expect_bits(y[4], -1.0, "tanh(-1e300)");
  expect_bits(y[5], -1.0, "tanh(-inf)");
  expect_bits(y[6], 0.0, "tanh(+0)");
  expect_bits(y[7], -0.0, "tanh(-0)");
  // tanh(x) == x for subnormals: the function is the identity to within
  // less than half an ULP there, and flushing would lose the value.
  expect_bits(y[8], denorm, "tanh(denorm_min)");
  expect_bits(y[9], -denorm, "tanh(-denorm_min)");
  expect_bits(y[10], tiny, "tanh(1e-310)");
  expect_bits(y[11], -tiny, "tanh(-1e-310)");
}

TEST(Vmath, SigmoidSaturatesWithoutOverflow) {
  // Regression for the naive 1/(1+exp(-x)) form: exp(750) overflows to
  // inf and the division turns the saturated tail into garbage/NaN. The
  // two-sided form must return exact 0/1 at |x| = 750.
  const std::vector<double> x{750.0, kInf, -750.0, -kInf, 0.0, -0.0};
  const std::vector<double> y = apply_span(&vsigmoid, x);
  expect_bits(y[0], 1.0, "sigmoid(750)");
  expect_bits(y[1], 1.0, "sigmoid(inf)");
  expect_bits(y[2], 0.0, "sigmoid(-750)");
  expect_bits(y[3], 0.0, "sigmoid(-inf)");
  expect_bits(y[4], 0.5, "sigmoid(+0)");
  expect_bits(y[5], 0.5, "sigmoid(-0)");
  // The scalar reference shares the two-sided form.
  expect_bits(vref::sigmoid(750.0), 1.0, "vref::sigmoid(750)");
  expect_bits(vref::sigmoid(-750.0), 0.0, "vref::sigmoid(-750)");
}

TEST(Vmath, NanPropagates) {
  const std::vector<double> x{kNaN, 1.0, kNaN};
  for (auto* fn : {&vexp, &vtanh, &vsigmoid}) {
    const std::vector<double> y = apply_span(fn, x);
    EXPECT_TRUE(std::isnan(y[0]));
    EXPECT_FALSE(std::isnan(y[1]));
    EXPECT_TRUE(std::isnan(y[2]));
  }
  EXPECT_TRUE(std::isnan(vref::exp(kNaN)));
  EXPECT_TRUE(std::isnan(vref::tanh(kNaN)));
  EXPECT_TRUE(std::isnan(vref::sigmoid(kNaN)));
}

TEST(Vmath, InPlaceAliasingMatchesOutOfPlace) {
  Rng rng(41);
  std::vector<double> x(1037);  // odd size: exercises the SIMD tail
  for (double& v : x) v = rng.uniform(-10.0, 10.0);
  const std::vector<double> want = apply_span(&vtanh, x);
  std::vector<double> inplace = x;
  vtanh(std::span<const double>(inplace), std::span<double>(inplace));
  ASSERT_EQ(inplace.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_bits(inplace[i], want[i], "in-place vtanh[" + std::to_string(i) +
                                         "]");
  }
}

TEST(Vmath, SpanSizeMismatchThrows) {
  std::vector<double> x(8), out(7);
  EXPECT_THROW(vexp(std::span<const double>(x), std::span<double>(out)),
               std::invalid_argument);
}

TEST(Vmath, LaneAndTailAgreeBitwise) {
  // vmath.hpp promises that an element computed in a loop tail (the
  // portable-fma mirror) has the bits the same element gets in a SIMD
  // lane. The whole 4,096-element span runs every input in a lane: its
  // length is a multiple of 4, and a kernel-pool split cuts it only at
  // multiples of the grain, 4. Each input alone, as a 1-element span,
  // runs in the tail. The inputs are seeded values on [-45, 45] plus the
  // edge cases: signed zeros, a denormal, infinities, NaN, and +-710 and
  // +-746 (past exp's overflow and underflow limits).
  std::vector<double> x = {0.0,   -0.0,  4.9e-324, kInf,   -kInf,
                           kNaN,  710.0, -710.0,   746.0, -746.0};
  Rng rng(43);
  while (x.size() < 4096) x.push_back(rng.uniform(-45.0, 45.0));
  const SweepCase cases[] = {{"vexp", &vexp, &fn_exp},
                             {"vtanh", &vtanh, &fn_tanh},
                             {"vsigmoid", &vsigmoid, &fn_sigmoid}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<double> lanes = apply_span(c.vec, x);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      double tail = 0.0;
      c.vec(std::span<const double>(&x[i], 1), std::span<double>(&tail, 1));
      if (std::bit_cast<std::uint64_t>(tail) !=
          std::bit_cast<std::uint64_t>(lanes[i])) {
        if (mismatches == 0) expect_bits(tail, lanes[i], "first mismatch");
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

// ---------------------------------------------------------------------
// Fused LSTM pointwise kernels.
// ---------------------------------------------------------------------

struct LstmFixture {
  static constexpr std::size_t kRows = 5, kUnits = 7, kStride = 3 * kUnits;
  std::vector<double> z, c_prev, c_new, h_new, h_out;

  explicit LstmFixture(std::uint64_t seed)
      : z(kRows * 4 * kUnits),
        c_prev(kRows * kUnits),
        c_new(kRows * kUnits),
        h_new(kRows * kUnits),
        h_out(kRows * kStride) {
    Rng rng(seed);
    for (double& v : z) v = rng.uniform(-3.0, 3.0);
    for (double& v : c_prev) v = rng.uniform(-2.0, 2.0);
  }
  void run() {
    lstm_pointwise_forward(kRows, kUnits, z.data(), c_prev.data(),
                           c_new.data(), h_new.data(), h_out.data(), kStride);
  }
};

TEST(VmathLstm, FusedForwardMatchesReferenceLoop) {
  LstmFixture fx(7);
  const std::vector<double> z_in = fx.z;
  fx.run();
  constexpr std::size_t u = LstmFixture::kUnits;
  for (std::size_t r = 0; r < LstmFixture::kRows; ++r) {
    for (std::size_t i = 0; i < u; ++i) {
      const double* zr = z_in.data() + r * 4 * u;
      const double ig = vref::sigmoid(zr[i]);
      const double fg = vref::sigmoid(zr[u + i]);
      const double gg = vref::tanh(zr[2 * u + i]);
      const double og = vref::sigmoid(zr[3 * u + i]);
      const double c = fg * fx.c_prev[r * u + i] + ig * gg;
      const double h = og * vref::tanh(c);
      // Backend tolerance: a couple ULP per transcendental, magnitudes
      // are O(1), so 1e-12 absolute leaves a wide deterministic margin.
      EXPECT_NEAR(fx.z[r * 4 * u + i], ig, 1e-12);
      EXPECT_NEAR(fx.z[r * 4 * u + u + i], fg, 1e-12);
      EXPECT_NEAR(fx.z[r * 4 * u + 2 * u + i], gg, 1e-12);
      EXPECT_NEAR(fx.z[r * 4 * u + 3 * u + i], og, 1e-12);
      EXPECT_NEAR(fx.c_new[r * u + i], c, 1e-12);
      EXPECT_NEAR(fx.h_new[r * u + i], h, 1e-12);
      // h_out scatter honors the output-tensor stride.
      expect_bits(fx.h_out[r * LstmFixture::kStride + i],
                  fx.h_new[r * u + i], "h_out scatter");
    }
  }
}

TEST(VmathLstm, LaneAndTailAgreeBitwise) {
  // With 5 units the AVX2 kernels run columns 0-3 of each row in SIMD
  // lanes and column 4 in the scalar tail. Column 4 gets column 0's
  // inputs, so both stages must write column 0's bits there.
  constexpr std::size_t kRows = 64, kUnits = 5, kTail = 4;
  Rng rng(44);
  std::vector<double> z(kRows * 4 * kUnits), c_prev(kRows * kUnits);
  std::vector<double> grad_out(kRows * kUnits), dh(kRows * kUnits);
  std::vector<double> dc(kRows * kUnits);
  for (double& v : z) v = rng.uniform(-6.0, 6.0);
  for (double& v : c_prev) v = rng.uniform(-3.0, 3.0);
  for (double& v : grad_out) v = rng.uniform(-1.0, 1.0);
  for (double& v : dh) v = rng.uniform(-1.0, 1.0);
  for (double& v : dc) v = rng.uniform(-1.0, 1.0);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t gate = 0; gate < 4; ++gate) {
      double* zr = z.data() + r * 4 * kUnits + gate * kUnits;
      zr[kTail] = zr[0];
    }
    for (auto* slab : {&c_prev, &grad_out, &dh, &dc}) {
      (*slab)[r * kUnits + kTail] = (*slab)[r * kUnits];
    }
  }
  std::vector<double> c_new(kRows * kUnits), h_new(kRows * kUnits);
  std::vector<double> h_out(kRows * kUnits);
  lstm_pointwise_forward(kRows, kUnits, z.data(), c_prev.data(), c_new.data(),
                         h_new.data(), h_out.data(), kUnits);
  std::vector<double> dz(kRows * 4 * kUnits);
  lstm_pointwise_backward(kRows, kUnits, z.data(), c_prev.data(),
                          c_new.data(), grad_out.data(), kUnits, dh.data(),
                          dc.data(), dz.data());
  const auto same = [](const std::vector<double>& v, std::size_t base) {
    return std::bit_cast<std::uint64_t>(v[base + kTail]) ==
           std::bit_cast<std::uint64_t>(v[base]);
  };
  std::size_t mismatches = 0;
  for (std::size_t r = 0; r < kRows; ++r) {
    for (const auto* slab : {&c_new, &h_new, &h_out, &dc}) {
      if (!same(*slab, r * kUnits)) ++mismatches;
    }
    for (std::size_t gate = 0; gate < 4; ++gate) {
      const std::size_t base = r * 4 * kUnits + gate * kUnits;
      if (!same(z, base)) ++mismatches;
      if (!same(dz, base)) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(VmathLstm, FusedBackwardMatchesFiniteDifferences) {
  // Oracle: loss = sum(gout .* h_out) + sum(wc .* c_new) with carried
  // dh = 0 and carried dc = wc fed to the backward kernel. dz must match
  // d(loss)/d(z preactivations) and the rewritten dc must match
  // d(loss)/d(c_prev), both by central differences over the forward
  // kernel itself.
  constexpr std::size_t kRows = 3, kUnits = 4, kStride = kUnits;
  Rng rng(13);
  std::vector<double> z0(kRows * 4 * kUnits), c0(kRows * kUnits);
  std::vector<double> gout(kRows * kUnits), wc(kRows * kUnits);
  for (double& v : z0) v = rng.uniform(-2.0, 2.0);
  for (double& v : c0) v = rng.uniform(-1.5, 1.5);
  for (double& v : gout) v = rng.uniform(-1.0, 1.0);
  for (double& v : wc) v = rng.uniform(-1.0, 1.0);

  auto loss = [&](const std::vector<double>& z_in,
                  const std::vector<double>& c_in) {
    std::vector<double> z = z_in, cn(kRows * kUnits), hn(kRows * kUnits),
        ho(kRows * kUnits);
    lstm_pointwise_forward(kRows, kUnits, z.data(), c_in.data(), cn.data(),
                           hn.data(), ho.data(), kStride);
    double acc = 0.0;
    for (std::size_t i = 0; i < gout.size(); ++i) {
      acc += gout[i] * ho[i] + wc[i] * cn[i];
    }
    return acc;
  };

  // Analytic gradients from the fused backward kernel.
  std::vector<double> gates = z0, cn(kRows * kUnits), hn(kRows * kUnits),
      ho(kRows * kUnits);
  lstm_pointwise_forward(kRows, kUnits, gates.data(), c0.data(), cn.data(),
                         hn.data(), ho.data(), kStride);
  std::vector<double> dh(kRows * kUnits, 0.0), dc = wc;
  std::vector<double> dz(kRows * 4 * kUnits, 0.0);
  lstm_pointwise_backward(kRows, kUnits, gates.data(), c0.data(), cn.data(),
                          gout.data(), kStride, dh.data(), dc.data(),
                          dz.data());

  const double eps = 1e-6;
  for (std::size_t j = 0; j < z0.size(); ++j) {
    std::vector<double> zp = z0, zm = z0;
    zp[j] += eps;
    zm[j] -= eps;
    const double fd = (loss(zp, c0) - loss(zm, c0)) / (2.0 * eps);
    EXPECT_NEAR(dz[j], fd, 1e-6) << "dz[" << j << "]";
  }
  for (std::size_t j = 0; j < c0.size(); ++j) {
    std::vector<double> cp = c0, cm = c0;
    cp[j] += eps;
    cm[j] -= eps;
    const double fd = (loss(z0, cp) - loss(z0, cm)) / (2.0 * eps);
    EXPECT_NEAR(dc[j], fd, 1e-6) << "dc_prev[" << j << "]";
  }
}

// ---------------------------------------------------------------------
// Recurrent bias gradient reduction.
// ---------------------------------------------------------------------

/// Column sums of a time-major [steps * rows, width] slab, t descending
/// and rows ascending: the order BPTT produces the rows in.
std::vector<double> bias_reference(std::size_t steps, std::size_t rows,
                                   std::size_t width,
                                   const std::vector<double>& d,
                                   std::vector<double> bias) {
  for (std::size_t t = steps; t-- > 0;) {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < width; ++j) {
        bias[j] += d[(t * rows + r) * width + j];
      }
    }
  }
  return bias;
}

TEST(VmathRecurrent, BiasGradientSumsTimeDescendingRowsAscending) {
  // The fused backward kernels leave the bias gradient alone; the layers
  // reduce it once over the whole pre-activation gradient slab after
  // BPTT. The first slab comes from the LSTM's fused backward stage, one
  // timestep per call; the second is seeded random values of a width
  // that is not a multiple of 4, reduced into a gradient that starts at
  // zero. The reduction must equal the reference sum bitwise, also when
  // it accumulates into an existing gradient.
  constexpr std::size_t kSteps = 3, kRows = 3;
  {
    constexpr std::size_t kUnits = 4, kWidth = 4 * kUnits;
    Rng rng(13);
    std::vector<double> dz(kSteps * kRows * kWidth);
    for (std::size_t t = 0; t < kSteps; ++t) {
      std::vector<double> gates(kRows * kWidth), c0(kRows * kUnits),
          cn(kRows * kUnits), hn(kRows * kUnits), ho(kRows * kUnits),
          gout(kRows * kUnits), dh(kRows * kUnits, 0.0), dc(kRows * kUnits);
      for (double& v : gates) v = rng.uniform(-2.0, 2.0);
      for (double& v : c0) v = rng.uniform(-1.5, 1.5);
      for (double& v : gout) v = rng.uniform(-1.0, 1.0);
      for (double& v : dc) v = rng.uniform(-1.0, 1.0);
      lstm_pointwise_forward(kRows, kUnits, gates.data(), c0.data(),
                             cn.data(), hn.data(), ho.data(), kUnits);
      lstm_pointwise_backward(kRows, kUnits, gates.data(), c0.data(),
                              cn.data(), gout.data(), kUnits, dh.data(),
                              dc.data(), dz.data() + t * kRows * kWidth);
    }
    std::vector<double> bias(kWidth);
    for (double& v : bias) v = rng.uniform(-1.0, 1.0);
    const std::vector<double> want =
        bias_reference(kSteps, kRows, kWidth, dz, bias);
    recurrent_bias_grad(kSteps, kRows, kWidth, dz.data(), bias.data());
    for (std::size_t g = 0; g < kWidth; ++g) {
      expect_bits(bias[g], want[g], "lstm bias[" + std::to_string(g) + "]");
    }
  }
  {
    constexpr std::size_t kWidth = 15;
    Rng rng(29);
    std::vector<double> d(kSteps * kRows * kWidth);
    for (double& v : d) v = rng.uniform(-1.0, 1.0);
    std::vector<double> bias(kWidth, 0.0);
    const std::vector<double> want =
        bias_reference(kSteps, kRows, kWidth, d, bias);
    recurrent_bias_grad(kSteps, kRows, kWidth, d.data(), bias.data());
    for (std::size_t g = 0; g < kWidth; ++g) {
      expect_bits(bias[g], want[g], "bias[" + std::to_string(g) + "]");
    }
  }
}

}  // namespace
}  // namespace geonas::tensor
