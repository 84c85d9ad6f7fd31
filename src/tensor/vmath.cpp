// Vectorized transcendental kernels with runtime backend dispatch.
// See tensor/vmath.hpp for the backend/accuracy/determinism contracts.
//
// The polynomial cores are Cephes-style rational approximations
// (Moshier): exp as 2^n * R(r) after Cody-Waite argument reduction
// r = x - n*ln2 (split constant), tanh as x + x^3 P(x^2)/Q(x^2) below
// 0.625 and 1 - 2e/(1+e) with e = exp(-2|x|) above, sigmoid through the
// stable two-sided form num/(1+e) with e = exp(-|x|). The scalar
// portable path writes the exact operation sequence of the AVX2 path
// using std::fma (correctly rounded, hence bitwise-equal to the FMA
// instruction), so an element's value never depends on whether it was
// computed in a SIMD lane or a loop tail.
#include "tensor/vmath.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "hpc/parallel_for.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define GEONAS_VMATH_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace geonas::tensor {

namespace {

// --- exp: Cephes exp.c constants ------------------------------------
constexpr double kLog2E = 1.4426950408889634073599;
constexpr double kLn2Hi = 6.93145751953125e-1;
constexpr double kLn2Lo = 1.42860682030941723212e-6;
constexpr double kExpP0 = 1.26177193074810590878e-4;
constexpr double kExpP1 = 3.02994407707441961300e-2;
constexpr double kExpP2 = 9.99999999999999999910e-1;
constexpr double kExpQ0 = 3.00198505138664455042e-6;
constexpr double kExpQ1 = 2.52448340349684104192e-3;
constexpr double kExpQ2 = 2.27265548208155028766e-1;
constexpr double kExpQ3 = 2.00000000000000000005e0;
/// Largest x with exp(x) finite; above, exp saturates to +inf.
constexpr double kExpHi = 709.782712893383996843;
/// Below this, exp(x) < 2^-1075 rounds to (+)0.
constexpr double kExpLo = -745.133219101941108420;

// --- tanh: Cephes tanh.c small-argument rational ---------------------
constexpr double kTanhP0 = -9.64399179425052238628e-1;
constexpr double kTanhP1 = -9.92877231001918586564e1;
constexpr double kTanhP2 = -1.61468768441708447952e3;
constexpr double kTanhQ0 = 1.12811678491632931402e2;
constexpr double kTanhQ1 = 2.23548839060100448583e3;
constexpr double kTanhQ2 = 4.84406305325125486048e3;
constexpr double kTanhSmall = 0.625;

/// Exact power of two from an in-range exponent (|n| <= ~540 here, so
/// n + 1023 is always a valid normal-exponent field).
inline double pow2i(int n) noexcept {
  return std::bit_cast<double>(
      (static_cast<std::uint64_t>(n) + 1023ULL) << 52);
}

/// Portable backend: the scalar mirror of the AVX2 operation sequence.
/// Every multiply/add pairing that the vector code fuses is written with
/// std::fma (correctly rounded == the FMA instruction), every one it
/// does not fuse stays a separate multiply and add.
namespace portable {

double exp(double x) noexcept {
  const double xc = std::fmin(std::fmax(x, kExpLo), kExpHi);
  const double nd = std::nearbyint(xc * kLog2E);
  double r = std::fma(nd, -kLn2Hi, xc);
  r = std::fma(nd, -kLn2Lo, r);
  const double r2 = r * r;
  double p = std::fma(kExpP0, r2, kExpP1);
  p = std::fma(p, r2, kExpP2);
  const double px = r * p;
  double q = std::fma(kExpQ0, r2, kExpQ1);
  q = std::fma(q, r2, kExpQ2);
  q = std::fma(q, r2, kExpQ3);
  const double e = px / (q - px);
  double res = std::fma(2.0, e, 1.0);
  // Two-step 2^n scaling: n can reach +/-1076 where a single 2^n is
  // not representable although the final product is.
  const int n = static_cast<int>(nd);
  const int n1 = n >> 1;
  res = (res * pow2i(n1)) * pow2i(n - n1);
  res = x > kExpHi ? std::numeric_limits<double>::infinity() : res;
  res = x < kExpLo ? 0.0 : res;
  res = x != x ? x : res;  // NaN in, NaN out (the clamp destroys it)
  return res;
}

double tanh(double x) noexcept {
  const double xa = std::fabs(x);
  const double z = x * x;
  double p = std::fma(kTanhP0, z, kTanhP1);
  p = std::fma(p, z, kTanhP2);
  double q = z + kTanhQ0;
  q = std::fma(q, z, kTanhQ1);
  q = std::fma(q, z, kTanhQ2);
  // x * (1 + z P/Q) rather than Cephes' x + x z P/Q: multiplication
  // preserves the sign of +/-0 where the trailing add would not.
  const double small = x * std::fma(z, p / q, 1.0);
  const double e = exp(-2.0 * xa);
  const double big = 1.0 - (2.0 * e) / (1.0 + e);
  return xa < kTanhSmall ? small : std::copysign(big, x);
}

double sigmoid(double x) noexcept {
  const double e = exp(-std::fabs(x));
  const double num = std::signbit(x) ? e : 1.0;
  return num / (1.0 + e);
}

}  // namespace portable

// --- per-element fused-kernel bodies (shared by scalar loops and the
// ----- AVX2 kernels' tails) ------------------------------------------

inline void lstm_fwd_elem(double* zr, const double* cp, double* cn,
                          double* hn, double* ho, std::size_t u,
                          std::size_t i) noexcept {
  const double ig = portable::sigmoid(zr[i]);
  const double fg = portable::sigmoid(zr[u + i]);
  const double gg = portable::tanh(zr[2 * u + i]);
  const double og = portable::sigmoid(zr[3 * u + i]);
  const double c = std::fma(fg, cp[i], ig * gg);
  const double h = og * portable::tanh(c);
  zr[i] = ig;
  zr[u + i] = fg;
  zr[2 * u + i] = gg;
  zr[3 * u + i] = og;
  cn[i] = c;
  hn[i] = h;
  ho[i] = h;
}

inline void lstm_bwd_elem(const double* gr, const double* cpr,
                          const double* cnr, const double* gor,
                          const double* dhr, double* dcr, double* dzr,
                          std::size_t u, std::size_t i) noexcept {
  const double ig = gr[i];
  const double fg = gr[u + i];
  const double gg = gr[2 * u + i];
  const double og = gr[3 * u + i];
  const double tanh_c = portable::tanh(cnr[i]);
  const double dh = gor[i] + dhr[i];
  // h = o * tanh(c): route dh into the o-gate and the cell state.
  const double dc = std::fma(dh * og, 1.0 - tanh_c * tanh_c, dcr[i]);
  const double d_og = dh * tanh_c;
  const double d_ig = dc * gg;
  const double d_fg = dc * cpr[i];
  const double d_gg = dc * ig;
  dcr[i] = dc * fg;  // dL/dc_{t-1}
  dzr[i] = d_ig * (ig * (1.0 - ig));
  dzr[u + i] = d_fg * (fg * (1.0 - fg));
  dzr[2 * u + i] = d_gg * (1.0 - gg * gg);
  dzr[3 * u + i] = d_og * (og * (1.0 - og));
}

// --- portable-fma backend --------------------------------------------

void exp_span_portable(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = portable::exp(x[i]);
}

void tanh_span_portable(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = portable::tanh(x[i]);
}

void sigmoid_span_portable(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = portable::sigmoid(x[i]);
}

void lstm_fwd_portable(std::size_t rows, std::size_t u, double* z,
                       const double* c_prev, double* c_new, double* h_new,
                       double* h_out, std::size_t h_out_stride) {
  for (std::size_t r = 0; r < rows; ++r) {
    double* zr = z + r * 4 * u;
    const double* cp = c_prev + r * u;
    double* cn = c_new + r * u;
    double* hn = h_new + r * u;
    double* ho = h_out + r * h_out_stride;
    for (std::size_t i = 0; i < u; ++i) {
      lstm_fwd_elem(zr, cp, cn, hn, ho, u, i);
    }
  }
}

void lstm_bwd_portable(std::size_t rows, std::size_t u, const double* gates,
                       const double* c_prev, const double* c_new,
                       const double* grad_out, std::size_t grad_out_stride,
                       const double* dh, double* dc, double* dz) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* gr = gates + r * 4 * u;
    double* dzr = dz + r * 4 * u;
    for (std::size_t i = 0; i < u; ++i) {
      lstm_bwd_elem(gr, c_prev + r * u, c_new + r * u,
                    grad_out + r * grad_out_stride, dh + r * u, dc + r * u,
                    dzr, u, i);
    }
  }
}

// --- AVX2+FMA backend ------------------------------------------------

#ifdef GEONAS_VMATH_X86_DISPATCH

__attribute__((target("avx2,fma"))) inline __m256d vexp4(__m256d x) {
  const __m256d lo = _mm256_set1_pd(kExpLo);
  const __m256d hi = _mm256_set1_pd(kExpHi);
  const __m256d xc = _mm256_min_pd(_mm256_max_pd(x, lo), hi);
  const __m256d nd = _mm256_round_pd(
      _mm256_mul_pd(xc, _mm256_set1_pd(kLog2E)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fmadd_pd(nd, _mm256_set1_pd(-kLn2Hi), xc);
  r = _mm256_fmadd_pd(nd, _mm256_set1_pd(-kLn2Lo), r);
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d p = _mm256_fmadd_pd(_mm256_set1_pd(kExpP0), r2,
                              _mm256_set1_pd(kExpP1));
  p = _mm256_fmadd_pd(p, r2, _mm256_set1_pd(kExpP2));
  const __m256d px = _mm256_mul_pd(r, p);
  __m256d q = _mm256_fmadd_pd(_mm256_set1_pd(kExpQ0), r2,
                              _mm256_set1_pd(kExpQ1));
  q = _mm256_fmadd_pd(q, r2, _mm256_set1_pd(kExpQ2));
  q = _mm256_fmadd_pd(q, r2, _mm256_set1_pd(kExpQ3));
  const __m256d e = _mm256_div_pd(px, _mm256_sub_pd(q, px));
  __m256d res = _mm256_fmadd_pd(_mm256_set1_pd(2.0), e,
                                _mm256_set1_pd(1.0));
  // Two-step 2^n scaling (see portable::exp).
  const __m128i n32 = _mm256_cvtpd_epi32(nd);
  const __m128i n1 = _mm_srai_epi32(n32, 1);
  const __m128i n2 = _mm_sub_epi32(n32, n1);
  const __m256i bias = _mm256_set1_epi64x(1023);
  const __m256d s1 = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(_mm256_cvtepi32_epi64(n1), bias), 52));
  const __m256d s2 = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(_mm256_cvtepi32_epi64(n2), bias), 52));
  res = _mm256_mul_pd(_mm256_mul_pd(res, s1), s2);
  res = _mm256_blendv_pd(
      res, _mm256_set1_pd(std::numeric_limits<double>::infinity()),
      _mm256_cmp_pd(x, hi, _CMP_GT_OQ));
  res = _mm256_blendv_pd(res, _mm256_setzero_pd(),
                         _mm256_cmp_pd(x, lo, _CMP_LT_OQ));
  res = _mm256_blendv_pd(res, x, _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
  return res;
}

__attribute__((target("avx2,fma"))) inline __m256d vtanh4(__m256d x) {
  const __m256d signmask = _mm256_set1_pd(-0.0);
  const __m256d xa = _mm256_andnot_pd(signmask, x);
  const __m256d z = _mm256_mul_pd(x, x);
  __m256d p = _mm256_fmadd_pd(_mm256_set1_pd(kTanhP0), z,
                              _mm256_set1_pd(kTanhP1));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(kTanhP2));
  __m256d q = _mm256_add_pd(z, _mm256_set1_pd(kTanhQ0));
  q = _mm256_fmadd_pd(q, z, _mm256_set1_pd(kTanhQ1));
  q = _mm256_fmadd_pd(q, z, _mm256_set1_pd(kTanhQ2));
  const __m256d small = _mm256_mul_pd(
      x, _mm256_fmadd_pd(z, _mm256_div_pd(p, q), _mm256_set1_pd(1.0)));
  const __m256d e = vexp4(_mm256_mul_pd(_mm256_set1_pd(-2.0), xa));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d big = _mm256_sub_pd(
      one, _mm256_div_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), e),
                         _mm256_add_pd(one, e)));
  const __m256d big_signed = _mm256_or_pd(_mm256_andnot_pd(signmask, big),
                                          _mm256_and_pd(signmask, x));
  const __m256d mask_small =
      _mm256_cmp_pd(xa, _mm256_set1_pd(kTanhSmall), _CMP_LT_OQ);
  return _mm256_blendv_pd(big_signed, small, mask_small);
}

__attribute__((target("avx2,fma"))) inline __m256d vsigmoid4(__m256d x) {
  const __m256d signmask = _mm256_set1_pd(-0.0);
  const __m256d xa = _mm256_andnot_pd(signmask, x);
  const __m256d e = vexp4(_mm256_xor_pd(xa, signmask));
  const __m256d one = _mm256_set1_pd(1.0);
  // blendv keys on the sign bit: negative x (incl. -0) takes e.
  const __m256d num = _mm256_blendv_pd(one, e, x);
  return _mm256_div_pd(num, _mm256_add_pd(one, e));
}

__attribute__((target("avx2,fma"))) void exp_span_avx2(const double* x,
                                                       double* out,
                                                       std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, vexp4(_mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) out[i] = portable::exp(x[i]);
}

__attribute__((target("avx2,fma"))) void tanh_span_avx2(const double* x,
                                                        double* out,
                                                        std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, vtanh4(_mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) out[i] = portable::tanh(x[i]);
}

__attribute__((target("avx2,fma"))) void sigmoid_span_avx2(const double* x,
                                                           double* out,
                                                           std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, vsigmoid4(_mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) out[i] = portable::sigmoid(x[i]);
}

__attribute__((target("avx2,fma"))) void lstm_fwd_avx2(
    std::size_t rows, std::size_t u, double* z, const double* c_prev,
    double* c_new, double* h_new, double* h_out,
    std::size_t h_out_stride) {
  for (std::size_t r = 0; r < rows; ++r) {
    double* zr = z + r * 4 * u;
    const double* cp = c_prev + r * u;
    double* cn = c_new + r * u;
    double* hn = h_new + r * u;
    double* ho = h_out + r * h_out_stride;
    std::size_t i = 0;
    for (; i + 4 <= u; i += 4) {
      const __m256d ig = vsigmoid4(_mm256_loadu_pd(zr + i));
      const __m256d fg = vsigmoid4(_mm256_loadu_pd(zr + u + i));
      const __m256d gg = vtanh4(_mm256_loadu_pd(zr + 2 * u + i));
      const __m256d og = vsigmoid4(_mm256_loadu_pd(zr + 3 * u + i));
      const __m256d c = _mm256_fmadd_pd(fg, _mm256_loadu_pd(cp + i),
                                        _mm256_mul_pd(ig, gg));
      const __m256d h = _mm256_mul_pd(og, vtanh4(c));
      _mm256_storeu_pd(zr + i, ig);
      _mm256_storeu_pd(zr + u + i, fg);
      _mm256_storeu_pd(zr + 2 * u + i, gg);
      _mm256_storeu_pd(zr + 3 * u + i, og);
      _mm256_storeu_pd(cn + i, c);
      _mm256_storeu_pd(hn + i, h);
      _mm256_storeu_pd(ho + i, h);
    }
    for (; i < u; ++i) lstm_fwd_elem(zr, cp, cn, hn, ho, u, i);
  }
}

__attribute__((target("avx2,fma"))) void lstm_bwd_avx2(
    std::size_t rows, std::size_t u, const double* gates,
    const double* c_prev, const double* c_new, const double* grad_out,
    std::size_t grad_out_stride, const double* dh, double* dc, double* dz) {
  const __m256d one = _mm256_set1_pd(1.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* gr = gates + r * 4 * u;
    const double* cpr = c_prev + r * u;
    const double* cnr = c_new + r * u;
    const double* gor = grad_out + r * grad_out_stride;
    const double* dhr = dh + r * u;
    double* dcr = dc + r * u;
    double* dzr = dz + r * 4 * u;
    std::size_t i = 0;
    for (; i + 4 <= u; i += 4) {
      const __m256d ig = _mm256_loadu_pd(gr + i);
      const __m256d fg = _mm256_loadu_pd(gr + u + i);
      const __m256d gg = _mm256_loadu_pd(gr + 2 * u + i);
      const __m256d og = _mm256_loadu_pd(gr + 3 * u + i);
      const __m256d tanh_c = vtanh4(_mm256_loadu_pd(cnr + i));
      const __m256d dhv =
          _mm256_add_pd(_mm256_loadu_pd(gor + i), _mm256_loadu_pd(dhr + i));
      const __m256d dcv = _mm256_fmadd_pd(
          _mm256_mul_pd(dhv, og),
          _mm256_sub_pd(one, _mm256_mul_pd(tanh_c, tanh_c)),
          _mm256_loadu_pd(dcr + i));
      const __m256d d_og = _mm256_mul_pd(dhv, tanh_c);
      const __m256d d_ig = _mm256_mul_pd(dcv, gg);
      const __m256d d_fg = _mm256_mul_pd(dcv, _mm256_loadu_pd(cpr + i));
      const __m256d d_gg = _mm256_mul_pd(dcv, ig);
      _mm256_storeu_pd(dcr + i, _mm256_mul_pd(dcv, fg));
      _mm256_storeu_pd(
          dzr + i,
          _mm256_mul_pd(d_ig, _mm256_mul_pd(ig, _mm256_sub_pd(one, ig))));
      _mm256_storeu_pd(
          dzr + u + i,
          _mm256_mul_pd(d_fg, _mm256_mul_pd(fg, _mm256_sub_pd(one, fg))));
      _mm256_storeu_pd(
          dzr + 2 * u + i,
          _mm256_mul_pd(d_gg, _mm256_sub_pd(one, _mm256_mul_pd(gg, gg))));
      _mm256_storeu_pd(
          dzr + 3 * u + i,
          _mm256_mul_pd(d_og, _mm256_mul_pd(og, _mm256_sub_pd(one, og))));
    }
    for (; i < u; ++i) {
      lstm_bwd_elem(gr, cpr, cnr, gor, dhr, dcr, dzr, u, i);
    }
  }
}

#endif  // GEONAS_VMATH_X86_DISPATCH

// --- backend dispatch ------------------------------------------------

struct VmathImpl {
  const char* name;
  void (*exp_span)(const double*, double*, std::size_t);
  void (*tanh_span)(const double*, double*, std::size_t);
  void (*sigmoid_span)(const double*, double*, std::size_t);
  void (*lstm_fwd)(std::size_t, std::size_t, double*, const double*,
                   double*, double*, double*, std::size_t);
  void (*lstm_bwd)(std::size_t, std::size_t, const double*, const double*,
                   const double*, const double*, std::size_t, const double*,
                   double*, double*);
};

VmathImpl select_impl() {
#ifdef GEONAS_VMATH_X86_DISPATCH
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return {"avx2-fma",    exp_span_avx2, tanh_span_avx2, sigmoid_span_avx2,
            lstm_fwd_avx2, lstm_bwd_avx2};
  }
#endif
  return {"portable-fma",        exp_span_portable, tanh_span_portable,
          sigmoid_span_portable, lstm_fwd_portable, lstm_bwd_portable};
}

const VmathImpl& impl() {
  static const VmathImpl selected = select_impl();
  return selected;
}

/// Rough per-element cost fed to parallel_for's flops threshold: one
/// polynomial transcendental is ~40 flops, so spans only engage the
/// kernel pool above ~25k elements.
constexpr double kSpanFlopsPerElement = 40.0;

void check_span_sizes(std::span<const double> x, std::span<double> out,
                      const char* what) {
  if (x.size() != out.size()) {
    throw std::invalid_argument(std::string(what) +
                                ": input/output size mismatch");
  }
}

}  // namespace

const char* vmath_backend() noexcept { return impl().name; }

namespace vref {

double exp(double x) noexcept { return std::exp(x); }
double tanh(double x) noexcept { return std::tanh(x); }
double sigmoid(double x) noexcept {
  const double e = std::exp(-std::fabs(x));
  const double num = std::signbit(x) ? e : 1.0;
  return num / (1.0 + e);
}

}  // namespace vref

void vexp(std::span<const double> x, std::span<double> out) {
  check_span_sizes(x, out, "vexp");
  const double* xp = x.data();
  double* op = out.data();
  hpc::parallel_for(0, x.size(), kSpanFlopsPerElement *
                    static_cast<double>(x.size()), 4,
                    [&](std::size_t lo, std::size_t hi) {
                      impl().exp_span(xp + lo, op + lo, hi - lo);
                    });
}

void vtanh(std::span<const double> x, std::span<double> out) {
  check_span_sizes(x, out, "vtanh");
  const double* xp = x.data();
  double* op = out.data();
  hpc::parallel_for(0, x.size(), kSpanFlopsPerElement *
                    static_cast<double>(x.size()), 4,
                    [&](std::size_t lo, std::size_t hi) {
                      impl().tanh_span(xp + lo, op + lo, hi - lo);
                    });
}

void vsigmoid(std::span<const double> x, std::span<double> out) {
  check_span_sizes(x, out, "vsigmoid");
  const double* xp = x.data();
  double* op = out.data();
  hpc::parallel_for(0, x.size(), kSpanFlopsPerElement *
                    static_cast<double>(x.size()), 4,
                    [&](std::size_t lo, std::size_t hi) {
                      impl().sigmoid_span(xp + lo, op + lo, hi - lo);
                    });
}

void lstm_pointwise_forward(std::size_t rows, std::size_t units, double* z,
                            const double* c_prev, double* c_new,
                            double* h_new, double* h_out,
                            std::size_t h_out_stride) {
  impl().lstm_fwd(rows, units, z, c_prev, c_new, h_new, h_out, h_out_stride);
}

void lstm_pointwise_backward(std::size_t rows, std::size_t units,
                             const double* gates, const double* c_prev,
                             const double* c_new, const double* grad_out,
                             std::size_t grad_out_stride, const double* dh,
                             double* dc, double* dz) {
  impl().lstm_bwd(rows, units, gates, c_prev, c_new, grad_out,
                  grad_out_stride, dh, dc, dz);
}

void recurrent_bias_grad(std::size_t steps, std::size_t rows,
                         std::size_t width, const double* d,
                         double* bias_grad) {
  for (std::size_t t = steps; t-- > 0;) {
    for (std::size_t r = 0; r < rows; ++r) {
      const double* dr = d + (t * rows + r) * width;
      for (std::size_t j = 0; j < width; ++j) bias_grad[j] += dr[j];
    }
  }
}

}  // namespace geonas::tensor
