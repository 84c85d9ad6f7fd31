// Vectorized transcendental math and fused recurrent pointwise kernels.
//
// Every per-element sigmoid/tanh/exp in the training hot path funnels
// through this layer. Two bitwise-identical backends sit behind one
// runtime-dispatched table (the same mechanism gemm_blocked.cpp uses for
// its micro-kernel):
//
//   avx2-fma      4-wide AVX2+FMA polynomial kernels (Cephes-style
//                 rational approximations), selected at runtime via
//                 __builtin_cpu_supports on x86-64.
//   portable-fma  scalar mirror of the vector algorithm: the exact same
//                 operation sequence written with std::fma, so a value
//                 computed by the scalar path (loop tails, non-AVX2
//                 hosts) is bitwise identical to the same element
//                 computed in a SIMD lane.
//
// Accuracy budget (enforced by tests/tensor_vmath_test.cpp): vexp, vtanh
// and vsigmoid stay within 4 ULP of the scalar reference (vref below) on
// [-40, 40], saturate exactly beyond (tanh -> +/-1, sigmoid -> 0/1,
// exp -> 0/inf at the IEEE-754 double limits), preserve signed zero and
// denormal inputs where the function is ~identity, and propagate NaN.
//
// Determinism: per-element results do not depend on where an element
// falls in a chunk or SIMD lane (see portable-fma above), so the span
// transforms may be split across the hpc kernel pool at any boundary and
// stay bitwise identical across kernel_threads settings. The fused
// recurrent kernels never dispatch themselves: the nn layers call them
// from inside batch-slice chunks, one call per chunk and timestep, and
// rows never interact, so a kernel's output does not depend on the
// slice it runs in. The bias gradient, the one cross-row sum of the
// backward stages, is not accumulated here but by recurrent_bias_grad
// after the whole BPTT data path, in a fixed order.
#pragma once

#include <cstddef>
#include <span>

namespace geonas::tensor {

/// Active backend name: "avx2-fma" or "portable-fma".
[[nodiscard]] const char* vmath_backend() noexcept;

// ---------------------------------------------------------------------
// Scalar reference for the accuracy tests, written with std::exp and
// std::tanh.
// ---------------------------------------------------------------------
namespace vref {

[[nodiscard]] double exp(double x) noexcept;
[[nodiscard]] double tanh(double x) noexcept;
/// Numerically stable two-sided sigmoid: never evaluates std::exp of a
/// positive argument, so large-magnitude inputs cannot overflow to inf
/// on the way to a saturated 0/1.
[[nodiscard]] double sigmoid(double x) noexcept;

}  // namespace vref

// ---------------------------------------------------------------------
// Elementwise span transforms. out.size() must equal x.size(); out may
// alias x only exactly (out.data() == x.data(), in-place update). Large
// spans are split across the kernel pool (bitwise-safe, see above).
// ---------------------------------------------------------------------
void vexp(std::span<const double> x, std::span<double> out);
void vtanh(std::span<const double> x, std::span<double> out);
void vsigmoid(std::span<const double> x, std::span<double> out);

// ---------------------------------------------------------------------
// Fused recurrent pointwise kernels. One pass per timestep slab computes
// every gate nonlinearity, the state update and the cached activations
// together — no per-gate passes, no intermediate temporaries. All
// pointers follow the LSTM workspace layout: `z`/`gates` are
// [rows, 4*units] (gate order i|f|g|o), state slabs are [rows, units]
// contiguous, and `h_out` / `grad_out` address a batch-major
// [B, T, units] tensor at fixed t (row r lives at base + r * stride).
// Buffers must not overlap except where a parameter is documented
// in/out.
// ---------------------------------------------------------------------

/// LSTM forward gate stage. In: z holds pre-activations. Out: z holds
/// post-activation gate values (what BPTT consumes), c_new/h_new the new
/// cell/hidden state, h_out the hidden state scattered to the output
/// tensor.
void lstm_pointwise_forward(std::size_t rows, std::size_t units, double* z,
                            const double* c_prev, double* c_new,
                            double* h_new, double* h_out,
                            std::size_t h_out_stride);

/// LSTM backward gate stage. Reads the cached post-activation gates and
/// cell states, the incoming dL/dh_t (grad_out + carried dh) and carried
/// dL/dc_t (dc); writes the gate pre-activation gradients dz and
/// overwrites dc with dL/dc_{t-1}. dh is read-only here — the recurrent
/// GEMM rewrites it.
void lstm_pointwise_backward(std::size_t rows, std::size_t units,
                             const double* gates, const double* c_prev,
                             const double* c_new, const double* grad_out,
                             std::size_t grad_out_stride, const double* dh,
                             double* dc, double* dz);

/// Recurrent bias gradient: accumulates the column sums of the
/// time-major [steps * rows, width] pre-activation gradient slab `d`
/// (row t * rows + r) into bias_grad, t descending and rows ascending —
/// the order BPTT produces the rows in, so the sum is one fixed
/// sequence of additions per column whatever split computed `d`.
void recurrent_bias_grad(std::size_t steps, std::size_t rows,
                         std::size_t width, const double* d,
                         double* bias_grad);

}  // namespace geonas::tensor
