// Google-benchmark microbenchmarks for the geonas substrates: dense
// kernels, vector transcendental math, LSTM forward/BPTT, the winner's
// training step and the kernel fork-join, POD fitting and its
// eigensolver, synthetic data generation, search-space operations, and
// the surrogate evaluator.
//
// Custom main (below): every run stamps the geonas build type and active
// vmath backend into the benchmark context, so a committed BENCH_*.json
// carries its own provenance (tools/run_bench.sh refuses non-release
// captures on that field — the upstream "library_build_type" describes
// the system benchmark library, not this repo's flags).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/scale.hpp"
#include "core/surrogate.hpp"
#include "data/comparators.hpp"
#include "data/landmask.hpp"
#include "data/sst.hpp"
#include "hpc/parallel_for.hpp"
#include "nn/graph.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "pod/pod.hpp"
#include "searchspace/space.hpp"
#include "search/aging_evolution.hpp"
#include "tensor/arena.hpp"
#include "tensor/blas.hpp"
#include "tensor/linalg.hpp"
#include "tensor/prepack.hpp"
#include "tensor/random.hpp"
#include "tensor/vmath.hpp"

#include "bench_host_context.hpp"

#ifndef GEONAS_BENCH_BUILD_TYPE
#define GEONAS_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace geonas;

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (double& v : m.flat()) v = rng.normal();
  return m;
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 1);
  const Matrix b = random_matrix(n, n, 2);
  Matrix c(n, n);
  for (auto _ : state) {
    gemm(a, b, c);
    benchmark::DoNotOptimize(c.flat().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(128)->Arg(256);

// The seed's i-k-j kernel (zero-skip branch included), kept inline as
// the baseline the blocked kernel is measured against.
void naive_gemm(const Matrix& a, const Matrix& b, Matrix& c) {
  c.resize(a.rows(), b.cols());
  c.fill(0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  }
}

void BM_GemmNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 1);
  const Matrix b = random_matrix(n, n, 2);
  Matrix c(n, n);
  for (auto _ : state) {
    naive_gemm(a, b, c);
    benchmark::DoNotOptimize(c.flat().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmNaive)->Arg(32)->Arg(128)->Arg(256);

// Pack-once vs per-call B packing at the small-M shapes the recurrent
// per-timestep and serve paths issue. The weight is the LSTM(64)
// recurrent operand (64 x 256, 128 KiB packed); m = 1 is the
// single-request serve shape, m = 8 a micro-batch. The paired
// BM_GemmPerCallPack runs the identical GEMM through the raw kernel,
// which runs the same loop nest but re-packs B every call.
void BM_GemmPrepacked(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kK = 64, kN = 256;
  const Matrix w = random_matrix(kK, kN, 7);
  const Matrix a = random_matrix(m, kK, 8);
  Matrix c(m, kN);
  tensor::PackedPanels pack;
  pack.ensure(w, Trans::kNone);
  for (auto _ : state) {
    pack.ensure(w, Trans::kNone);  // steady state: one version compare
    gemm_raw(Trans::kNone, m, 1.0, a.flat().data(), kK, pack, 0.0,
             c.flat().data(), kN);
    benchmark::DoNotOptimize(c.flat().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * kK * kN));
}
BENCHMARK(BM_GemmPrepacked)->Arg(1)->Arg(8);

void BM_GemmPerCallPack(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kK = 64, kN = 256;
  const Matrix w = random_matrix(kK, kN, 7);
  const Matrix a = random_matrix(m, kK, 8);
  Matrix c(m, kN);
  for (auto _ : state) {
    gemm_raw(Trans::kNone, Trans::kNone, m, kN, kK, 1.0, a.flat().data(), kK,
             w.flat().data(), kN, 0.0, c.flat().data(), kN);
    benchmark::DoNotOptimize(c.flat().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * kK * kN));
}
BENCHMARK(BM_GemmPerCallPack)->Arg(1)->Arg(8);

void BM_MatmulAtB(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 3);
  const Matrix b = random_matrix(n, n, 4);
  for (auto _ : state) {
    Matrix c = matmul_at_b(a, b);
    benchmark::DoNotOptimize(c.flat().data());
  }
}
BENCHMARK(BM_MatmulAtB)->Arg(128)->Arg(427);

std::vector<double> random_span(std::size_t n, std::uint64_t seed,
                                double lo = -6.0, double hi = 6.0) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

void BM_Vtanh(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> x = random_span(n, 21);
  std::vector<double> y(n);
  for (auto _ : state) {
    tensor::vtanh({x.data(), n}, {y.data(), n});
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Vtanh)->Arg(320)->Arg(10240);

// std::tanh loop — the pre-vmath per-element numerics, kept inline as
// the baseline BM_Vtanh is measured against.
void BM_VtanhScalarRef(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> x = random_span(n, 21);
  std::vector<double> y(n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_VtanhScalarRef)->Arg(320)->Arg(10240);

void BM_Vsigmoid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> x = random_span(n, 22);
  std::vector<double> y(n);
  for (auto _ : state) {
    tensor::vsigmoid({x.data(), n}, {y.data(), n});
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Vsigmoid)->Arg(10240);

// Isolated LSTM pointwise stage at paper scale (batch 32 rows), fused
// through tensor::vmath.
void BM_LstmPointwise(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRows = 32;
  std::vector<double> z = random_span(kRows * 4 * units, 23);
  const std::vector<double> zin = z;
  const std::vector<double> c_prev = random_span(kRows * units, 24, -1, 1);
  std::vector<double> c_new(kRows * units), h_new(kRows * units),
      h_out(kRows * units);
  for (auto _ : state) {
    z = zin;  // the kernel overwrites pre-activations with gate values
    tensor::lstm_pointwise_forward(kRows, units, z.data(), c_prev.data(),
                                   c_new.data(), h_new.data(), h_out.data(),
                                   units);
    benchmark::DoNotOptimize(h_out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows * units));
}
BENCHMARK(BM_LstmPointwise)->Arg(40)->Arg(80);

// Same stage with the pre-vmath scalar numerics (per-element std::exp /
// std::tanh sigmoid-gate loop) — the ">= 2x" baseline.
void BM_LstmPointwiseScalarRef(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRows = 32;
  std::vector<double> z = random_span(kRows * 4 * units, 23);
  const std::vector<double> zin = z;
  const std::vector<double> c_prev = random_span(kRows * units, 24, -1, 1);
  std::vector<double> c_new(kRows * units), h_new(kRows * units),
      h_out(kRows * units);
  for (auto _ : state) {
    z = zin;
    for (std::size_t r = 0; r < kRows; ++r) {
      double* zr = z.data() + r * 4 * units;
      const double* cp = c_prev.data() + r * units;
      double* cn = c_new.data() + r * units;
      double* hn = h_new.data() + r * units;
      double* ho = h_out.data() + r * units;
      for (std::size_t u = 0; u < units; ++u) {
        const double ig = 1.0 / (1.0 + std::exp(-zr[u]));
        const double fg = 1.0 / (1.0 + std::exp(-zr[units + u]));
        const double gg = std::tanh(zr[2 * units + u]);
        const double og = 1.0 / (1.0 + std::exp(-zr[3 * units + u]));
        const double c = fg * cp[u] + ig * gg;
        const double h = og * std::tanh(c);
        zr[u] = ig;
        zr[units + u] = fg;
        zr[2 * units + u] = gg;
        zr[3 * units + u] = og;
        cn[u] = c;
        hn[u] = h;
        ho[u] = h;
      }
    }
    benchmark::DoNotOptimize(h_out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows * units));
}
BENCHMARK(BM_LstmPointwiseScalarRef)->Arg(40)->Arg(80);

// One LSTM(5 -> range(0) units) over [batch, 8, 5] windows, bound once
// on a bench-owned arena as GraphNetwork binds it: the timed loop runs
// forward_into (and, for a train step, the MSE gradient and
// backward_into) with no per-call allocation.
void run_lstm(benchmark::State& state, std::size_t batch, std::uint64_t seed,
              bool train) {
  const auto units = static_cast<std::size_t>(state.range(0));
  nn::LSTM lstm(5, units);
  Rng rng(seed);
  lstm.init_params(rng);
  Tensor3 x(batch, 8, 5), target(batch, 8, units);
  for (double& v : x.flat()) v = rng.normal();
  if (train) {
    for (double& v : target.flat()) v = rng.normal();
  }
  tensor::Arena arena;
  lstm.bind(arena,
            {.batch = batch, .steps = 8, .features = 5, .training = train});
  Tensor3 y(batch, 8, units), dy(batch, 8, units), dx(batch, 8, 5);
  const Tensor3* in = &x;
  Tensor3* dx_ptr = &dx;
  for (auto _ : state) {
    if (!train) {
      lstm.forward_into({&in, 1}, y, false);
      benchmark::DoNotOptimize(y.flat().data());
      continue;
    }
    lstm.zero_grad();
    lstm.forward_into({&in, 1}, y, true);
    nn::mse_grad_into(target, y, dy);
    lstm.backward_into(dy, {&dx_ptr, 1});
    benchmark::DoNotOptimize(dx.flat().data());
  }
}

void BM_LSTMForward(benchmark::State& state) { run_lstm(state, 64, 5, false); }
BENCHMARK(BM_LSTMForward)->Arg(16)->Arg(96);

void BM_LSTMTrainStep(benchmark::State& state) { run_lstm(state, 64, 6, true); }
BENCHMARK(BM_LSTMTrainStep)->Arg(16)->Arg(96);

// Pre-batched formulation: the seed evaluated every timestep with
// separate x_t Wx and h_{t-1} Wh products per batch row. Kept inline as
// the baseline for the whole-sequence batched-GEMM restructuring.
void BM_LSTMForwardPerStepReference(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kB = 32, kT = 8, kIn = 5;
  nn::LSTM lstm(kIn, units);
  Rng rng(12);
  lstm.init_params(rng);
  Tensor3 x(kB, kT, kIn);
  for (double& v : x.flat()) v = rng.normal();
  const Matrix& wx = *lstm.parameters()[0];
  const Matrix& wh = *lstm.parameters()[1];
  const Matrix& b = *lstm.parameters()[2];
  Tensor3 out(kB, kT, units);
  std::vector<double> h(units), c(units), z(4 * units);
  for (auto _ : state) {
    for (std::size_t bi = 0; bi < kB; ++bi) {
      std::fill(h.begin(), h.end(), 0.0);
      std::fill(c.begin(), c.end(), 0.0);
      for (std::size_t t = 0; t < kT; ++t) {
        for (std::size_t j = 0; j < 4 * units; ++j) {
          double acc = b(0, j);
          for (std::size_t i = 0; i < kIn; ++i) acc += x(bi, t, i) * wx(i, j);
          for (std::size_t u = 0; u < units; ++u) acc += h[u] * wh(u, j);
          z[j] = acc;
        }
        for (std::size_t u = 0; u < units; ++u) {
          const double ig = 1.0 / (1.0 + std::exp(-z[u]));
          const double fg = 1.0 / (1.0 + std::exp(-z[units + u]));
          const double gg = std::tanh(z[2 * units + u]);
          const double og = 1.0 / (1.0 + std::exp(-z[3 * units + u]));
          c[u] = fg * c[u] + ig * gg;
          h[u] = og * std::tanh(c[u]);
          out(bi, t, u) = h[u];
        }
      }
    }
    benchmark::DoNotOptimize(out.flat().data());
  }
}
BENCHMARK(BM_LSTMForwardPerStepReference)->Arg(40)->Arg(80);

// Small-batch LSTM forward through the prepacked layer path (the panels
// are validated by a version compare per pass and never re-packed), vs
// an inline replica of the same kernel sequence with raw weight
// pointers (the blocked GEMM re-packs Wx/Wh on every call — what every
// forward paid before the prepack layer). Batch 8 is the micro-batch
// regime where packing dominated the per-timestep recurrent GEMMs.
void BM_LSTMForwardPrepacked(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  nn::LSTM lstm(5, units);
  Rng rng(14);
  lstm.init_params(rng);
  Tensor3 x(8, 8, 5);
  for (double& v : x.flat()) v = rng.normal();
  tensor::Arena arena;
  lstm.bind(arena, {.batch = 8, .steps = 8, .features = 5});
  const Tensor3* ptr = &x;
  Tensor3 out(8, 8, units);
  for (auto _ : state) {
    lstm.forward_into({&ptr, 1}, out, false);
    benchmark::DoNotOptimize(out.flat().data());
  }
}
BENCHMARK(BM_LSTMForwardPrepacked)->Arg(16)->Arg(96);

void BM_LSTMForwardPerCallPack(benchmark::State& state) {
  const auto units = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kB = 8, kT = 8, kIn = 5;
  const std::size_t g4 = 4 * units;
  const std::size_t rows = kB * kT;
  Rng rng(14);
  Matrix wx(kIn, g4), wh(units, g4), b(1, g4);
  for (double& v : wx.flat()) v = rng.uniform(-0.1, 0.1);
  for (double& v : wh.flat()) v = rng.normal(0.0, 0.1);
  Tensor3 x(kB, kT, kIn);
  for (double& v : x.flat()) v = rng.normal();
  // Persistent workspaces mirroring the layer's arena binds; h/c row
  // blocks [0, kB) stay zero across iterations like the bound layer's.
  Matrix x_tm(rows, kIn), gates(rows, g4);
  Matrix h_seq((kT + 1) * kB, units), c_seq((kT + 1) * kB, units);
  Tensor3 out(kB, kT, units);
  for (auto _ : state) {
    for (std::size_t bi = 0; bi < kB; ++bi) {
      const double* src = x.flat().data() + bi * kT * kIn;
      for (std::size_t t = 0; t < kT; ++t) {
        std::copy(src + t * kIn, src + (t + 1) * kIn,
                  x_tm.row_span(t * kB + bi).begin());
      }
    }
    gemm_raw(Trans::kNone, Trans::kNone, rows, g4, kIn, 1.0,
             x_tm.flat().data(), kIn, wx.flat().data(), g4, 0.0,
             gates.flat().data(), g4);
    const double* bias = b.flat().data();
    for (std::size_t r = 0; r < rows; ++r) {
      double* zrow = gates.flat().data() + r * g4;
      for (std::size_t j = 0; j < g4; ++j) zrow[j] += bias[j];
    }
    for (std::size_t t = 0; t < kT; ++t) {
      double* z = gates.flat().data() + t * kB * g4;
      const double* h_prev = h_seq.flat().data() + t * kB * units;
      gemm_raw(Trans::kNone, Trans::kNone, kB, g4, units, 1.0, h_prev, units,
               wh.flat().data(), g4, 1.0, z, g4);
      const double* c_prev = c_seq.flat().data() + t * kB * units;
      double* c_new = c_seq.flat().data() + (t + 1) * kB * units;
      double* h_new = h_seq.flat().data() + (t + 1) * kB * units;
      tensor::lstm_pointwise_forward(kB, units, z, c_prev, c_new, h_new,
                                     out.flat().data() + t * units,
                                     kT * units);
    }
    benchmark::DoNotOptimize(out.flat().data());
  }
}
BENCHMARK(BM_LSTMForwardPerCallPack)->Arg(16)->Arg(96);

// Paper-scale shapes (Maulik et al.: batch 32, 8-step windows, 40/80
// LSTM units) for the batched-GEMM cell.
void BM_LSTMForwardPaperScale(benchmark::State& state) {
  run_lstm(state, 32, 13, false);
}
BENCHMARK(BM_LSTMForwardPaperScale)->Arg(40)->Arg(80);

void BM_LSTMTrainStepPaperScale(benchmark::State& state) {
  run_lstm(state, 32, 14, true);
}
BENCHMARK(BM_LSTMTrainStepPaperScale)->Arg(40)->Arg(80);

// --- Training step and fork-join cost ---------------------------------
//
// The Table-II winner's full training step (forward, MSE gradient,
// backward, clip, Adam, re-pack) at batch 64 x 8 steps, at 1, 2 and 4
// kernel threads: the arg is the thread count. Counters split the step
// into its forward / backward / update milliseconds, and GFLOP/s
// estimates the arithmetic rate as 6 * params * B * T per step — how
// close the step runs to the GEMM kernel's own rate, i.e. how much of
// it is per-call overhead rather than arithmetic.

void BM_WinnerTrainStep(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  hpc::set_kernel_threads(static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kB = 64, kT = 8, kF = 5;
  const searchspace::StackedLSTMSpace space;
  nn::GraphNetwork net = space.build(
      searchspace::Architecture::from_key("5-1-3-1-1-3-1-0-0-0-1-0-0-1"));
  net.init_params(1);
  Rng rng(2);
  Tensor3 x(kB, kT, kF), y(kB, kT, kF);
  for (double& v : x.flat()) v = rng.uniform(-1.0, 1.0);
  for (double& v : y.flat()) v = rng.uniform(-1.0, 1.0);
  nn::Adam optimizer(net.parameters(), net.gradients(),
                     {.learning_rate = 1e-3});
  const std::vector<Matrix*> grads = net.gradients();
  Tensor3 dy;
  double fwd = 0.0, bwd = 0.0, upd = 0.0;
  const auto step = [&] {
    const Clock::time_point t0 = Clock::now();
    net.zero_grad();
    const Tensor3& pred = net.forward_ref(x, /*training=*/true);
    const Clock::time_point t1 = Clock::now();
    nn::mse_grad_into(y, pred, dy);
    net.backward_ref(dy);
    nn::clip_gradients_by_norm(grads, 1.0);
    const Clock::time_point t2 = Clock::now();
    optimizer.step();
    net.repack_weights();
    const Clock::time_point t3 = Clock::now();
    fwd += seconds(t0, t1);
    bwd += seconds(t1, t2);
    upd += seconds(t2, t3);
  };
  step();  // binds the workspaces, packs the panels, starts the team
  fwd = bwd = upd = 0.0;
  for (auto _ : state) step();
  const auto steps = static_cast<double>(state.iterations());
  state.counters["fwd_ms"] = 1e3 * fwd / steps;
  state.counters["bwd_ms"] = 1e3 * bwd / steps;
  state.counters["upd_ms"] = 1e3 * upd / steps;
  state.counters["GFLOP/s"] =
      6.0 * static_cast<double>(net.param_count() * kB * kT) * steps /
      (fwd + bwd + upd) / 1e9;
  hpc::set_kernel_threads(0);
}
BENCHMARK(BM_WinnerTrainStep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// One empty over-threshold fork-join, back to back: the fixed cost every
// dispatch pays at 2 and 4 kernel threads.
void BM_KernelDispatch(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  hpc::set_kernel_threads(threads);
  for (auto _ : state) {
    hpc::parallel_for(0, threads, 2.0 * hpc::kParallelMinFlops, 1,
                      [](std::size_t lo, std::size_t hi) {
                        benchmark::DoNotOptimize(lo + hi);
                      });
  }
  hpc::set_kernel_threads(0);
}
BENCHMARK(BM_KernelDispatch)->Arg(2)->Arg(4)->UseRealTime();

// --- Observability overhead -------------------------------------------
//
// The obs contract: instrumented code with NO registry installed pays a
// relaxed atomic load plus a null branch per site; the overhead budget
// on real kernels is <1% (compare BM_LSTMTrainStep/96 against the
// committed BENCH_kernels.json baseline, and against the MetricsOn
// variant below for the enabled-path delta).

// Cost of one disabled instrumentation site (the hot-path case).
void BM_ObsDisabledSite(benchmark::State& state) {
  obs::set_registry(nullptr);
  std::uint64_t fallback = 0;
  for (auto _ : state) {
    if (obs::MetricsRegistry* reg = obs::registry()) {
      reg->counter("bench.never").add(1);
    } else {
      ++fallback;  // keep the branch observable
    }
    benchmark::DoNotOptimize(fallback);
  }
}
BENCHMARK(BM_ObsDisabledSite);

// Enabled per-event cost including the name lookup (what call sites at
// per-batch/per-eval granularity pay).
void BM_ObsCounterLookupAdd(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::set_registry(&registry);
  for (auto _ : state) {
    obs::registry()->counter("bench.counter").add(1);
  }
  obs::set_registry(nullptr);
  benchmark::DoNotOptimize(registry.counter("bench.counter").value());
}
BENCHMARK(BM_ObsCounterLookupAdd);

// Histogram hot path with a held reference (no lookup, no allocation).
void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("bench.hist");
  double x = 1e-6;
  for (auto _ : state) {
    h.observe(x);
    x = x < 1.0 ? x * 1.0001 : 1e-6;
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_ObsHistogramObserve);

// RAII span open/close on the enabled path.
void BM_ObsScopedTimer(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::set_registry(&registry);
  for (auto _ : state) {
    const obs::ScopedTimer span(obs::registry(), "bench.span");
    benchmark::ClobberMemory();
  }
  obs::set_registry(nullptr);
}
BENCHMARK(BM_ObsScopedTimer);

// BM_LSTMTrainStep with a registry installed: the enabled-path cost of
// the kernel-pool instrumentation on a real training step. Compare
// against BM_LSTMTrainStep at the same Arg.
void BM_LSTMTrainStepMetricsOn(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::set_registry(&registry);
  run_lstm(state, 64, 6, true);
  obs::set_registry(nullptr);
}
BENCHMARK(BM_LSTMTrainStepMetricsOn)->Arg(16)->Arg(96);

void BM_PodFit(benchmark::State& state) {
  const auto ns = static_cast<std::size_t>(state.range(0));
  const Matrix snaps = random_matrix(2000, ns, 7);
  for (auto _ : state) {
    pod::POD p;
    p.fit(snaps, {.num_modes = 5});
    benchmark::DoNotOptimize(p.basis().flat().data());
  }
}
BENCHMARK(BM_PodFit)->Arg(64)->Arg(128);

// The quick-scale POD fit's eigenproblem: the centered correlation matrix
// of the first Ns snapshots (core::PODLSTMPipeline::prepare at quick
// scale uses 427), built once outside the timed loop. The solver runs on
// the calling thread; the counter records its sweep count.
void BM_EigenSymmetric(benchmark::State& state) {
  const auto ns = static_cast<std::size_t>(state.range(0));
  const core::ExperimentSetup setup =
      core::ExperimentSetup::make(core::Scale::kQuick);
  const data::LandMask mask(setup.grid);
  Matrix snaps = data::SyntheticSST().snapshots(mask, 0, ns);
  for (std::size_t i = 0; i < snaps.rows(); ++i) {
    double mean = 0.0;
    for (std::size_t j = 0; j < ns; ++j) mean += snaps(i, j);
    mean /= static_cast<double>(ns);
    for (std::size_t j = 0; j < ns; ++j) snaps(i, j) -= mean;
  }
  const Matrix corr = matmul_at_b(snaps, snaps);
  int sweeps = 0;
  for (auto _ : state) {
    const EigenResult eig = eigen_symmetric(corr);
    sweeps = eig.sweeps;
    benchmark::DoNotOptimize(eig.eigenvalues.data());
  }
  state.counters["sweeps"] = sweeps;
}
BENCHMARK(BM_EigenSymmetric)->Arg(427)->Unit(benchmark::kMillisecond);

void BM_SyntheticSnapshot(benchmark::State& state) {
  const data::Grid grid = data::Grid::reduced();
  const data::SyntheticSST sst;
  std::size_t week = 0;
  for (auto _ : state) {
    auto field = sst.field(grid, week++);
    benchmark::DoNotOptimize(field.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.cells()));
}
BENCHMARK(BM_SyntheticSnapshot);

// The quick-scale record as one call from a fresh generator whose caches
// start empty: 1,957 snapshot columns. That is what
// core::PODLSTMPipeline::prepare() generated while one of its 64-week
// chunks straddled the training boundary (it now generates the 1,914
// weeks once); the count stays so BENCH_kernels.json compares like with
// like.
void BM_SyntheticRecord(benchmark::State& state) {
  constexpr std::size_t kWeeks = 1957;
  const core::ExperimentSetup setup =
      core::ExperimentSetup::make(core::Scale::kQuick);
  const data::LandMask mask(setup.grid);
  for (auto _ : state) {
    const data::SyntheticSST sst;
    const Matrix record = sst.snapshots(mask, 0, kWeeks);
    benchmark::DoNotOptimize(record.flat().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(mask.ocean_count() *
                                                    kWeeks));
}
BENCHMARK(BM_SyntheticRecord)->Unit(benchmark::kMillisecond);

// One quick-grid week of a comparator surrogate, from HYCOM's first
// available week on: /0 CESM, /1 HYCOM. Both read the truth's components
// through the grid overloads (one week half, one share per row and
// column per call).
void BM_ComparatorField(benchmark::State& state) {
  const data::Grid grid = data::Grid::reduced();
  const data::SyntheticSST sst;
  const data::CESMSurrogate cesm(sst);
  const data::HYCOMSurrogate hycom(sst);
  const bool is_hycom = state.range(0) == 1;
  std::size_t week = data::HYCOMSurrogate::first_available_week();
  for (auto _ : state) {
    auto field =
        is_hycom ? hycom.field(grid, week++) : cesm.field(grid, week++);
    benchmark::DoNotOptimize(field.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.cells()));
}
BENCHMARK(BM_ComparatorField)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SpaceMutate(benchmark::State& state) {
  const searchspace::StackedLSTMSpace space;
  Rng rng(8);
  searchspace::Architecture arch = space.random_architecture(rng);
  for (auto _ : state) {
    arch = space.mutate(arch, rng);
    benchmark::DoNotOptimize(arch.genes.data());
  }
}
BENCHMARK(BM_SpaceMutate);

void BM_SpaceBuild(benchmark::State& state) {
  const searchspace::StackedLSTMSpace space;
  Rng rng(9);
  const searchspace::Architecture arch = space.random_architecture(rng);
  for (auto _ : state) {
    nn::GraphNetwork net = space.build(arch);
    benchmark::DoNotOptimize(net.node_count());
  }
}
BENCHMARK(BM_SpaceBuild);

void BM_SurrogateEvaluate(benchmark::State& state) {
  const searchspace::StackedLSTMSpace space;
  core::SurrogateEvaluator oracle(space);
  Rng rng(10);
  const searchspace::Architecture arch = space.random_architecture(rng);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    auto out = oracle.evaluate(arch, seed++);
    benchmark::DoNotOptimize(out.reward);
  }
}
BENCHMARK(BM_SurrogateEvaluate);

void BM_AgingEvolutionCycle(benchmark::State& state) {
  const searchspace::StackedLSTMSpace space;
  search::AgingEvolution ae(space, {.population_size = 100, .sample_size = 10,
                                    .seed = 11});
  core::SurrogateEvaluator oracle(space);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    auto arch = ae.ask();
    const auto out = oracle.evaluate(arch, seed++);
    ae.tell(arch, out.reward);
    benchmark::DoNotOptimize(out.reward);
  }
}
BENCHMARK(BM_AgingEvolutionCycle);

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("geonas_build_type", GEONAS_BENCH_BUILD_TYPE);
  benchmark::AddCustomContext("geonas_vmath_backend",
                              geonas::tensor::vmath_backend());
  benchmark::AddCustomContext("geonas_gemm_kernel",
                              geonas::tensor::gemm_kernel());
  geonas::benchutil::add_host_context();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
