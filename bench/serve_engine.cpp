// Google-benchmark suite for the serving layer (src/serve): FrozenPlan
// runs at several batch sizes against the allocating
// GraphNetwork::forward wrapper, and end-to-end ServeEngine request
// throughput through the micro-batching queue.
//
// The engine benchmarks measure a Table-II-scale architecture
// (LSTM(5,16) -> LSTM(16,5), 8-step windows over 5 POD modes) — the
// shape a tuned NAS winner actually serves — submitted in bursts large
// enough to keep every stream's coalescing window full. items_per_second
// on BM_ServeEngineThroughput is the "forecast requests per second"
// figure quoted in README/DESIGN.
//
// Custom main (below): every run stamps the geonas build type and active
// vmath backend into the benchmark context, so a committed BENCH_*.json
// carries its own provenance (tools/run_bench.sh refuses non-release
// captures on that field).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "nn/graph.hpp"
#include "nn/lstm.hpp"
#include "serve/engine.hpp"
#include "serve/frozen_plan.hpp"
#include "tensor/blas.hpp"
#include "tensor/random.hpp"
#include "tensor/vmath.hpp"

#include "bench_host_context.hpp"

#ifndef GEONAS_BENCH_BUILD_TYPE
#define GEONAS_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace geonas;

constexpr std::size_t kSteps = 8;   // paper window K
constexpr std::size_t kModes = 5;   // retained POD modes

// Table-II-scale serving network: the small stacked-LSTM shape the
// search converges to, not a worst-case random architecture.
nn::GraphNetwork table2_net() {
  nn::GraphNetwork net;
  const auto l1 = net.add_node(std::make_unique<nn::LSTM>(kModes, 16),
                               {nn::GraphNetwork::input_id()});
  net.add_node(std::make_unique<nn::LSTM>(16, kModes), {l1});
  net.init_params(7);
  return net;
}

serve::FrozenPlan table2_plan(std::size_t max_batch) {
  nn::GraphNetwork net = table2_net();
  return serve::FrozenPlan::compile(net, kSteps, max_batch);
}

Tensor3 random_batch(std::size_t batch, std::uint64_t seed) {
  Rng rng(seed);
  Tensor3 x(batch, kSteps, kModes);
  for (double& v : x.flat()) v = rng.uniform(-2.0, 2.0);
  return x;
}

// Plan run: the per-batch cost inside one stream — forward_ref on the
// plan's network copy, bound once at compile. BM_GraphForwardReference
// at the same batch runs the same forward; the gap is the plan's
// zero-copy result against the wrapper's copied output tensor.
void BM_FrozenPlanRun(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  serve::FrozenPlan plan = table2_plan(batch);
  const Tensor3 x = random_batch(batch, 17);
  for (auto _ : state) {
    const Tensor3& y = plan.run(x);
    benchmark::DoNotOptimize(y.flat().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_FrozenPlanRun)->Arg(1)->Arg(8)->Arg(32);

// The reference: GraphNetwork::forward on the same weights and input,
// which binds on its first call and then returns a fresh copy of the
// output each call.
void BM_GraphForwardReference(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  nn::GraphNetwork net = table2_net();
  const Tensor3 x = random_batch(batch, 17);
  for (auto _ : state) {
    Tensor3 y = net.forward(x, false);
    benchmark::DoNotOptimize(y.flat().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_GraphForwardReference)->Arg(1)->Arg(8)->Arg(32);

// End-to-end engine throughput: bursts of single-window requests through
// the bounded queue, coalesced into micro-batches by N streams.
// items_per_second (real time) is the forecast-requests-per-second
// figure; cpu_time is measured across the whole process so the gate sees
// stream-thread work, not just the submitter loop.
void BM_ServeEngineThroughput(benchmark::State& state) {
  const auto streams = static_cast<std::size_t>(state.range(0));
  serve::ServeEngine engine(table2_plan(32),
                            {.streams = streams,
                             .max_delay_seconds = 0.0002,
                             .queue_capacity = 4096});
  Rng rng(29);
  std::vector<std::vector<double>> windows(64);
  for (auto& w : windows) {
    w.resize(kSteps * kModes);
    for (double& v : w) v = rng.uniform(-2.0, 2.0);
  }
  constexpr std::size_t kBurst = 2048;
  std::vector<std::future<serve::Forecast>> futures;
  futures.reserve(kBurst);
  for (auto _ : state) {
    futures.clear();
    for (std::size_t i = 0; i < kBurst; ++i) {
      futures.push_back(engine.submit(windows[i % windows.size()]));
    }
    for (auto& f : futures) benchmark::DoNotOptimize(f.get().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBurst));
  engine.shutdown();
}
BENCHMARK(BM_ServeEngineThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Batching ablation: same engine forced to batch=1 (every request runs
// alone). The gap to BM_ServeEngineThroughput/1 is the coalescing win.
void BM_ServeEngineUnbatched(benchmark::State& state) {
  serve::ServeEngine engine(table2_plan(1),
                            {.streams = 1,
                             .max_delay_seconds = 0.0,
                             .queue_capacity = 4096});
  Rng rng(31);
  std::vector<double> window(kSteps * kModes);
  for (double& v : window) v = rng.uniform(-2.0, 2.0);
  constexpr std::size_t kBurst = 512;
  std::vector<std::future<serve::Forecast>> futures;
  futures.reserve(kBurst);
  for (auto _ : state) {
    futures.clear();
    for (std::size_t i = 0; i < kBurst; ++i) {
      futures.push_back(engine.submit(window));
    }
    for (auto& f : futures) benchmark::DoNotOptimize(f.get().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBurst));
  engine.shutdown();
}
BENCHMARK(BM_ServeEngineUnbatched)->MeasureProcessCPUTime()->UseRealTime();

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
