// Heap-allocation audit for the hot paths (DESIGN.md "Memory model").
//
// The arena/workspace design claims the steady-state training step and
// epoch, the frozen serve plan's run, and the memoizer's cache-hit path
// touch the heap exactly zero times. This
// binary replaces global operator new/delete with counting wrappers and
// asserts that claim literally: after a warm-up pass that binds every
// workspace and sizes every persistent buffer, N further steps must
// perform 0 allocations — not "few", zero. A regression here is a
// per-batch allocation creeping back into the path the benches measure.
//
// The overrides are compiled out under the sanitizer presets
// (GEONAS_SANITIZE_BUILD): ASan/TSan interpose the allocator themselves
// and must see their own operator new.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/eval_policy.hpp"
#include "hpc/evaluator.hpp"
#include "hpc/parallel_for.hpp"
#include "tensor/blas.hpp"
#include "nn/dense.hpp"
#include "nn/example_source.hpp"
#include "nn/graph.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "searchspace/architecture.hpp"
#include "searchspace/space.hpp"
#include "serve/frozen_plan.hpp"
#include "tensor/random.hpp"

#ifndef GEONAS_SANITIZE_BUILD

namespace {
// Relaxed is enough: the flag flips only outside audited regions, and a
// kernel worker's allocations inside one happen-before the join of its
// dispatch, which precedes the audit's read of the count.
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  // aligned_alloc requires size to be a multiple of alignment.
  const std::size_t padded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, padded == 0 ? alignment : padded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // !GEONAS_SANITIZE_BUILD

namespace geonas {
namespace {

#ifndef GEONAS_SANITIZE_BUILD
/// Counts global operator new calls (all flavors) while alive. Keep
/// gtest assertions outside the scope — their message streams allocate.
class AllocCountScope {
 public:
  AllocCountScope() {
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocCountScope() { g_counting.store(false, std::memory_order_relaxed); }
  AllocCountScope(const AllocCountScope&) = delete;
  AllocCountScope& operator=(const AllocCountScope&) = delete;

  [[nodiscard]] std::size_t count() const {
    return g_alloc_count.load(std::memory_order_relaxed);
  }
};
#endif

/// Pins the kernel thread count for the audited region and restores the
/// hardware default on scope exit.
struct KernelThreadsGuard {
  explicit KernelThreadsGuard(std::size_t threads) {
    hpc::set_kernel_threads(threads);
  }
  ~KernelThreadsGuard() { hpc::set_kernel_threads(0); }
};

TEST(AllocAudit, LstmTrainStepSteadyStateIsHeapFree) {
#ifdef GEONAS_SANITIZE_BUILD
  GTEST_SKIP() << "allocator overrides disabled under sanitizers";
#else
  // Metric lookups hash string names; keep the registry out entirely
  // (the disabled path is one null check, the contract the bench gate
  // holds the obs layer to anyway).
  obs::set_registry(nullptr);
  KernelThreadsGuard serial(1);

  constexpr std::size_t kB = 8, kT = 4, kF = 6, kUnits = 16, kN = 12;
  nn::GraphNetwork net;
  const std::size_t lstm =
      net.add_node(std::make_unique<nn::LSTM>(kF, kUnits), {0});
  net.add_node(std::make_unique<nn::Dense>(kUnits, kF), {lstm});
  net.init_params(3);

  Tensor3 x(kN, kT, kF), y(kN, kT, kF);
  Rng rng(5);
  for (double& v : x.flat()) v = rng.uniform(-1.0, 1.0);
  for (double& v : y.flat()) v = rng.uniform(-1.0, 1.0);
  const nn::TensorPairSource src(x, y);

  nn::Adam optimizer(net.parameters(), net.gradients(),
                     {.learning_rate = 1e-3});
  const std::vector<Matrix*> grad_list = net.gradients();
  std::array<std::size_t, kB> idx{};
  for (std::size_t i = 0; i < kB; ++i) idx[i] = i;

  // The exact Trainer::fit inner step over persistent buffers.
  Tensor3 xb, yb, grad;
  double loss_sink = 0.0;
  const auto step = [&] {
    xb.ensure_shape(kB, src.x_steps(), src.x_features());
    yb.ensure_shape(kB, src.y_steps(), src.y_features());
    for (std::size_t i = 0; i < kB; ++i) {
      src.gather_x(idx[i], xb.block(i));
      src.gather_y(idx[i], yb.block(i));
    }
    net.zero_grad();
    const Tensor3& pred = net.forward_ref(xb, /*training=*/true);
    loss_sink += nn::mse_loss(yb, pred);
    nn::mse_grad_into(yb, pred, grad);
    net.backward_ref(grad);
    nn::clip_gradients_by_norm(grad_list, 10.0);
    optimizer.step();
  };

  // Warm-up binds the arena workspaces and sizes every gather buffer.
  step();
  step();

  std::size_t allocations = 0;
  {
    const AllocCountScope audit;
    for (int i = 0; i < 5; ++i) step();
    allocations = audit.count();
  }
  EXPECT_EQ(allocations, 0u)
      << "steady-state train step touched the heap";
  EXPECT_GT(loss_sink, 0.0);

  const tensor::Arena* arena = net.arena();
  ASSERT_NE(arena, nullptr);
  EXPECT_GT(arena->high_water_bytes(), 0u);
#endif
}

TEST(AllocAudit, WinnerTrainStepAtFourThreadsIsHeapFree) {
#ifdef GEONAS_SANITIZE_BUILD
  GTEST_SKIP() << "allocator overrides disabled under sanitizers";
#else
  // The Table-II winner at batch 64 on 4 kernel threads: every recurrent
  // pass, the update and the re-pack fork-join over the kernel team, and
  // a multi-threaded dispatch allocates nothing — no task objects, no
  // futures, no worker-side scratch.
  obs::set_registry(nullptr);
  KernelThreadsGuard four(4);

  constexpr std::size_t kB = 64, kT = 8, kF = 5;
  const searchspace::StackedLSTMSpace space;
  nn::GraphNetwork net = space.build(
      searchspace::Architecture::from_key("5-1-3-1-1-3-1-0-0-0-1-0-0-1"));
  net.init_params(1);

  Tensor3 x(kB, kT, kF), y(kB, kT, kF);
  Rng rng(2);
  for (double& v : x.flat()) v = rng.uniform(-1.0, 1.0);
  for (double& v : y.flat()) v = rng.uniform(-1.0, 1.0);

  nn::Adam optimizer(net.parameters(), net.gradients(),
                     {.learning_rate = 1e-3});
  const std::vector<Matrix*> grad_list = net.gradients();

  // The exact Trainer::fit inner step, re-pack included.
  Tensor3 grad;
  double loss_sink = 0.0;
  const auto step = [&] {
    net.zero_grad();
    const Tensor3& pred = net.forward_ref(x, /*training=*/true);
    loss_sink += nn::mse_loss(y, pred);
    nn::mse_grad_into(y, pred, grad);
    net.backward_ref(grad);
    nn::clip_gradients_by_norm(grad_list, 10.0);
    optimizer.step();
    net.repack_weights();
  };

  // Warm-up binds the workspaces, packs every panel and starts the team.
  step();
  step();

  std::size_t allocations = 0;
  {
    const AllocCountScope audit;
    for (int i = 0; i < 3; ++i) step();
    allocations = audit.count();
  }
  EXPECT_EQ(allocations, 0u)
      << "steady-state 4-thread winner step touched the heap";
  EXPECT_GT(loss_sink, 0.0);
#endif
}

TEST(AllocAudit, TrainEpochWithShortBatchAndValidationIsHeapFree) {
#ifdef GEONAS_SANITIZE_BUILD
  GTEST_SKIP() << "allocator overrides disabled under sanitizers";
#else
  obs::set_registry(nullptr);
  KernelThreadsGuard serial(1);

  // 12 training examples at batch 8 leave a short batch of 4; the 10
  // validation examples run as one wider inference batch. After the
  // first epoch the graph is bound at the widest of these, and every
  // later pass runs on its prefix rows without rebinding.
  constexpr std::size_t kB = 8, kT = 4, kF = 6, kUnits = 16, kN = 12,
                        kVal = 10;
  nn::GraphNetwork net;
  const std::size_t lstm =
      net.add_node(std::make_unique<nn::LSTM>(kF, kUnits), {0});
  net.add_node(std::make_unique<nn::Dense>(kUnits, kF), {lstm});
  net.init_params(4);

  Tensor3 x(kN, kT, kF), y(kN, kT, kF), x_val(kVal, kT, kF),
      y_val(kVal, kT, kF);
  Rng rng(6);
  for (Tensor3* t : {&x, &y, &x_val, &y_val}) {
    for (double& v : t->flat()) v = rng.uniform(-1.0, 1.0);
  }
  const nn::TensorPairSource train(x, y);
  const nn::TensorPairSource val(x_val, y_val);

  nn::Adam optimizer(net.parameters(), net.gradients(),
                     {.learning_rate = 1e-3});
  const std::vector<Matrix*> grad_list = net.gradients();

  // The exact Trainer::fit epoch over persistent buffers.
  Tensor3 xb, yb, grad, val_pred, val_scratch;
  double loss_sink = 0.0;
  const auto epoch = [&] {
    for (std::size_t start = 0; start < kN; start += kB) {
      const std::size_t b = std::min(kB, kN - start);
      xb.ensure_shape(b, kT, kF);
      yb.ensure_shape(b, kT, kF);
      for (std::size_t i = 0; i < b; ++i) {
        train.gather_x(start + i, xb.block(i));
        train.gather_y(start + i, yb.block(i));
      }
      net.zero_grad();
      const Tensor3& pred = net.forward_ref(xb, /*training=*/true);
      loss_sink += nn::mse_loss(yb, pred);
      nn::mse_grad_into(yb, pred, grad);
      net.backward_ref(grad);
      nn::clip_gradients_by_norm(grad_list, 10.0);
      optimizer.step();
      net.repack_weights();
    }
    nn::predict_into(net, val, val_pred, val_scratch);
  };

  epoch();  // binds at the widest batch and sizes every buffer
  const std::size_t capacity = net.arena()->capacity_bytes();
  std::size_t allocations = 0;
  {
    const AllocCountScope audit;
    epoch();
    epoch();
    allocations = audit.count();
  }
  EXPECT_EQ(allocations, 0u) << "steady-state epoch touched the heap";
  EXPECT_EQ(net.arena()->capacity_bytes(), capacity);
  EXPECT_GT(loss_sink, 0.0);

  // Nor does any pass of a steady-state epoch rebind the graph.
  obs::MetricsRegistry registry;
  obs::set_registry(&registry);
  epoch();
  obs::set_registry(nullptr);
  EXPECT_EQ(registry.counter("arena.binds").value(), 0u);
#endif
}

TEST(AllocAudit, FrozenPlanRunIsHeapFreeAcrossBatchSizes) {
#ifdef GEONAS_SANITIZE_BUILD
  GTEST_SKIP() << "allocator overrides disabled under sanitizers";
#else
  obs::set_registry(nullptr);
  KernelThreadsGuard serial(1);

  constexpr std::size_t kMax = 8, kT = 6, kF = 5;
  nn::GraphNetwork net;
  const std::size_t lstm =
      net.add_node(std::make_unique<nn::LSTM>(kF, 16), {0});
  net.add_node(std::make_unique<nn::Dense>(16, kF), {lstm});
  net.init_params(9);
  serve::FrozenPlan plan = serve::FrozenPlan::compile(net, kT, kMax);

  constexpr std::array<std::size_t, 4> kBatches = {kMax, 1, 2, kMax};
  std::vector<Tensor3> inputs;
  Rng rng(10);
  for (const std::size_t b : kBatches) {
    inputs.emplace_back(b, kT, kF);
    for (double& v : inputs.back().flat()) v = rng.uniform(-2.0, 2.0);
  }

  // No warm-up run: compile() leaves the plan bound and its panels packed.
  double sink = 0.0;
  std::size_t allocations = 0;
  {
    const AllocCountScope audit;
    for (const Tensor3& in : inputs) sink += plan.run(in).flat()[0];
    allocations = audit.count();
  }
  EXPECT_EQ(allocations, 0u) << "FrozenPlan::run touched the heap";
  EXPECT_TRUE(std::isfinite(sink));
#endif
}

TEST(AllocAudit, FirstGemmDispatchAfterResizeMatchesSteadyState) {
#ifdef GEONAS_SANITIZE_BUILD
  GTEST_SKIP() << "allocator overrides disabled under sanitizers";
#else
  obs::set_registry(nullptr);
  // A multi-threaded dispatch is heap-free, and stays so whether or not
  // a worker has ever run a GEMM: the worker warmup hook
  // (hpc::set_worker_warmup, registered by the blocked GEMM) reserves
  // the thread_local pack scratch when the team spins up, so the first
  // GEMM dispatched into a fresh team costs exactly as many allocations
  // as every later one. Without the hook, the first dispatch after a
  // set_kernel_threads resize would add the pack-buffer resizes of every
  // worker seeing its first stripe.
  constexpr std::size_t kDim = 128;  // 2*128^3 FLOPs: well over the
                                     // parallel_for engage threshold
  Matrix a(kDim, kDim), b(kDim, kDim), c(kDim, kDim);
  Rng rng(7);
  for (double& v : a.flat()) v = rng.uniform(-1.0, 1.0);
  for (double& v : b.flat()) v = rng.uniform(-1.0, 1.0);
  const auto gemm = [&] {
    gemm_raw(Trans::kNone, Trans::kNone, kDim, kDim, kDim, 1.0,
             a.flat().data(), kDim, b.flat().data(), kDim, 0.0,
             c.flat().data(), kDim);
  };

  // Warm the CALLING thread's pack scratch serially: the audit isolates
  // the pool workers' first dispatch, not the main thread's first GEMM
  // (which depends on test ordering within this binary).
  {
    KernelThreadsGuard serial(1);
    gemm();
  }

  KernelThreadsGuard two(2);  // retires the pool; recreated lazily below
  // Spin the fresh pool up — and run its workers' warmup hooks — with a
  // dispatch that is not a GEMM, so the audited first GEMM meets
  // warmed-but-GEMM-naive workers.
  std::atomic<std::size_t> covered{0};
  hpc::parallel_for(0, 1024, /*cost_flops=*/2.0e6, /*grain=*/1,
                    [&](std::size_t begin, std::size_t end) {
                      covered.fetch_add(end - begin,
                                        std::memory_order_relaxed);
                    });
  ASSERT_EQ(covered.load(), 1024u);

  std::size_t first = 0;
  std::size_t steady = 0;
  {
    const AllocCountScope audit;
    gemm();
    first = audit.count();
  }
  {
    const AllocCountScope audit;
    gemm();
    steady = audit.count();
  }
  EXPECT_EQ(first, steady)
      << "first GEMM dispatch into a fresh pool allocated beyond its "
         "steady state";
  EXPECT_EQ(steady, 0u) << "a multi-threaded GEMM dispatch touched the heap";
#endif
}

#ifndef GEONAS_SANITIZE_BUILD
/// Fixed-outcome evaluator: the audit targets the memoizer wrapper, not
/// a real training.
class FixedEvaluator final : public hpc::ArchitectureEvaluator {
 public:
  [[nodiscard]] hpc::EvalOutcome evaluate(const searchspace::Architecture&,
                                          std::uint64_t) override {
    return {.reward = 0.5, .duration_seconds = 1.0, .params = 10};
  }
  [[nodiscard]] bool thread_safe() const override { return true; }
};
#endif

TEST(AllocAudit, MemoizedReEvaluationIsHeapFree) {
#ifdef GEONAS_SANITIZE_BUILD
  GTEST_SKIP() << "allocator overrides disabled under sanitizers";
#else
  obs::set_registry(nullptr);
  FixedEvaluator inner;
  core::MemoizingEvaluator memo(inner);
  const searchspace::Architecture arch{.genes = {3, 0, 1, 5, 1, 0, 2, 1}};

  // Miss populates the cache; the second call warms the key scratch.
  (void)memo.evaluate(arch, 0);
  (void)memo.evaluate(arch, 1);
  ASSERT_EQ(memo.hits(), 1u);

  double reward_sink = 0.0;
  std::size_t allocations = 0;
  {
    const AllocCountScope audit;
    for (std::uint64_t seed = 2; seed < 12; ++seed) {
      reward_sink += memo.evaluate(arch, seed).reward;
    }
    allocations = audit.count();
  }
  EXPECT_EQ(allocations, 0u) << "memoizer cache hit touched the heap";
  EXPECT_DOUBLE_EQ(reward_sink, 5.0);
  EXPECT_EQ(memo.hits(), 11u);
  EXPECT_EQ(memo.misses(), 1u);
#endif
}

}  // namespace
}  // namespace geonas
