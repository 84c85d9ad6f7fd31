// FrozenPlan golden tests: the serving plan's output is BITWISE
// identical to GraphNetwork::forward for the same weights — at every
// kernel-thread setting, across batch sizes (the coalescing guarantee),
// and across stream clones. Suites are named Serve* so the TSan quick
// gate (tools/run_checks.sh --quick) picks them up.
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hpc/parallel_for.hpp"
#include "nn/dense.hpp"
#include "nn/graph.hpp"
#include "nn/lstm.hpp"
#include "nn/merge.hpp"
#include "searchspace/space.hpp"
#include "serve/frozen_plan.hpp"
#include "tensor/random.hpp"

namespace geonas::serve {
namespace {

constexpr std::size_t kSteps = 8;
constexpr std::size_t kModes = 5;

Tensor3 random_input(std::size_t batch, Rng& rng,
                     std::size_t features = kModes,
                     std::size_t steps = kSteps) {
  Tensor3 x(batch, steps, features);
  for (double& v : x.flat()) v = rng.uniform(-2.0, 2.0);
  return x;
}

/// Paper Table-II-style stacked LSTM: LSTM(16) -> LSTM(5).
nn::GraphNetwork stacked_lstm() {
  nn::GraphNetwork net;
  const auto l1 = net.add_node(std::make_unique<nn::LSTM>(kModes, 16),
                               {nn::GraphNetwork::input_id()});
  net.add_node(std::make_unique<nn::LSTM>(16, kModes), {l1});
  net.init_params(11);
  return net;
}

/// Residual cell: LSTM + Dense projection merged with ReLU, a second
/// LSTM on top, plus an Identity pass-through.
nn::GraphNetwork residual_mixed() {
  nn::GraphNetwork net;
  const auto in = nn::GraphNetwork::input_id();
  const auto l1 = net.add_node(std::make_unique<nn::LSTM>(kModes, 16), {in});
  const auto proj =
      net.add_node(std::make_unique<nn::Dense>(kModes, 16), {in});
  const auto merge =
      net.add_node(std::make_unique<nn::AddMerge>(2), {l1, proj});
  const auto l2 = net.add_node(std::make_unique<nn::LSTM>(16, 12), {merge});
  const auto id = net.add_node(std::make_unique<nn::Identity>(), {l2});
  net.add_node(
      std::make_unique<nn::Dense>(12, kModes, nn::Activation::kTanh), {id});
  net.init_params(23);
  return net;
}

void expect_bitwise_equal(const Tensor3& a, const Tensor3& b) {
  ASSERT_EQ(a.dim0(), b.dim0());
  ASSERT_EQ(a.dim1(), b.dim1());
  ASSERT_EQ(a.dim2(), b.dim2());
  const auto af = a.flat();
  const auto bf = b.flat();
  for (std::size_t i = 0; i < af.size(); ++i) {
    ASSERT_EQ(af[i], bf[i]) << "first divergence at flat index " << i;
  }
}

TEST(ServePlan, BitwiseMatchesForwardAcrossKernelThreads) {
  const std::size_t before = hpc::kernel_threads();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    hpc::set_kernel_threads(threads);
    nn::GraphNetwork net = stacked_lstm();
    FrozenPlan plan = FrozenPlan::compile(net, kSteps, 8);
    Rng rng(71);
    for (const std::size_t batch : {1u, 3u, 8u}) {
      const Tensor3 x = random_input(batch, rng);
      const Tensor3 expected = net.forward(x);
      expect_bitwise_equal(plan.run(x), expected);
    }
  }
  hpc::set_kernel_threads(before);
}

TEST(ServePlan, BitwiseMatchesForwardOnMixedGraph) {
  nn::GraphNetwork net = residual_mixed();
  FrozenPlan plan = FrozenPlan::compile(net, kSteps, 6);
  EXPECT_EQ(plan.input_features(), kModes);
  EXPECT_EQ(plan.output_features(), kModes);
  Rng rng(5);
  for (const std::size_t batch : {1u, 2u, 6u}) {
    const Tensor3 x = random_input(batch, rng);
    expect_bitwise_equal(plan.run(x), net.forward(x, /*training=*/false));
  }
}

TEST(ServePlan, BitwiseMatchesForwardOnSearchSpaceArchitectures) {
  const searchspace::StackedLSTMSpace space(
      {.input_features = kModes, .output_features = kModes});
  Rng arch_rng(2020);
  for (int trial = 0; trial < 4; ++trial) {
    const auto arch = space.random_architecture(arch_rng);
    nn::GraphNetwork net = space.build(arch);
    net.init_params(300 + static_cast<std::uint64_t>(trial));
    FrozenPlan plan = FrozenPlan::compile(net, kSteps, 4);
    Rng rng(41 + static_cast<std::uint64_t>(trial));
    const Tensor3 x = random_input(4, rng);
    expect_bitwise_equal(plan.run(x), net.forward(x));
  }
}

TEST(ServePlan, CoalescedBatchRowsMatchSingleRequests) {
  // The micro-batching engine relies on per-example independence: row i
  // of a batched run must be bitwise identical to a batch-1 run of that
  // window alone.
  nn::GraphNetwork net = residual_mixed();
  FrozenPlan batched = FrozenPlan::compile(net, kSteps, 8);
  FrozenPlan single = batched.clone_stream();
  Rng rng(99);
  const Tensor3 x = random_input(8, rng);
  const Tensor3 batched_out = batched.run(x);
  const std::size_t window = kSteps * kModes;
  for (std::size_t i = 0; i < 8; ++i) {
    Tensor3 one(1, kSteps, kModes);
    std::copy(x.flat().begin() + i * window,
              x.flat().begin() + (i + 1) * window, one.flat().begin());
    const Tensor3& one_out = single.run(one);
    for (std::size_t j = 0; j < window; ++j) {
      ASSERT_EQ(one_out.flat()[j], batched_out.flat()[i * window + j])
          << "example " << i << " diverges at offset " << j;
    }
  }
}

TEST(ServePlan, BatchSizeReuseIsStateless) {
  // Regression: h_seq/c_seq initial-state rows must be re-zeroed per
  // run. A batch-1 run writes state rows a later batch-4 run would
  // otherwise read as part of its zero initial state.
  nn::GraphNetwork net = stacked_lstm();
  FrozenPlan plan = FrozenPlan::compile(net, kSteps, 4);
  Rng rng(7);
  const Tensor3 big = random_input(4, rng);
  const Tensor3 small = random_input(1, rng);
  const Tensor3 first = plan.run(big);
  plan.run(small);
  expect_bitwise_equal(plan.run(big), first);
}

TEST(ServePlan, CloneStreamIsIndependentAndIdentical) {
  nn::GraphNetwork net = stacked_lstm();
  FrozenPlan a = FrozenPlan::compile(net, kSteps, 4);
  FrozenPlan b = a.clone_stream();
  Rng rng(13);
  const Tensor3 x = random_input(3, rng);
  const Tensor3 from_a = a.run(x);
  // Running b on different data must not disturb a's result buffers'
  // future runs (separate arenas).
  b.run(random_input(4, rng));
  expect_bitwise_equal(b.run(x), from_a);
  expect_bitwise_equal(a.run(x), from_a);
}

TEST(ServePlan, CompileRejectsZeroSizes) {
  nn::GraphNetwork net = stacked_lstm();
  EXPECT_THROW(FrozenPlan::compile(net, 0, 4), std::invalid_argument);
  EXPECT_THROW(FrozenPlan::compile(net, kSteps, 0), std::invalid_argument);
}

TEST(ServePlan, RunRejectsBadShapes) {
  nn::GraphNetwork net = stacked_lstm();
  FrozenPlan plan = FrozenPlan::compile(net, kSteps, 2);
  Rng rng(3);
  EXPECT_THROW(plan.run(random_input(3, rng)), std::invalid_argument);
  EXPECT_THROW(plan.run(Tensor3(1, kSteps + 1, kModes)),
               std::invalid_argument);
  EXPECT_THROW(plan.run(Tensor3(1, kSteps, kModes + 2)),
               std::invalid_argument);
  EXPECT_THROW(plan.run(Tensor3()), std::invalid_argument);
}

TEST(ServePlan, RunIsAllocationFreeAtCapacity) {
  // Not a counting audit (alloc_audit_tests owns that machinery), but
  // the workspace accounting must be stable across runs: the arena
  // never grows after compile.
  nn::GraphNetwork net = residual_mixed();
  FrozenPlan plan = FrozenPlan::compile(net, kSteps, 4);
  const std::size_t bytes = plan.workspace_bytes();
  Rng rng(17);
  for (const std::size_t batch : {4u, 1u, 2u, 4u}) {
    plan.run(random_input(batch, rng));
    EXPECT_EQ(plan.workspace_bytes(), bytes);
  }
}

TEST(ServePlan, DescribeNamesOpsAndOutput) {
  nn::GraphNetwork net = residual_mixed();
  FrozenPlan plan = FrozenPlan::compile(net, kSteps, 2);
  const std::string desc = plan.describe();
  EXPECT_NE(desc.find("LSTM(16)"), std::string::npos);
  EXPECT_NE(desc.find("LSTM(12)"), std::string::npos);
  EXPECT_NE(desc.find("[output]"), std::string::npos);
  EXPECT_EQ(plan.op_count(), net.node_count() - 1);
}

}  // namespace
}  // namespace geonas::serve
