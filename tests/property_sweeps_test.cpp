// Cross-module property sweeps (parameterized): search-space structure at
// every stack depth, simulator invariants at every node count, and
// window/split identities over parameter grids.
#include <gtest/gtest.h>

#include "core/surrogate.hpp"
#include "data/windowing.hpp"
#include "hpc/cluster_sim.hpp"
#include "search/aging_evolution.hpp"
#include "search/random_search.hpp"
#include "searchspace/space.hpp"
#include "tensor/random.hpp"

namespace geonas {
namespace {

// ---------- Search-space structure for m = 1..6 variable nodes ----------

class SpaceDepthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpaceDepthSweep, SkipGeneCountMatchesClosedForm) {
  const std::size_t m = GetParam();
  searchspace::SpaceConfig cfg;
  cfg.num_variable_nodes = m;
  const searchspace::StackedLSTMSpace space(cfg);

  // Positions 1..m each get min(position, skip_depth) skip genes
  // (skip_depth defaults to 2).
  std::size_t expected = 0;
  for (std::size_t p = 1; p <= m; ++p) {
    expected += std::min<std::size_t>(p, cfg.skip_depth);
  }
  EXPECT_EQ(space.num_skip_genes(), expected);
  EXPECT_EQ(space.num_operation_genes(), m);

  // Every random architecture at this depth builds and runs.
  Rng rng(100 + m);
  for (int trial = 0; trial < 5; ++trial) {
    const auto arch = space.random_architecture(rng);
    nn::GraphNetwork net = space.build(arch);
    net.init_params(trial);
    Tensor3 x(2, 4, 5, 0.1);
    const Tensor3 y = net.forward(x);
    ASSERT_EQ(y.dim2(), 5u);
    ASSERT_EQ(space.stats(arch).params, net.param_count());
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, SpaceDepthSweep,
                         ::testing::Values<std::size_t>(1, 2, 3, 4, 5, 6));

// ---------- Simulator invariants across node counts ----------

class SimNodeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimNodeSweep, AsyncInvariants) {
  const std::size_t nodes = GetParam();
  const searchspace::StackedLSTMSpace space;
  core::SurrogateEvaluator oracle(space);
  search::AgingEvolution ae(space, {.seed = nodes});
  hpc::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.wall_time_seconds = 1200.0;
  cfg.seed = nodes;
  const hpc::SimResult run = simulate_async(ae, oracle, cfg);

  ASSERT_GT(run.num_evaluations(), 0u);
  EXPECT_GE(run.utilization, 0.0);
  EXPECT_LE(run.utilization, 1.0);
  for (std::size_t i = 0; i < run.evals.size(); ++i) {
    ASSERT_GE(run.evals[i].completed_at, 0.0);
    ASSERT_LE(run.evals[i].completed_at, cfg.wall_time_seconds);
    ASSERT_GT(run.evals[i].duration, 0.0);
    if (i > 0) {
      ASSERT_LE(run.evals[i - 1].completed_at, run.evals[i].completed_at);
    }
  }
  // The busy curve is a fraction at every sample.
  for (double v : run.busy_curve) {
    ASSERT_GE(v, 0.0);
    ASSERT_LE(v, 1.0);
  }
  // Total node-seconds consumed cannot exceed the cluster's capacity.
  double busy = 0.0;
  for (const auto& e : run.evals) busy += e.duration;
  EXPECT_LE(busy,
            static_cast<double>(nodes) * cfg.wall_time_seconds * 1.0001);
}

INSTANTIATE_TEST_SUITE_P(Nodes, SimNodeSweep,
                         ::testing::Values<std::size_t>(4, 16, 33, 64));

TEST(SimWallTimeSweep, EvaluationsGrowWithWallTime) {
  const searchspace::StackedLSTMSpace space;
  core::SurrogateEvaluator oracle(space);
  std::size_t prev = 0;
  for (double minutes : {10.0, 30.0, 90.0}) {
    search::RandomSearch rs(space, 9);
    hpc::ClusterConfig cfg;
    cfg.nodes = 33;
    cfg.wall_time_seconds = minutes * 60.0;
    cfg.seed = 9;
    const hpc::SimResult run = simulate_async(rs, oracle, cfg);
    EXPECT_GT(run.num_evaluations(), prev);
    prev = run.num_evaluations();
  }
}

// ---------- Windowing identities over a (K, stride, Ns) grid ----------

struct WindowParam {
  std::size_t ns, k, stride;
};

class WindowSweep : public ::testing::TestWithParam<WindowParam> {};

TEST_P(WindowSweep, CountAndAlignment) {
  const auto param = GetParam();
  Matrix coeffs(3, param.ns);
  for (std::size_t m = 0; m < 3; ++m) {
    for (std::size_t t = 0; t < param.ns; ++t) {
      coeffs(m, t) = 1000.0 * static_cast<double>(m) + static_cast<double>(t);
    }
  }
  const data::WindowConfig cfg{.window = param.k, .stride = param.stride};
  const std::size_t expected = data::window_count(param.ns, cfg);
  if (expected == 0) {
    EXPECT_THROW(data::WindowView(coeffs, cfg), std::invalid_argument);
    return;
  }
  const auto set = data::WindowView(coeffs, cfg).materialize();
  ASSERT_EQ(set.size(), expected);
  // Spot-check alignment for every example: y window immediately follows x.
  for (std::size_t e = 0; e < set.size(); ++e) {
    const double x_last = set.x(e, param.k - 1, 0);
    const double y_first = set.y(e, 0, 0);
    ASSERT_DOUBLE_EQ(y_first, x_last + 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, WindowSweep,
    ::testing::Values(WindowParam{20, 4, 1}, WindowParam{20, 4, 2},
                      WindowParam{40, 8, 1}, WindowParam{16, 8, 1},
                      WindowParam{15, 8, 1}, WindowParam{100, 12, 5}));

}  // namespace
}  // namespace geonas
