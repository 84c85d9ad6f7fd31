// Cluster simulator: determinism, the async-vs-synchronous utilization
// contrast of Table III, evaluation scaling with node count, and the
// SimResult analysis helpers.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/surrogate.hpp"
#include "hpc/cluster_sim.hpp"
#include "io/binary.hpp"
#include "search/aging_evolution.hpp"
#include "search/random_search.hpp"
#include "tied_campaign.hpp"

namespace geonas::hpc {
namespace {

using core::SurrogateEvaluator;
using search::AgingEvolution;
using search::RandomSearch;
using searchspace::StackedLSTMSpace;

ClusterConfig small_cluster(std::size_t nodes, std::uint64_t seed = 7) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.wall_time_seconds = 1800.0;  // 30 simulated minutes: fast tests
  cfg.seed = seed;
  return cfg;
}

TEST(ClusterSim, AsyncDeterministicForSeed) {
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  auto run = [&] {
    AgingEvolution ae(space, {.seed = 1});
    return simulate_async(ae, oracle, small_cluster(33));
  };
  const SimResult a = run();
  const SimResult b = run();
  ASSERT_EQ(a.num_evaluations(), b.num_evaluations());
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
  for (std::size_t i = 0; i < a.evals.size(); ++i) {
    ASSERT_DOUBLE_EQ(a.evals[i].reward, b.evals[i].reward);
    ASSERT_EQ(a.evals[i].arch_key, b.evals[i].arch_key);
  }
}

TEST(ClusterSim, EvaluationsOrderedAndWithinWall) {
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  RandomSearch rs(space, 2);
  const auto cfg = small_cluster(64);
  const SimResult r = simulate_async(rs, oracle, cfg);
  ASSERT_GT(r.num_evaluations(), 0u);
  for (std::size_t i = 1; i < r.evals.size(); ++i) {
    ASSERT_LE(r.evals[i - 1].completed_at, r.evals[i].completed_at);
  }
  EXPECT_LE(r.evals.back().completed_at, cfg.wall_time_seconds);
}

TEST(ClusterSim, AsyncUtilizationIsHigh) {
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  AgingEvolution ae(space, {.seed = 3});
  const SimResult r = simulate_async(ae, oracle, small_cluster(128));
  EXPECT_GT(r.utilization, 0.80);  // paper: ~0.9 for AE/RS
  EXPECT_LE(r.utilization, 1.0);
}

TEST(ClusterSim, RLUtilizationIsLowerThanAsync) {
  // The headline Table III contrast: synchronous RL wastes ~half the
  // node-hours; asynchronous AE does not.
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);

  AgingEvolution ae(space, {.seed = 4});
  const SimResult async_result =
      simulate_async(ae, oracle, small_cluster(128));

  const SimResult rl_result =
      simulate_rl(space, {.seed = 4}, oracle, small_cluster(128));

  EXPECT_GT(rl_result.rounds, 0u);
  EXPECT_LT(rl_result.utilization, async_result.utilization - 0.2);
  EXPECT_LT(rl_result.utilization, 0.75);
}

TEST(ClusterSim, RLEvaluatesFewerArchitectures) {
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  AgingEvolution ae(space, {.seed = 5});
  const SimResult a = simulate_async(ae, oracle, small_cluster(128));
  const SimResult r = simulate_rl(space, {.seed = 5}, oracle,
                                  small_cluster(128));
  EXPECT_LT(r.num_evaluations(), a.num_evaluations());
}

TEST(ClusterSim, EvaluationsScaleWithNodes) {
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  std::size_t prev = 0;
  for (std::size_t nodes : {33UL, 64UL, 128UL}) {
    RandomSearch rs(space, 6);
    const SimResult r = simulate_async(rs, oracle, small_cluster(nodes));
    EXPECT_GT(r.num_evaluations(), prev);
    prev = r.num_evaluations();
  }
}

TEST(ClusterSim, TiedCompletionsCommitInLaunchOrder) {
  // Every round's five evaluations complete at one instant; (time, seq)
  // must commit them in launch order, so evals[i] is eval index i.
  const StackedLSTMSpace space;
  TiedDurationEvaluator oracle;
  RandomSearch rs(space, 3);
  const ClusterConfig cfg = tied_cluster();
  const SimResult r = simulate_async(rs, oracle, cfg);
  ASSERT_EQ(r.evals.size(), 50u);
  std::size_t out_of_order = 0;
  for (std::size_t i = 0; i < r.evals.size(); ++i) {
    out_of_order += r.evals[i].reward != tied_reward(cfg, i) ? 1 : 0;
  }
  EXPECT_EQ(out_of_order, 0u);
}

TEST(ClusterSim, RLTiedCompletionsKeepLaunchOrder) {
  // 110 workers per round, all completing at one instant: the completion
  // sort must keep ties in eval-index order.
  const StackedLSTMSpace space;
  TiedDurationEvaluator oracle;
  ClusterConfig cfg = tied_cluster();
  cfg.nodes = 128;
  const SimResult r = simulate_rl(space, {.seed = 4}, oracle, cfg);
  ASSERT_GE(r.evals.size(), 110u);
  std::size_t out_of_order = 0;
  for (std::size_t i = 0; i < r.evals.size(); ++i) {
    out_of_order += r.evals[i].reward != tied_reward(cfg, i) ? 1 : 0;
  }
  EXPECT_EQ(out_of_order, 0u);
}

TEST(ClusterSim, RlCampaignPinned) {
  // CRC-32 of a one-hour synchronous PPO campaign on 33 nodes: each
  // evaluation's (completed_at, reward), then the utilization and the
  // round count. The round clock (gradient and all-reduce time per
  // round), the coordinator and launch model, and the surrogate's
  // rewards and durations all feed these bytes (Table III's RL row).
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  ClusterConfig cfg = small_cluster(33, 11);
  cfg.wall_time_seconds = 3600.0;
  const SimResult r = simulate_rl(space, {.seed = 3}, oracle, cfg);
  ASSERT_EQ(r.num_evaluations(), 307u);
  EXPECT_EQ(r.rounds, 14u);
  std::uint32_t crc = 0;
  for (const CompletedEval& e : r.evals) {
    const double fields[] = {e.completed_at, e.reward};
    crc = io::crc32_update(crc, fields, sizeof(fields));
  }
  const double totals[] = {r.utilization, static_cast<double>(r.rounds)};
  crc = io::crc32_update(crc, totals, sizeof(totals));
  EXPECT_EQ(crc, 0xcd858feeu);
}

TEST(SimResult, TrajectoryAndHelpers) {
  SimResult r;
  r.evals = {{10.0, 0.5, 60.0, 100, "a"},
             {20.0, 0.7, 60.0, 100, "b"},
             {30.0, 0.6, 60.0, 100, "a"},
             {40.0, 0.9, 60.0, 100, "c"}};
  const auto [times, rewards] = r.reward_trajectory(2);
  ASSERT_EQ(times.size(), 4u);
  EXPECT_DOUBLE_EQ(rewards[0], 0.5);
  EXPECT_DOUBLE_EQ(rewards[1], 0.6);   // (0.5+0.7)/2
  EXPECT_DOUBLE_EQ(rewards[3], 0.75);  // (0.6+0.9)/2

  const auto best = r.best_so_far();
  EXPECT_DOUBLE_EQ(best[0], 0.5);
  EXPECT_DOUBLE_EQ(best[2], 0.7);
  EXPECT_DOUBLE_EQ(best[3], 0.9);

  // Unique high performers: distinct keys above threshold.
  EXPECT_EQ(r.unique_high_performers(0.55), 3u);  // b, a(0.6), c
  EXPECT_EQ(r.unique_high_performers(0.85), 1u);
  const auto curve = r.unique_high_performer_curve(0.55);
  EXPECT_EQ(curve.back(), 3u);
  EXPECT_EQ(curve.front(), 0u);
}

TEST(ClusterSim, RLAgentsConvergeOnSurrogate) {
  // Over a full 3-hour simulated campaign the PPO policy's recent rewards
  // beat its early rewards (learning happens through the barriers).
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  ClusterConfig cfg = small_cluster(128, 8);
  cfg.wall_time_seconds = 3.0 * 3600.0;
  const SimResult r = simulate_rl(space, {.seed = 8}, oracle, cfg);
  ASSERT_GT(r.num_evaluations(), 500u);
  double early = 0.0, late = 0.0;
  const std::size_t n = r.evals.size();
  const std::size_t window = 300;
  for (std::size_t i = 0; i < window; ++i) {
    early += r.evals[i].reward;
    late += r.evals[n - 1 - i].reward;
  }
  EXPECT_GT(late / window, early / window + 0.005);
}

}  // namespace
}  // namespace geonas::hpc
