// PPO NAS agent: policy normalization, clipped-surrogate updates,
// gradient all-reduce, checkpoint refusal, and learning on a bandit-like
// landscape.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "io/binary.hpp"
#include "search/ppo.hpp"
#include "search/search_method.hpp"

namespace geonas::search {
namespace {

using searchspace::Architecture;
using searchspace::StackedLSTMSpace;

TEST(PPO, InitialPolicyIsUniform) {
  const StackedLSTMSpace space;
  PPOAgent agent(space, {}, 0);
  for (std::size_t g = 0; g < space.num_genes(); ++g) {
    const double expected = 1.0 / static_cast<double>(space.choices_at(g));
    for (std::size_t c = 0; c < space.choices_at(g); ++c) {
      EXPECT_NEAR(agent.action_probability(g, c), expected, 1e-12);
    }
  }
}

TEST(PPO, AskSamplesValidArchitectures) {
  const StackedLSTMSpace space;
  PPOAgent agent(space, {}, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(space.valid(agent.ask()));
  }
}

TEST(PPO, GradientPushesTowardRewardedActions) {
  const StackedLSTMSpace space;
  PPOConfig cfg;
  cfg.entropy_coef = 0.0;  // isolate the surrogate term
  PPOAgent agent(space, cfg, 2);

  // Batch: architectures whose gene 0 == 1 get high reward.
  std::vector<PPOAgent::Sample> batch;
  for (int i = 0; i < 16; ++i) {
    Architecture a = agent.ask();
    a.genes[0] = i % 2;
    batch.push_back({a, a.genes[0] == 1 ? 1.0 : 0.0});
  }
  const auto grad = agent.compute_gradient(batch);
  ASSERT_EQ(grad.size(), space.num_genes());
  // Ascent direction must favor choice 1 over choice 0 at gene 0.
  EXPECT_GT(grad[0](0, 1), grad[0](0, 0));

  const double before = agent.action_probability(0, 1);
  agent.apply_gradient(grad);
  EXPECT_GT(agent.action_probability(0, 1), before);
}

TEST(PPO, LearnsSingleGeneBandit) {
  const StackedLSTMSpace space;
  PPOConfig cfg;
  cfg.learning_rate = 0.08;
  PPOAgent agent(space, cfg, 3);

  // Reward depends only on operation gene 0 == 5.
  std::size_t first_op_gene = 0;
  for (std::size_t g = 0; g < space.num_genes(); ++g) {
    if (!space.is_skip_gene(g)) {
      first_op_gene = g;
      break;
    }
  }
  for (int round = 0; round < 120; ++round) {
    std::vector<PPOAgent::Sample> batch;
    for (int b = 0; b < 10; ++b) {
      Architecture a = agent.ask();
      const double reward = a.genes[first_op_gene] == 5 ? 1.0 : 0.2;
      batch.push_back({std::move(a), reward});
    }
    agent.apply_gradient(agent.compute_gradient(batch));
  }
  EXPECT_GT(agent.action_probability(first_op_gene, 5), 0.5);
}

TEST(PPO, EmptyBatchThrows) {
  const StackedLSTMSpace space;
  PPOAgent agent(space, {}, 4);
  EXPECT_THROW((void)agent.compute_gradient({}), std::invalid_argument);
}

TEST(PPO, AllReduceMeanAverages) {
  std::vector<std::vector<Matrix>> stacks(2);
  stacks[0].push_back(Matrix(1, 2, 1.0));
  stacks[1].push_back(Matrix(1, 2, 3.0));
  const auto mean = all_reduce_mean_gradients(stacks);
  ASSERT_EQ(mean.size(), 1u);
  EXPECT_DOUBLE_EQ(mean[0](0, 0), 2.0);
  EXPECT_THROW((void)all_reduce_mean_gradients({}), std::invalid_argument);
}

TEST(PPO, AgentsStayIdenticalUnderAllReduce) {
  // Agents with identical initial policies remain bitwise identical when
  // every update applies the same all-reduced gradient (paper §III-B2).
  const StackedLSTMSpace space;
  PPOAgent a(space, {}, 10), b(space, {}, 20);  // different sampling rngs

  for (int round = 0; round < 5; ++round) {
    std::vector<PPOAgent::Sample> batch_a, batch_b;
    for (int i = 0; i < 8; ++i) {
      Architecture arch_a = a.ask();
      Architecture arch_b = b.ask();
      batch_a.push_back({std::move(arch_a), 0.1 * i});
      batch_b.push_back({std::move(arch_b), 0.05 * i});
    }
    std::vector<std::vector<Matrix>> grads;
    grads.push_back(a.compute_gradient(batch_a));
    grads.push_back(b.compute_gradient(batch_b));
    const auto mean = all_reduce_mean_gradients(grads);
    a.apply_gradient(mean);
    b.apply_gradient(mean);
  }
  for (std::size_t g = 0; g < space.num_genes(); ++g) {
    for (std::size_t c = 0; c < space.choices_at(g); ++c) {
      ASSERT_DOUBLE_EQ(a.logits()[g](0, c), b.logits()[g](0, c));
    }
  }
}

TEST(PPO, LoadRefusesLogitRowOfOtherWidth) {
  // A checkpoint whose first logit row is one choice wider than this
  // space's gene is refused from the stored count, before any of the
  // row's values is read.
  const StackedLSTMSpace space;
  PPOAgent agent(space, PPOConfig{}, 0);
  const std::size_t width = agent.logits()[0].cols();
  std::ostringstream os(std::ios::binary);
  io::BinaryWriter writer(os, "GEONASTT", 1);
  write_rng_state(writer, Rng(3));
  writer.u64(agent.logits().size());
  writer.u64(width + 1);
  const std::uint64_t values_offset = writer.offset();
  for (std::size_t c = 0; c <= width; ++c) writer.f64(0.5);
  writer.finish();

  std::istringstream is(os.str(), std::ios::binary);
  io::BinaryReader reader(is, "GEONASTT", 1, 1);
  try {
    agent.load(reader);
    FAIL() << "a logit row of the wrong width was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("PPO logits"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(width + 1) + " values"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("destination holds " + std::to_string(width)),
              std::string::npos)
        << what;
  }
  EXPECT_EQ(reader.offset(), values_offset);
}

TEST(PPO, ClippingBoundsUpdateMagnitude) {
  // With a huge learning rate, repeated epochs on the same batch cannot
  // run away: the clip gate stops gradient flow once the ratio leaves
  // [1-eps, 1+eps].
  const StackedLSTMSpace space;
  PPOConfig cfg;
  cfg.learning_rate = 5.0;
  cfg.sgd_epochs = 50;
  cfg.entropy_coef = 0.0;
  cfg.clip_epsilon = 0.2;
  PPOAgent agent(space, cfg, 5);
  std::vector<PPOAgent::Sample> batch;
  for (int i = 0; i < 8; ++i) {
    Architecture arch = agent.ask();
    batch.push_back({std::move(arch), i % 2 == 0 ? 1.0 : 0.0});
  }
  agent.apply_gradient(agent.compute_gradient(batch));
  // Probabilities remain valid and not fully collapsed.
  for (std::size_t c = 0; c < space.choices_at(0); ++c) {
    const double p = agent.action_probability(0, c);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_TRUE(std::isfinite(p));
  }
}

}  // namespace
}  // namespace geonas::search
