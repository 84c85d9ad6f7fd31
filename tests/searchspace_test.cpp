// Search-space structure (paper §III-A/§IV): gene layout, skip-node
// counts, cardinality, mutation semantics, DAG realization, and analytic
// vs built parameter counts.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "nn/trainer.hpp"
#include "searchspace/space.hpp"

namespace geonas::searchspace {
namespace {

TEST(Architecture, KeyRoundTrip) {
  Architecture a{{3, 0, 1, 5}};
  EXPECT_EQ(a.key(), "3-0-1-5");
  EXPECT_EQ(Architecture::from_key("3-0-1-5"), a);
  EXPECT_THROW((void)Architecture::from_key("3-x-1"), std::invalid_argument);
  EXPECT_THROW((void)Architecture::from_key(""), std::invalid_argument);
}

TEST(Architecture, FromKeyRejectsPartialParses) {
  // std::stoi-style partial parsing once accepted "3x-2y" as {3, 2};
  // every token must now be a complete integer, and empty tokens (from
  // leading/trailing/double dashes) are malformed too.
  for (const char* bad : {"3x-2y", "3-2x", "12abc", "3--2", "3-", "-3",
                          "-", "3- 2", " 3-2", "0x1f", "+3", "3.5"}) {
    EXPECT_THROW((void)Architecture::from_key(bad), std::invalid_argument)
        << "accepted '" << bad << "'";
  }
  // The diagnostic names the offending token and its offset.
  try {
    (void)Architecture::from_key("3-2y-1");
    FAIL() << "expected from_key to throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'2y'"), std::string::npos) << what;
    EXPECT_NE(what.find("offset 2"), std::string::npos) << what;
  }
  // Negative genes are never produced by key() but parse consistently.
  EXPECT_EQ(Architecture::from_key("7"), (Architecture{{7}}));
  EXPECT_EQ(Architecture::from_key("0-0"), (Architecture{{0, 0}}));
}

TEST(Architecture, HashDistinguishes) {
  Architecture a{{1, 2, 3}};
  Architecture b{{1, 2, 4}};
  Architecture c{{1, 2, 3}};
  EXPECT_EQ(a.hash(), c.hash());
  EXPECT_NE(a.hash(), b.hash());
}

TEST(Space, PaperGeneCounts) {
  // m = 5 LSTM variable nodes => 9 skip-connection variable nodes (§IV).
  const StackedLSTMSpace space;
  EXPECT_EQ(space.num_operation_genes(), 5u);
  EXPECT_EQ(space.num_skip_genes(), 9u);
  EXPECT_EQ(space.num_genes(), 14u);
}

TEST(Space, Fig2GeneCounts) {
  // m = 2 (paper Fig. 2) => 3 skip-connection variable nodes.
  SpaceConfig cfg;
  cfg.num_variable_nodes = 2;
  const StackedLSTMSpace space(cfg);
  EXPECT_EQ(space.num_skip_genes(), 3u);
}

TEST(Space, CardinalityFormulas) {
  // Listed 6-op space: 6^5 * 2^9.
  const StackedLSTMSpace space;
  EXPECT_EQ(space.cardinality(), 3981312u);

  // With a 7-op list the paper's stated 8,605,184 = 7^5 * 2^9 emerges.
  SpaceConfig seven;
  seven.operations = {{0}, {16}, {32}, {48}, {64}, {80}, {96}};
  const StackedLSTMSpace space7(seven);
  EXPECT_EQ(space7.cardinality(), 8605184u);
}

TEST(Space, ChoiceCountsPerGene) {
  const StackedLSTMSpace space;
  std::size_t ops = 0, skips = 0;
  for (std::size_t g = 0; g < space.num_genes(); ++g) {
    if (space.is_skip_gene(g)) {
      EXPECT_EQ(space.choices_at(g), 2u);
      ++skips;
    } else {
      EXPECT_EQ(space.choices_at(g), 6u);
      ++ops;
    }
  }
  EXPECT_EQ(ops, 5u);
  EXPECT_EQ(skips, 9u);
}

TEST(Space, RandomArchitecturesAreValidAndDiverse) {
  const StackedLSTMSpace space;
  Rng rng(1);
  std::set<std::string> keys;
  for (int i = 0; i < 200; ++i) {
    const Architecture a = space.random_architecture(rng);
    ASSERT_TRUE(space.valid(a));
    keys.insert(a.key());
  }
  EXPECT_GT(keys.size(), 190u);  // collisions all but impossible
}

TEST(Space, MutationChangesExactlyOneGene) {
  const StackedLSTMSpace space;
  Rng rng(2);
  for (int trial = 0; trial < 300; ++trial) {
    const Architecture parent = space.random_architecture(rng);
    const Architecture child = space.mutate(parent, rng);
    ASSERT_TRUE(space.valid(child));
    std::size_t diffs = 0;
    for (std::size_t g = 0; g < space.num_genes(); ++g) {
      if (parent.genes[g] != child.genes[g]) ++diffs;
    }
    // The paper's mutation always picks a different value for one node.
    EXPECT_EQ(diffs, 1u);
  }
}

TEST(Space, MutationCoversAllGenes) {
  const StackedLSTMSpace space;
  Rng rng(3);
  const Architecture parent = space.random_architecture(rng);
  std::set<std::size_t> mutated;
  for (int trial = 0; trial < 2000; ++trial) {
    const Architecture child = space.mutate(parent, rng);
    for (std::size_t g = 0; g < space.num_genes(); ++g) {
      if (parent.genes[g] != child.genes[g]) mutated.insert(g);
    }
  }
  EXPECT_EQ(mutated.size(), space.num_genes());
}

TEST(Space, ValidRejectsForeignGenes) {
  const StackedLSTMSpace space;
  Architecture bad{{0, 0, 0}};
  EXPECT_FALSE(space.valid(bad));  // wrong length
  Rng rng(4);
  Architecture outofrange = space.random_architecture(rng);
  outofrange.genes[0] = 99;
  EXPECT_FALSE(space.valid(outofrange));
  outofrange.genes[0] = -1;
  EXPECT_FALSE(space.valid(outofrange));
}

TEST(Space, AllIdentityStillBuildsOutputLSTM) {
  const StackedLSTMSpace space;
  Architecture arch;
  arch.genes.assign(space.num_genes(), 0);  // identity ops, no skips
  ASSERT_TRUE(space.valid(arch));
  nn::GraphNetwork net = space.build(arch);
  net.init_params(1);
  // Only the constant output LSTM(5) from 5 inputs remains.
  EXPECT_EQ(net.param_count(), 4u * 5u * (5u + 5u + 1u));
  Tensor3 x(2, 8, 5, 0.1);
  const Tensor3 y = net.forward(x);
  EXPECT_EQ(y.dim2(), 5u);
  EXPECT_EQ(y.dim1(), 8u);
}

TEST(Space, BuildRealizesConfiguredWidths) {
  const StackedLSTMSpace space;
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const Architecture arch = space.random_architecture(rng);
    nn::GraphNetwork net = space.build(arch);
    net.init_params(trial);
    Tensor3 x(1, 8, 5, 0.1);
    const Tensor3 y = net.forward(x);
    // Output node is always the constant LSTM(5) (paper Fig. 2).
    ASSERT_EQ(y.dim2(), 5u);
    ASSERT_EQ(y.dim1(), 8u);  // temporal dimension never perturbed (§III-A)
  }
}

TEST(Space, StatsMatchBuiltParamCount) {
  const StackedLSTMSpace space;
  Rng rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    const Architecture arch = space.random_architecture(rng);
    const auto s = space.stats(arch);
    EXPECT_EQ(s.params, space.param_count(arch)) << arch.key();
  }
}

TEST(Space, StatsCountsStructure) {
  const StackedLSTMSpace space;
  // Genes: [op0, s, op1, s, s, op2, s, s, op3, s, s, op4, s, s]
  Architecture arch;
  arch.genes.assign(space.num_genes(), 0);
  // Identify operation genes via is_skip_gene and set the first two to
  // LSTM(16) (index 1) and LSTM(96) (index 5).
  std::vector<std::size_t> op_genes;
  for (std::size_t g = 0; g < space.num_genes(); ++g) {
    if (!space.is_skip_gene(g)) op_genes.push_back(g);
  }
  arch.genes[op_genes[0]] = 1;  // LSTM(16)
  arch.genes[op_genes[1]] = 5;  // LSTM(96)
  const auto s = space.stats(arch);
  EXPECT_EQ(s.active_lstm_nodes, 2u);
  EXPECT_EQ(s.total_units, 112u);
  EXPECT_EQ(s.active_skips, 0u);
  EXPECT_EQ(s.width_inversions, 1u);  // 16 then 96
}

TEST(Space, SkipConnectionsAddProjectionParams) {
  const StackedLSTMSpace space;
  Architecture no_skip;
  no_skip.genes.assign(space.num_genes(), 0);
  std::vector<std::size_t> op_genes, skip_genes;
  for (std::size_t g = 0; g < space.num_genes(); ++g) {
    (space.is_skip_gene(g) ? skip_genes : op_genes).push_back(g);
  }
  no_skip.genes[op_genes[0]] = 2;  // LSTM(32)
  no_skip.genes[op_genes[1]] = 2;
  Architecture with_skip = no_skip;
  with_skip.genes[skip_genes[0]] = 1;
  EXPECT_GT(space.stats(with_skip).params, space.stats(no_skip).params);
  EXPECT_EQ(space.stats(with_skip).active_skips, 1u);
}

TEST(Space, DescribeMentionsOps) {
  const StackedLSTMSpace space;
  Rng rng(7);
  const Architecture arch = space.random_architecture(rng);
  const std::string desc = space.describe(arch);
  EXPECT_NE(desc.find("Input(5)"), std::string::npos);
  EXPECT_NE(desc.find("output: LSTM(5)"), std::string::npos);
}

TEST(Space, TrainableEndToEnd) {
  // A skip-heavy architecture must train without shape errors.
  const StackedLSTMSpace space;
  Architecture arch;
  arch.genes.assign(space.num_genes(), 1);  // all LSTM(16), all skips on
  ASSERT_TRUE(space.valid(arch));
  nn::GraphNetwork net = space.build(arch);
  net.init_params(8);
  Tensor3 x(16, 8, 5), y(16, 8, 5);
  Rng rng(9);
  for (double& v : x.flat()) v = rng.normal();
  for (double& v : y.flat()) v = 0.5 * rng.normal();
  const auto hist = nn::Trainer({.epochs = 2, .batch_size = 8})
                        .fit(net, x, y, x, y);
  EXPECT_EQ(hist.train_loss.size(), 2u);
  EXPECT_TRUE(std::isfinite(hist.train_loss.back()));
}

TEST(Space, TwoWidthStackGradientSanity) {
  SpaceConfig cfg;
  cfg.operations = {{0}, {16}, {24}};
  const StackedLSTMSpace space(cfg);
  Rng rng(3);
  const Architecture arch = space.random_architecture(rng);
  nn::GraphNetwork net = space.build(arch);
  net.init_params(2);
  Tensor3 x(8, 8, 5), y(8, 8, 5);
  for (double& v : x.flat()) v = rng.normal();
  for (double& v : y.flat()) v = 0.3 * rng.normal();
  const auto hist =
      nn::Trainer({.epochs = 3, .batch_size = 4}).fit(net, x, y, x, y);
  EXPECT_TRUE(std::isfinite(hist.train_loss.back()));
  EXPECT_LE(hist.train_loss.back(), hist.train_loss.front() * 1.5);
}

TEST(Space, ConfigValidation) {
  SpaceConfig bad;
  bad.num_variable_nodes = 0;
  EXPECT_THROW(StackedLSTMSpace{bad}, std::invalid_argument);
  SpaceConfig one_op;
  one_op.operations = {{0}};
  EXPECT_THROW(StackedLSTMSpace{one_op}, std::invalid_argument);
}

}  // namespace
}  // namespace geonas::searchspace
