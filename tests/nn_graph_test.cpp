// GraphNetwork: DAG wiring, skip-connection semantics (Dense projection +
// add + ReLU), fan-out gradient accumulation, whole-graph gradient
// checks against finite differences, the grow-only workspace binds
// (prefix batches, inference-only binds) and what a clone copies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "gradient_check.hpp"
#include "nn/dense.hpp"
#include "nn/graph.hpp"
#include "nn/lstm.hpp"
#include "nn/merge.hpp"
#include "searchspace/space.hpp"

namespace geonas::nn {
namespace {

using testing::LayerDriver;
using testing::random_tensor;

TEST(AddMerge, SumsAndRelus) {
  Tensor3 a(1, 1, 2);
  a(0, 0, 0) = 1.0;
  a(0, 0, 1) = -3.0;
  Tensor3 b(1, 1, 2);
  b(0, 0, 0) = 2.0;
  b(0, 0, 1) = 1.0;
  AddMerge merge(2);
  const Tensor3* ins[2] = {&a, &b};
  const Tensor3 y = LayerDriver(merge).forward({ins, 2}, false);
  EXPECT_DOUBLE_EQ(y(0, 0, 0), 3.0);
  EXPECT_DOUBLE_EQ(y(0, 0, 1), 0.0);  // -2 clipped by ReLU
}

TEST(AddMerge, BackwardSplitsGradient) {
  Tensor3 a(1, 1, 2), b(1, 1, 2);
  a(0, 0, 0) = 1.0;
  a(0, 0, 1) = -3.0;
  b(0, 0, 0) = 1.0;
  b(0, 0, 1) = 1.0;
  AddMerge merge(2);
  const Tensor3* ins[2] = {&a, &b};
  LayerDriver driver(merge);
  (void)driver.forward({ins, 2}, true);
  Tensor3 g(1, 1, 2, 1.0);
  const auto grads = driver.backward(g);
  ASSERT_EQ(grads.size(), 2u);
  // First channel: sum 2 > 0, gradient passes; second: sum -2, masked.
  EXPECT_DOUBLE_EQ(grads[0](0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(grads[0](0, 0, 1), 0.0);
  EXPECT_EQ(grads[0], grads[1]);
}

TEST(AddMerge, ShapeMismatchThrows) {
  Tensor3 a(1, 1, 2), b(1, 2, 2);
  AddMerge merge(2);
  const Tensor3* ins[2] = {&a, &b};
  EXPECT_THROW((void)LayerDriver(merge).forward({ins, 2}, false),
               std::invalid_argument);
}

TEST(Identity, PassThrough) {
  Identity id;
  Rng rng(1);
  const Tensor3 x = random_tensor(2, 3, 4, rng);
  LayerDriver driver(id);
  EXPECT_EQ(driver.forward(x, false), x);
  const auto g = driver.backward(x);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g[0], x);
}

TEST(GraphNetwork, SequentialChain) {
  GraphNetwork net;
  const auto l1 =
      net.add_node(std::make_unique<Dense>(2, 4), {GraphNetwork::input_id()});
  net.add_node(std::make_unique<Dense>(4, 3), {l1});
  net.init_params(42);
  Rng rng(2);
  const Tensor3 x = random_tensor(3, 2, 2, rng);
  const Tensor3 y = net.forward(x);
  EXPECT_EQ(y.dim2(), 3u);
  EXPECT_EQ(net.param_count(), (2u * 4u + 4u) + (4u * 3u + 3u));
}

TEST(GraphNetwork, ValidatesWiring) {
  GraphNetwork net;
  EXPECT_THROW(net.add_node(nullptr, {0}), std::invalid_argument);
  EXPECT_THROW(net.add_node(std::make_unique<Dense>(2, 2), {5}),
               std::invalid_argument);
  EXPECT_THROW(net.add_node(std::make_unique<Dense>(2, 2), {}),
               std::invalid_argument);
  // Arity mismatch: AddMerge(2) with one input.
  EXPECT_THROW(net.add_node(std::make_unique<AddMerge>(2), {0}),
               std::invalid_argument);
  // Forward with no computational node.
  Tensor3 x(1, 1, 2);
  EXPECT_THROW((void)net.forward(x), std::logic_error);
}

TEST(GraphNetwork, SkipConnectionTopology) {
  // input -> Dense(4) -> [skip: input projected to 4] add+relu -> Dense(2)
  GraphNetwork net;
  const auto main =
      net.add_node(std::make_unique<Dense>(3, 4), {GraphNetwork::input_id()});
  const auto proj =
      net.add_node(std::make_unique<Dense>(3, 4), {GraphNetwork::input_id()});
  const auto merge =
      net.add_node(std::make_unique<AddMerge>(2), {main, proj});
  net.add_node(std::make_unique<Dense>(4, 2), {merge});
  net.init_params(7);

  Rng rng(3);
  const Tensor3 x = random_tensor(2, 2, 3, rng);
  const Tensor3 y = net.forward(x);
  EXPECT_EQ(y.dim2(), 2u);
  EXPECT_EQ(net.node_count(), 5u);  // input + 4
}

TEST(GraphNetwork, GradientThroughSkipGraph) {
  // Whole-graph finite-difference check, including fan-out of the input
  // into two branches.
  GraphNetwork net;
  const auto main =
      net.add_node(std::make_unique<LSTM>(2, 3), {GraphNetwork::input_id()});
  const auto proj =
      net.add_node(std::make_unique<Dense>(2, 3), {GraphNetwork::input_id()});
  const auto merge =
      net.add_node(std::make_unique<AddMerge>(2), {main, proj});
  net.add_node(std::make_unique<LSTM>(3, 2), {merge});
  net.init_params(11);

  Rng rng(4);
  const Tensor3 x = random_tensor(2, 3, 2, rng, 0.7);
  const Tensor3 target = random_tensor(2, 3, 2, rng, 0.5);

  net.zero_grad();
  const Tensor3 out = net.forward(x, true);
  const Tensor3 dx = net.backward(mse_grad(target, out));

  auto loss_of = [&](const Tensor3& xin) {
    return mse_loss(target, net.forward(xin, false));
  };

  // Parameter gradients.
  const auto params = net.parameters();
  const auto grads = net.gradients();
  const double eps = 1e-5;
  for (std::size_t p = 0; p < params.size(); ++p) {
    const auto gflat = grads[p]->flat();
    // Re-acquire flat() per write so Matrix::version() advances and the
    // layers' prepacked weight panels notice each perturbation (see
    // gradient_check.hpp).
    for (std::size_t i = 0; i < gflat.size(); i += 3) {  // stride for speed
      const double saved = params[p]->flat()[i];
      params[p]->flat()[i] = saved + eps;
      const double up = loss_of(x);
      params[p]->flat()[i] = saved - eps;
      const double down = loss_of(x);
      params[p]->flat()[i] = saved;
      ASSERT_NEAR(gflat[i], (up - down) / (2.0 * eps), 3e-6)
          << "param " << p << " elem " << i;
    }
  }

  // Input gradient (fan-out sum of both branches).
  Tensor3 xm = x;
  auto xf = xm.flat();
  for (std::size_t i = 0; i < xf.size(); ++i) {
    const double saved = xf[i];
    xf[i] = saved + eps;
    const double up = loss_of(xm);
    xf[i] = saved - eps;
    const double down = loss_of(xm);
    xf[i] = saved;
    ASSERT_NEAR(dx.flat()[i], (up - down) / (2.0 * eps), 3e-6);
  }
}

TEST(GraphNetwork, DescribeListsNodes) {
  GraphNetwork net;
  const auto l1 =
      net.add_node(std::make_unique<LSTM>(5, 16), {GraphNetwork::input_id()});
  net.add_node(std::make_unique<LSTM>(16, 5), {l1});
  const std::string desc = net.describe();
  EXPECT_NE(desc.find("LSTM(16)"), std::string::npos);
  EXPECT_NE(desc.find("[output]"), std::string::npos);
}

TEST(GraphNetwork, ToDotRendersNodesAndEdges) {
  GraphNetwork net;
  const auto l1 =
      net.add_node(std::make_unique<LSTM>(5, 16), {GraphNetwork::input_id()});
  const auto proj =
      net.add_node(std::make_unique<Dense>(5, 16), {GraphNetwork::input_id()});
  const auto merge =
      net.add_node(std::make_unique<AddMerge>(2), {l1, proj});
  net.add_node(std::make_unique<LSTM>(16, 5), {merge});
  const std::string dot = net.to_dot("fig4");
  EXPECT_NE(dot.find("digraph fig4"), std::string::npos);
  EXPECT_NE(dot.find("LSTM(16)"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("n3 -> n4"), std::string::npos);
  EXPECT_NE(dot.find("lightblue"), std::string::npos);  // output highlight
}

TEST(GraphNetwork, BindRejectsInputsOfDifferentWidths) {
  GraphNetwork net;
  const auto a =
      net.add_node(std::make_unique<Dense>(3, 4), {GraphNetwork::input_id()});
  const auto b =
      net.add_node(std::make_unique<Dense>(3, 5), {GraphNetwork::input_id()});
  net.add_node(std::make_unique<AddMerge>(2), {a, b});
  const Tensor3 x(2, 2, 3);
  try {
    (void)net.forward(x);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("node 3 "), std::string::npos) << what;
    EXPECT_NE(what.find("node 1 is 4 wide"), std::string::npos) << what;
    EXPECT_NE(what.find("node 2 is 5"), std::string::npos) << what;
  }
}

/// LSTM -> LSTM merged (ReLU) with a tanh-Dense projection of the input,
/// then a tanh-Dense head: every layer kind that carves workspaces.
GraphNetwork prefix_net() {
  GraphNetwork net;
  const auto in = GraphNetwork::input_id();
  const auto lstm = net.add_node(std::make_unique<LSTM>(3, 6), {in});
  const auto lstm2 = net.add_node(std::make_unique<LSTM>(6, 5), {lstm});
  const auto proj =
      net.add_node(std::make_unique<Dense>(3, 5, Activation::kTanh), {in});
  const auto merge =
      net.add_node(std::make_unique<AddMerge>(2), {lstm2, proj});
  net.add_node(std::make_unique<Dense>(5, 2, Activation::kTanh), {merge});
  net.init_params(31);
  return net;
}

void expect_bitwise(const Tensor3& got, const Tensor3& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.flat()[i], want.flat()[i]) << "flat index " << i;
  }
}

TEST(GraphNetwork, PrefixBatchAfterPoisonedBoundBatchMatchesFreshBind) {
  // A smaller batch runs on prefix rows of workspaces last written by a
  // larger, NaN-filled pass; nothing of that pass may leak into its
  // output or gradients, and it must not rebind.
  constexpr std::size_t kBound = 6, kBatch = 3, kT = 4;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  GraphNetwork poisoned = prefix_net();
  const Tensor3 nan_x(kBound, kT, 3, nan);
  (void)poisoned.forward_ref(nan_x, true);
  (void)poisoned.backward_ref(Tensor3(kBound, kT, 2, nan));
  const std::size_t capacity = poisoned.arena()->capacity_bytes();
  const std::size_t carved = poisoned.arena()->bytes_in_use();

  Rng rng(8);
  const Tensor3 x = random_tensor(kBatch, kT, 3, rng);
  const Tensor3 g = random_tensor(kBatch, kT, 2, rng);
  GraphNetwork fresh = prefix_net();
  for (GraphNetwork* net : {&poisoned, &fresh}) net->zero_grad();
  expect_bitwise(poisoned.forward(x, true), fresh.forward(x, true));
  expect_bitwise(poisoned.backward(g), fresh.backward(g));
  const auto got = poisoned.gradients();
  const auto want = fresh.gradients();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t p = 0; p < got.size(); ++p) {
    EXPECT_EQ(*got[p], *want[p]) << "gradient " << p;
  }
  expect_bitwise(poisoned.forward(x, false), fresh.forward(x, false));
  EXPECT_EQ(poisoned.arena()->capacity_bytes(), capacity);
  EXPECT_EQ(poisoned.arena()->bytes_in_use(), carved);
}

TEST(GraphNetwork, InferenceBindCarvesOnlyForwardWorkspaces) {
  GraphNetwork net = prefix_net();
  Rng rng(9);
  const Tensor3 x = random_tensor(4, 5, 3, rng);
  (void)net.forward_ref(x, false);
  const std::size_t inference = net.arena()->bytes_in_use();
  (void)net.forward_ref(x, true);
  const std::size_t training = net.arena()->bytes_in_use();
  EXPECT_GT(training, inference);
  // Binds only grow: inference and smaller batches keep the training bind.
  const Tensor3 small = random_tensor(2, 5, 3, rng);
  (void)net.forward_ref(x, false);
  (void)net.forward_ref(small, true);
  EXPECT_EQ(net.arena()->bytes_in_use(), training);
}

/// True when two matrices hold the same shape and the same bits.
bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.size() * sizeof(double)) == 0;
}

TEST(GraphNetwork, CloneCopiesParametersOnly) {
  // Layer::clone promises the configuration and parameters, unbound,
  // with zeroed gradients; FrozenPlan::compile and clone_stream serve
  // from such copies. A trained winner step leaves nonzero gradients
  // and a bound arena behind for the clone not to copy.
  const searchspace::StackedLSTMSpace space;
  GraphNetwork net = space.build(
      searchspace::Architecture::from_key("5-1-3-1-1-3-1-0-0-0-1-0-0-1"));
  net.init_params(3);
  Rng rng(12);
  const Tensor3 x = random_tensor(4, 6, 5, rng);
  net.zero_grad();
  (void)net.forward_ref(x, true);
  (void)net.backward_ref(random_tensor(4, 6, 5, rng));
  const auto nonzero = [](const Matrix* g) {
    const Matrix& m = *g;
    return std::count_if(m.flat().begin(), m.flat().end(),
                         [](double v) { return v != 0.0; });
  };
  const auto grads = net.gradients();
  std::ptrdiff_t trained = 0;
  for (const Matrix* g : grads) trained += nonzero(g);
  ASSERT_GT(trained, 0);

  GraphNetwork copy = net.clone();
  EXPECT_EQ(copy.arena(), nullptr);
  const auto params = net.parameters();
  const auto copy_params = copy.parameters();
  ASSERT_EQ(copy_params.size(), params.size());
  for (std::size_t p = 0; p < params.size(); ++p) {
    EXPECT_TRUE(same_bits(*copy_params[p], *params[p])) << "parameter " << p;
  }
  const auto copy_grads = copy.gradients();
  ASSERT_EQ(copy_grads.size(), grads.size());
  for (std::size_t p = 0; p < copy_grads.size(); ++p) {
    EXPECT_EQ(nonzero(copy_grads[p]), 0) << "gradient " << p;
  }

  expect_bitwise(copy.forward(x, false), net.forward(x, false));

  std::vector<Matrix> snapshot;
  for (const Matrix* p : copy_params) snapshot.push_back(*p);
  (*params.front())(0, 0) += 1.0;
  for (std::size_t p = 0; p < copy_params.size(); ++p) {
    EXPECT_TRUE(same_bits(*copy_params[p], snapshot[p])) << "parameter " << p;
  }
}

TEST(GraphNetwork, DeterministicInit) {
  auto build = [] {
    GraphNetwork net;
    net.add_node(std::make_unique<Dense>(2, 3), {GraphNetwork::input_id()});
    return net;
  };
  GraphNetwork a = build();
  GraphNetwork b = build();
  a.init_params(99);
  b.init_params(99);
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(*pa[i], *pb[i]);
  }
}

}  // namespace
}  // namespace geonas::nn
