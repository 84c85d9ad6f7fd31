// Losses, optimizers, the trainer loop, and weight serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "gradient_check.hpp"
#include "hpc/parallel_for.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "searchspace/space.hpp"

namespace geonas::nn {
namespace {

using testing::random_tensor;

TEST(Loss, MseValueAndGradient) {
  Tensor3 t(1, 1, 2), p(1, 1, 2);
  t(0, 0, 0) = 1.0;
  t(0, 0, 1) = 2.0;
  p(0, 0, 0) = 2.0;
  p(0, 0, 1) = 0.0;
  EXPECT_DOUBLE_EQ(mse_loss(t, p), (1.0 + 4.0) / 2.0);
  const Tensor3 g = mse_grad(t, p);
  EXPECT_DOUBLE_EQ(g(0, 0, 0), 2.0 * (2.0 - 1.0) / 2.0);
  EXPECT_DOUBLE_EQ(g(0, 0, 1), 2.0 * (0.0 - 2.0) / 2.0);
}

TEST(Loss, R2MetricPerfect) {
  Rng rng(1);
  const Tensor3 t = random_tensor(2, 3, 4, rng);
  EXPECT_DOUBLE_EQ(r2_metric(t, t), 1.0);
}

TEST(Loss, ShapeMismatchThrows) {
  Tensor3 a(1, 2, 2), b(1, 2, 3);
  EXPECT_THROW((void)mse_loss(a, b), std::invalid_argument);
}

TEST(Optimizer, AdamFirstStepIsLearningRateSized) {
  Matrix w(1, 1, 0.0);
  Matrix g(1, 1, 3.0);
  Adam adam({&w}, {&g}, {.learning_rate = 0.01});
  adam.step();
  // After bias correction the first Adam step is ~lr * sign(g).
  EXPECT_NEAR(w(0, 0), -0.01, 1e-6);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  // Minimize (w - 3)^2.
  Matrix w(1, 1, -5.0);
  Matrix g(1, 1, 0.0);
  Adam adam({&w}, {&g}, {.learning_rate = 0.1});
  for (int i = 0; i < 500; ++i) {
    g(0, 0) = 2.0 * (w(0, 0) - 3.0);
    adam.step();
  }
  EXPECT_NEAR(w(0, 0), 3.0, 1e-2);
}

TEST(Optimizer, ShapeClashThrows) {
  Matrix w(1, 2);
  Matrix g(2, 1);
  EXPECT_THROW(Adam({&w}, {&g}), std::invalid_argument);
  EXPECT_THROW(Adam({&w}, {}), std::invalid_argument);
}

TEST(Optimizer, GradientClipping) {
  Matrix g(1, 2);
  g(0, 0) = 3.0;
  g(0, 1) = 4.0;  // norm 5
  const double norm = clip_gradients_by_norm({&g}, 1.0);
  EXPECT_DOUBLE_EQ(norm, 5.0);
  EXPECT_NEAR(std::sqrt(g(0, 0) * g(0, 0) + g(0, 1) * g(0, 1)), 1.0, 1e-12);
  // Below the cap: untouched.
  Matrix g2(1, 1, 0.5);
  (void)clip_gradients_by_norm({&g2}, 1.0);
  EXPECT_DOUBLE_EQ(g2(0, 0), 0.5);
}

GraphNetwork tiny_net(std::size_t units = 8) {
  GraphNetwork net;
  const auto l1 = net.add_node(std::make_unique<LSTM>(1, units),
                               {GraphNetwork::input_id()});
  net.add_node(std::make_unique<LSTM>(units, 1), {l1});
  return net;
}

TEST(Trainer, LearnsSineContinuation) {
  // Seq-to-seq toy task: given 6 samples of a sine, predict the next 6.
  const std::size_t n = 160, k = 6;
  Tensor3 x(n, k, 1), y(n, k, 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t t = 0; t < k; ++t) {
      const double phase = 0.3 * static_cast<double>(i);
      x(i, t, 0) = std::sin(phase + 0.4 * static_cast<double>(t));
      y(i, t, 0) = std::sin(phase + 0.4 * static_cast<double>(t + k));
    }
  }
  GraphNetwork net = tiny_net(16);
  net.init_params(3);
  const TrainConfig cfg{.epochs = 150, .batch_size = 32,
                        .learning_rate = 5e-3, .seed = 5};
  const TrainHistory hist = Trainer(cfg).fit(net, x, y, x, y);
  ASSERT_EQ(hist.train_loss.size(), 150u);
  EXPECT_LT(hist.train_loss.back(), hist.train_loss.front() * 0.2);
  EXPECT_GT(hist.best_val_r2(), 0.9);
}

TEST(Trainer, LossDecreasesMonotonicallyOnAverage) {
  Rng rng(6);
  const Tensor3 x = random_tensor(64, 4, 2, rng);
  Tensor3 y(64, 4, 2);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y.flat()[i] = 0.5 * x.flat()[i];  // learnable linear map
  }
  GraphNetwork net;
  net.add_node(std::make_unique<Dense>(2, 2), {GraphNetwork::input_id()});
  net.init_params(7);
  const TrainHistory hist =
      Trainer({.epochs = 200, .batch_size = 16, .learning_rate = 2e-2,
               .seed = 1})
          .fit(net, x, y, Tensor3{}, Tensor3{});
  EXPECT_LT(hist.train_loss.back(), 1e-3);
  EXPECT_TRUE(hist.val_r2.empty());
}

TEST(Trainer, WinnerStepDispatchBudget) {
  // Each layer pass costs a constant number of kernel-pool fork-joins,
  // not one per timestep GEMM: a recurrent forward is one (gather,
  // projection, bias and recurrence), BPTT two (data path, weight
  // gradients). A Table-II winner step at batch 64 on 4 kernel threads
  // makes exactly 26, the same count every step: 4 recurrent and 4
  // Dense forwards, 8 recurrent and 8 Dense backward fork-joins (the
  // Dense ones over the [W_grad; b_grad] rows and the dX rows), the
  // Adam update and the weight re-pack.
  hpc::set_kernel_threads(4);
  const searchspace::StackedLSTMSpace space;
  GraphNetwork net = space.build(
      searchspace::Architecture::from_key("5-1-3-1-1-3-1-0-0-0-1-0-0-1"));
  net.init_params(1);
  Rng rng(2);
  const Tensor3 x = random_tensor(64, 8, 5, rng);
  const Tensor3 y = random_tensor(64, 8, 5, rng);
  const Trainer trainer({.epochs = 1, .batch_size = 64});
  (void)trainer.fit(net, x, y, Tensor3{}, Tensor3{});  // binds workspaces

  obs::MetricsRegistry registry;
  obs::set_registry(&registry);
  const obs::Counter& dispatches = registry.counter("kernel.dispatches");
  (void)trainer.fit(net, x, y, Tensor3{}, Tensor3{});
  const std::uint64_t first = dispatches.value();
  (void)trainer.fit(net, x, y, Tensor3{}, Tensor3{});
  const std::uint64_t second = dispatches.value() - first;
  obs::set_registry(nullptr);
  hpc::set_kernel_threads(0);

  EXPECT_EQ(first, 26u);
  EXPECT_EQ(second, first);
}

TEST(Trainer, PredictMatchesForward) {
  GraphNetwork net = tiny_net();
  net.init_params(8);
  Rng rng(9);
  const Tensor3 x = random_tensor(10, 4, 1, rng);
  const Tensor3 direct = net.forward(x, false);
  const Tensor3 batched = Trainer::predict(net, x, 3);  // multiple batches
  ASSERT_EQ(batched.dim0(), direct.dim0());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(batched.flat()[i], direct.flat()[i], 1e-12);
  }
}

TEST(Trainer, DeterministicGivenSeed) {
  auto run = [] {
    Rng rng(10);
    const Tensor3 x = random_tensor(32, 3, 1, rng);
    const Tensor3 y = random_tensor(32, 3, 1, rng);
    GraphNetwork net = tiny_net();
    net.init_params(11);
    return Trainer({.epochs = 3, .batch_size = 8, .seed = 12})
        .fit(net, x, y, x, y)
        .val_r2.back();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Trainer, LrDecayEpochsDedupedAndNeverZero) {
  // epochs < 4 used to schedule a decay at epoch 0 (shrinking the whole
  // run before any full-rate training) or the same epoch twice.
  EXPECT_TRUE(lr_decay_epochs(1).empty());
  EXPECT_EQ(lr_decay_epochs(2), (std::vector<std::size_t>{1}));
  EXPECT_EQ(lr_decay_epochs(3), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(lr_decay_epochs(4), (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(lr_decay_epochs(100), (std::vector<std::size_t>{50, 75}));
  for (std::size_t epochs = 1; epochs <= 64; ++epochs) {
    const auto steps = lr_decay_epochs(epochs);
    for (std::size_t i = 0; i < steps.size(); ++i) {
      EXPECT_GT(steps[i], 0u) << "epochs=" << epochs;
      if (i > 0) {
        EXPECT_GT(steps[i], steps[i - 1]) << "epochs=" << epochs;
      }
    }
  }
}

TEST(Trainer, ShortRunsStillDecayAndTrain) {
  Rng rng(31);
  const Tensor3 x = random_tensor(16, 3, 1, rng);
  const Tensor3 y = random_tensor(16, 3, 1, rng);
  for (const std::size_t epochs : {1u, 2u, 3u}) {
    GraphNetwork net = tiny_net(4);
    net.init_params(32);
    const TrainHistory hist =
        Trainer({.epochs = epochs, .batch_size = 8, .lr_step_decay = 0.5,
                 .seed = 33})
            .fit(net, x, y, Tensor3{}, Tensor3{});
    EXPECT_EQ(hist.train_loss.size(), epochs);
  }
}

TEST(Trainer, EpochLossWeightsPartialFinalBatch) {
  // 10 examples at batch size 8 -> batches of 8 and 2. The epoch loss
  // must be the example-weighted mean (= whole-set MSE when lr is 0 and
  // the weights never move), not the mean of the two batch means, which
  // would overweight every example of the small final batch 4x.
  const std::size_t n = 10;
  Rng rng(34);
  const Tensor3 x = random_tensor(n, 3, 1, rng);
  Tensor3 y = random_tensor(n, 3, 1, rng);
  // Skew the tail examples so equal-batch weighting visibly differs.
  for (std::size_t t = 0; t < 3; ++t) {
    y(8, t, 0) += 50.0;
    y(9, t, 0) += 50.0;
  }
  GraphNetwork net = tiny_net(4);
  net.init_params(35);
  const TrainHistory hist =
      Trainer({.epochs = 1, .batch_size = 8, .learning_rate = 0.0})
          .fit(net, x, y, Tensor3{}, Tensor3{});
  ASSERT_EQ(hist.train_loss.size(), 1u);
  const Tensor3 pred = Trainer::predict(net, x);
  const double whole_set = mse_loss(y, pred);
  EXPECT_NEAR(hist.train_loss[0], whole_set, 1e-9 * whole_set);
}

TEST(Serialize, RoundTripRestoresOutputs) {
  GraphNetwork net = tiny_net();
  net.init_params(13);
  Rng rng(14);
  const Tensor3 x = random_tensor(3, 4, 1, rng);
  const Tensor3 before = net.forward(x, false);

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_weights_binary(net, buffer);

  GraphNetwork other = tiny_net();
  other.init_params(999);  // different weights
  load_weights_binary(other, buffer);
  const Tensor3 after = other.forward(x, false);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(before.flat()[i], after.flat()[i]);
  }
}

TEST(Serialize, RejectsMismatchedNetwork) {
  GraphNetwork net = tiny_net();
  net.init_params(1);
  std::ostringstream os(std::ios::binary);
  save_weights_binary(net, os);
  const std::string bytes = os.str();

  GraphNetwork different;  // 2 parameters, the file holds 6
  different.add_node(std::make_unique<Dense>(1, 1),
                     {GraphNetwork::input_id()});
  std::istringstream count_is(bytes, std::ios::binary);
  EXPECT_THROW(load_weights_binary(different, count_is), std::runtime_error);

  GraphNetwork narrower = tiny_net(4);  // 6 parameters of other shapes
  std::istringstream shape_is(bytes, std::ios::binary);
  EXPECT_THROW(load_weights_binary(narrower, shape_is), std::runtime_error);

  std::istringstream bad("not-a-weights-file 0");
  EXPECT_THROW(load_weights_binary(net, bad), std::runtime_error);
}

}  // namespace
}  // namespace geonas::nn
