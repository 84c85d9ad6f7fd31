// End-to-end pipeline, NAS driver, reporting, scale config, and the
// TrainingEvaluator — run on a tiny grid so the suite stays fast.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/nas_driver.hpp"
#include "core/pipeline.hpp"
#include "core/reporting.hpp"
#include "core/surrogate.hpp"
#include "core/training_eval.hpp"
#include "hpc/parallel_for.hpp"
#include "hpc/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "tensor/stats.hpp"
#include "search/aging_evolution.hpp"
#include "search/random_search.hpp"

namespace geonas::core {
namespace {

PipelineConfig tiny_config() {
  PipelineConfig cfg;
  cfg.setup.scale = Scale::kQuick;
  cfg.setup.grid = {24, 48};
  cfg.setup.train_snapshots = 120;
  cfg.setup.total_snapshots = 240;
  cfg.setup.num_modes = 5;
  cfg.setup.window = 8;
  return cfg;
}

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline_ = new PODLSTMPipeline(tiny_config());
    pipeline_->prepare();
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }
  static PODLSTMPipeline* pipeline_;
};

PODLSTMPipeline* PipelineTest::pipeline_ = nullptr;

TEST_F(PipelineTest, CoefficientShapes) {
  const auto& p = *pipeline_;
  EXPECT_EQ(p.coefficients().rows(), 5u);
  EXPECT_EQ(p.coefficients().cols(), 240u);
  EXPECT_EQ(p.train_coefficients().cols(), 120u);
  EXPECT_EQ(p.test_coefficients().cols(), 120u);
}

TEST_F(PipelineTest, SplitSizes) {
  const auto& p = *pipeline_;
  // 120 - 16 + 1 = 105 windows, 80/20 split -> 84 / 21.
  EXPECT_EQ(p.split().train.size() + p.split().val.size(), 105u);
  EXPECT_EQ(p.split().train.size(), 84u);
  EXPECT_EQ(p.split().train.x.dim1(), 8u);
  EXPECT_EQ(p.split().train.x.dim2(), 5u);
}

TEST(PODLSTMPipeline, SplitMatchesWindowViewGathers) {
  // split() is materialized from the view on request: every example of
  // both halves must be, bitwise, the view's gather at split_indices().
  PODLSTMPipeline p(tiny_config());
  p.prepare();
  const data::SplitDataset split = p.split();
  const data::WindowView& view = p.train_window_view();
  const auto expect_gathers = [&view](const data::WindowedDataset& set,
                                      const std::vector<std::size_t>& idx) {
    ASSERT_EQ(set.size(), idx.size());
    ASSERT_EQ(set.x.dim1(), view.window());
    ASSERT_EQ(set.x.dim2(), view.features());
    std::vector<double> x(view.window() * view.features());
    std::vector<double> y(x.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
      view.gather_x(idx[i], x);
      view.gather_y(idx[i], y);
      ASSERT_EQ(std::memcmp(set.x.block(i).data(), x.data(),
                            x.size() * sizeof(double)),
                0)
          << "x of example " << i;
      ASSERT_EQ(std::memcmp(set.y.block(i).data(), y.data(),
                            y.size() * sizeof(double)),
                0)
          << "y of example " << i;
    }
  };
  expect_gathers(split.train, p.split_indices().train);
  expect_gathers(split.val, p.split_indices().val);
}

TEST_F(PipelineTest, PodEnergyBand) {
  EXPECT_GT(pipeline_->pod().energy_captured(5), 0.80);
}

TEST_F(PipelineTest, TrainCoefficientsMatchDirectProjection) {
  // prepare() projects the record in chunks, reusing the training
  // snapshots and generating the rest; here one chunk reaches the end of
  // training (week 120). Every column must have the bits of one direct
  // projection of the whole record.
  const auto& p = *pipeline_;
  const std::size_t total = p.config().setup.total_snapshots;
  const Matrix direct =
      p.pod().project(p.sst().snapshots(p.mask(), 0, total));
  ASSERT_EQ(direct.rows(), p.coefficients().rows());
  ASSERT_EQ(direct.cols(), total);
  for (std::size_t m = 0; m < direct.rows(); ++m) {
    for (std::size_t c = 0; c < total; ++c) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(p.coefficients()(m, c)),
                std::bit_cast<std::uint64_t>(direct(m, c)))
          << "mode " << m << ", week " << c;
    }
  }
}

TEST_F(PipelineTest, ReconstructFieldApproximatesTruth) {
  const auto& p = *pipeline_;
  const std::size_t week = 30;
  const auto truth = p.truth_field(week);
  const auto coeffs = p.coefficients().col_copy(week);
  const auto recon = p.reconstruct_field(coeffs);
  ASSERT_EQ(recon.size(), truth.size());
  // Relative reconstruction error bounded by the POD truncation.
  double num = 0.0, den = 0.0;
  const double tmean = [&] {
    double acc = 0.0;
    for (double v : truth) acc += v;
    return acc / static_cast<double>(truth.size());
  }();
  for (std::size_t i = 0; i < truth.size(); ++i) {
    num += (recon[i] - truth[i]) * (recon[i] - truth[i]);
    den += (truth[i] - tmean) * (truth[i] - tmean);
  }
  EXPECT_LT(num / den, 0.30);
}

TEST_F(PipelineTest, ScaledCoefficientsAreStandardizedOnTraining) {
  const auto& p = *pipeline_;
  const Matrix& sc = p.scaled_coefficients();
  ASSERT_EQ(sc.rows(), 5u);
  for (std::size_t m = 0; m < 5; ++m) {
    std::vector<double> train_vals;
    for (std::size_t t = 0; t < 120; ++t) train_vals.push_back(sc(m, t));
    EXPECT_NEAR(mean(train_vals), 0.0, 1e-9);
    EXPECT_NEAR(stddev(train_vals), 1.0, 1e-9);
  }
}

TEST_F(PipelineTest, UnscaleRoundTrip) {
  const auto& p = *pipeline_;
  std::vector<double> scaled(5);
  for (std::size_t m = 0; m < 5; ++m) {
    scaled[m] = p.scaled_coefficients()(m, 42);
  }
  const auto raw = p.unscale(scaled);
  for (std::size_t m = 0; m < 5; ++m) {
    EXPECT_NEAR(raw[m], p.coefficients()(m, 42), 1e-9);
  }
  EXPECT_THROW((void)p.unscale(std::vector<double>(3)),
               std::invalid_argument);
}

TEST_F(PipelineTest, ForecastCoefficientsLayout) {
  auto& p = *pipeline_;
  searchspace::StackedLSTMSpace space;
  Rng rng(1);
  nn::GraphNetwork net = space.build(space.random_architecture(rng));
  net.init_params(2);
  const Matrix fc = p.forecast_coefficients(net, 0, 120);
  EXPECT_EQ(fc.rows(), 5u);
  EXPECT_EQ(fc.cols(), 120u);
  // Warm-up region equals the truth.
  for (std::size_t m = 0; m < 5; ++m) {
    for (std::size_t t = 0; t < 8; ++t) {
      EXPECT_DOUBLE_EQ(fc(m, t), p.coefficients()(m, t));
    }
  }
  EXPECT_THROW((void)p.forecast_coefficients(net, 0, 10),
               std::invalid_argument);
}

TEST_F(PipelineTest, WeekRangeValidationNamesEveryValue) {
  // Regression: an INVERTED range (week0 > week1) used to slip past the
  // length check — week1 - week0 underflowed on size_t to a huge span —
  // and crash deep inside windowing. The ordering check must run before
  // any subtraction, and the message must name the offending values.
  auto& p = *pipeline_;
  searchspace::StackedLSTMSpace space;
  Rng rng(1);
  nn::GraphNetwork net = space.build(space.random_architecture(rng));
  net.init_params(2);

  const auto expect_named_throw = [](auto&& call, const char* needle) {
    try {
      call();
      FAIL() << "expected invalid_argument naming " << needle;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("week0="), std::string::npos) << what;
      EXPECT_NE(what.find("week1="), std::string::npos) << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  };

  // Inverted range: the size_t-underflow regression case proper.
  expect_named_throw(
      [&] { (void)p.forecast_coefficients(net, 120, 40); }, "week0=120");
  expect_named_throw([&] { (void)p.windows(120, 40); }, "week0=120");
  // Empty range.
  expect_named_throw([&] { (void)p.windows(50, 50); }, "week0=50");
  // Past the end of the record (total = 240).
  expect_named_throw([&] { (void)p.windows(0, 500); },
                     "total_snapshots=240");
  // Ordered but too short for one 2K window: the message names the span
  // and the window length K.
  try {
    (void)p.windows(0, 15);
    FAIL() << "expected invalid_argument for a sub-2K range";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("spans 15"), std::string::npos) << what;
    EXPECT_NE(what.find("2K = 16"), std::string::npos) << what;
    EXPECT_NE(what.find("K=window=8"), std::string::npos) << what;
  }
  // The boundary itself is fine: exactly one window.
  EXPECT_EQ(p.windows(0, 16).size(), 1u);
}

TEST_F(PipelineTest, TrainedForecastBeatsUntrained) {
  auto& p = *pipeline_;
  searchspace::StackedLSTMSpace space;
  std::vector<std::size_t> op_genes;
  for (std::size_t g = 0; g < space.num_genes(); ++g) {
    if (!space.is_skip_gene(g)) op_genes.push_back(g);
  }
  searchspace::Architecture arch;
  arch.genes.assign(space.num_genes(), 0);
  arch.genes[op_genes[0]] = 2;  // LSTM(32)

  nn::GraphNetwork net = space.build(arch);
  net.init_params(3);
  const auto& split = p.split();
  const Tensor3 before =
      nn::Trainer::predict(net, split.val.x);
  const double r2_before = p.window_r2(split.val.y, before);

  (void)nn::Trainer({.epochs = 60, .batch_size = 32, .seed = 4})
      .fit(net, split.train.x, split.train.y, split.val.x, split.val.y);
  const Tensor3 after = nn::Trainer::predict(net, split.val.x);
  const double r2_after = p.window_r2(split.val.y, after);
  EXPECT_GT(r2_after, r2_before);
  EXPECT_GT(r2_after, 0.4);
}

TEST_F(PipelineTest, LeadPredictionsShape) {
  auto& p = *pipeline_;
  searchspace::StackedLSTMSpace space;
  Rng rng(5);
  nn::GraphNetwork net = space.build(space.random_architecture(rng));
  net.init_params(6);
  const Tensor3 leads = p.lead_predictions(net, 120, 200);
  EXPECT_EQ(leads.dim0(), 80u - 16u + 1u);
  EXPECT_EQ(leads.dim1(), 8u);
  EXPECT_EQ(leads.dim2(), 5u);
}

TEST_F(PipelineTest, TrainingEvaluatorProducesReward) {
  auto& p = *pipeline_;
  searchspace::StackedLSTMSpace space;
  const auto& split = p.split();
  TrainingEvaluator evaluator(space, split.train.x, split.train.y,
                              split.val.x, split.val.y,
                              {.epochs = 3, .batch_size = 32});
  searchspace::Architecture arch;
  arch.genes.assign(space.num_genes(), 0);
  std::vector<std::size_t> op_genes;
  for (std::size_t g = 0; g < space.num_genes(); ++g) {
    if (!space.is_skip_gene(g)) op_genes.push_back(g);
  }
  arch.genes[op_genes[0]] = 1;  // LSTM(16)
  const auto out = evaluator.evaluate(arch, 1);
  EXPECT_TRUE(std::isfinite(out.reward));
  EXPECT_GT(out.reward, -1.0);
  EXPECT_LE(out.reward, 1.0);
  EXPECT_GT(out.duration_seconds, 0.0);
  EXPECT_EQ(out.params, space.param_count(arch));
  EXPECT_EQ(evaluator.evaluations(), 1u);
}

TEST(NasDriver, SerialSearchFindsGoodArchitecture) {
  searchspace::StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  search::AgingEvolution ae(space, {.population_size = 50, .sample_size = 8,
                                    .seed = 2});
  const LocalSearchResult result = run_local_search(ae, oracle, 800, 3);
  EXPECT_EQ(result.history.size(), 800u);
  EXPECT_GT(result.best_reward, 0.955);
  EXPECT_TRUE(space.valid(result.best));
}

TEST(NasDriver, ParallelMatchesWorkload) {
  searchspace::StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  search::RandomSearch rs(space, 3);
  const LocalSearchResult result =
      run_local_search_parallel(rs, oracle, 200, 4, 5);
  EXPECT_EQ(result.history.size(), 200u);
  EXPECT_TRUE(space.valid(result.best));
}

/// Records the participant count of the kernel shard each evaluation
/// runs under (0 when none is bound) and issues an over-threshold
/// parallel_for on it.
class ShardProbeEvaluator final : public hpc::ArchitectureEvaluator {
 public:
  hpc::EvalOutcome evaluate(const searchspace::Architecture& /*arch*/,
                            std::uint64_t /*eval_seed*/) override {
    const hpc::PoolShard* shard = hpc::current_pool_shard();
    std::atomic<std::size_t> covered{0};
    hpc::parallel_for(0, 64, 2.0 * hpc::kParallelMinFlops, 1,
                      [&covered](std::size_t lo, std::size_t hi) {
                        covered += hi - lo;
                      });
    const std::lock_guard<std::mutex> lock(mutex_);
    participants_.push_back(shard == nullptr ? 0 : shard->participants());
    return {.reward = covered.load() == 64 ? 0.5 : -1.0};
  }
  [[nodiscard]] bool thread_safe() const override { return true; }

  [[nodiscard]] std::vector<std::size_t> participants() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return participants_;
  }

 private:
  std::mutex mutex_;
  std::vector<std::size_t> participants_;
};

/// Returns scripted rewards in call order (the driver's serial and
/// one-worker orders are the ask order).
class ScriptedEvaluator final : public hpc::ArchitectureEvaluator {
 public:
  explicit ScriptedEvaluator(std::vector<double> rewards)
      : rewards_(std::move(rewards)) {}
  hpc::EvalOutcome evaluate(const searchspace::Architecture& /*arch*/,
                            std::uint64_t /*eval_seed*/) override {
    return {.reward = rewards_.at(next_++)};
  }
  [[nodiscard]] bool thread_safe() const override { return true; }

 private:
  std::vector<double> rewards_;
  std::atomic<std::size_t> next_{0};
};

TEST(NasDriver, DivergedFirstTrainingDoesNotPinBest) {
  // A NaN first reward (a diverged training, retries off by default)
  // must not become a best that nothing can beat: x > NaN is false.
  const searchspace::StackedLSTMSpace space;
  const std::vector<double> rewards = {
      std::numeric_limits<double>::quiet_NaN(), 0.5, 0.3};
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel, 1 worker" : "serial");
    ScriptedEvaluator evaluator(rewards);
    search::RandomSearch rs(space, 3);
    const LocalSearchResult result =
        parallel ? run_local_search_parallel(rs, evaluator, 3, 1, 5)
                 : run_local_search(rs, evaluator, 3, 5);
    ASSERT_EQ(result.history.size(), 3u);
    EXPECT_DOUBLE_EQ(result.best_reward, 0.5);
    EXPECT_EQ(result.best.key(), result.history[1].arch.key());
  }
}

TEST(NasDriver, WorkersRunKernelsOnPrivateShards) {
  // Every parallel-campaign worker gets a private kernel shard of
  // kernel_threads() / workers participants: with as many workers as
  // kernel threads every campaign kernel runs inline and the global pool
  // stays idle; with fewer workers the shards split the budget.
  hpc::set_kernel_threads(4);
  obs::MetricsRegistry registry;
  obs::set_registry(&registry);
  const searchspace::StackedLSTMSpace space;
  ShardProbeEvaluator four, two;
  search::RandomSearch rs4(space, 3), rs2(space, 3);
  (void)run_local_search_parallel(rs4, four, 16, 4, 5);
  const std::uint64_t global_after_four =
      registry.counter("kernel.dispatches").value();
  (void)run_local_search_parallel(rs2, two, 16, 2, 5);
  const std::uint64_t global_after_two =
      registry.counter("kernel.dispatches").value();
  const std::uint64_t shard_dispatches =
      registry.counter("kernel.shard.w0.dispatches").value() +
      registry.counter("kernel.shard.w1.dispatches").value();
  obs::set_registry(nullptr);
  hpc::set_kernel_threads(0);

  EXPECT_EQ(four.participants(), std::vector<std::size_t>(16, 1));
  EXPECT_EQ(two.participants(), std::vector<std::size_t>(16, 2));
  EXPECT_EQ(global_after_four, 0u);
  EXPECT_EQ(global_after_two, 0u);
  EXPECT_EQ(shard_dispatches, 16u);  // every 2-participant shard splits
}

TEST(NasDriver, OneWorkerParallelMatchesSerial) {
  // Both entry points run one campaign loop, so a one-worker parallel
  // campaign must replay the serial one bitwise: the history, the best
  // and every checkpoint byte.
  const searchspace::StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  const auto run = [&](bool parallel) {
    const std::string path = parallel ? "/tmp/geonas_one_worker_parallel.bin"
                                      : "/tmp/geonas_one_worker_serial.bin";
    search::AgingEvolution ae(space, {.population_size = 20,
                                      .sample_size = 5, .seed = 4});
    SearchRunOptions opts;
    opts.checkpoint_path = path;
    opts.checkpoint_every = 10;
    LocalSearchResult result =
        parallel ? run_local_search_parallel(ae, oracle, 60, 1, 9, opts)
                 : run_local_search(ae, oracle, 60, 9, opts);
    std::ifstream is(path, std::ios::binary);
    std::string bytes{std::istreambuf_iterator<char>(is), {}};
    std::remove(path.c_str());
    return std::pair{std::move(result), std::move(bytes)};
  };
  const auto [serial, serial_bytes] = run(false);
  const auto [parallel, parallel_bytes] = run(true);
  ASSERT_EQ(serial.history.size(), 60u);
  ASSERT_EQ(parallel.history.size(), serial.history.size());
  for (std::size_t i = 0; i < serial.history.size(); ++i) {
    ASSERT_EQ(parallel.history[i].arch.key(), serial.history[i].arch.key())
        << "diverged at evaluation " << i;
    ASSERT_EQ(std::memcmp(&parallel.history[i].reward,
                          &serial.history[i].reward, sizeof(double)),
              0)
        << "reward diverged at evaluation " << i;
  }
  EXPECT_EQ(parallel.best.key(), serial.best.key());
  EXPECT_EQ(std::memcmp(&parallel.best_reward, &serial.best_reward,
                        sizeof(double)),
            0);
  ASSERT_FALSE(serial_bytes.empty());
  EXPECT_EQ(parallel_bytes, serial_bytes);
}

/// Throws on its `fail_at`-th call and tracks the calls made and the
/// calls still running.
class ThrowingEvaluator final : public hpc::ArchitectureEvaluator {
 public:
  explicit ThrowingEvaluator(std::size_t fail_at) : fail_at_(fail_at) {}
  hpc::EvalOutcome evaluate(const searchspace::Architecture& /*arch*/,
                            std::uint64_t /*eval_seed*/) override {
    const std::size_t call = calls_.fetch_add(1) + 1;
    in_flight_.fetch_add(1);
    // Long enough for the workers' evaluations to overlap.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    in_flight_.fetch_sub(1);
    if (call == fail_at_) throw std::runtime_error("evaluation failed");
    return {.reward = 0.5};
  }
  [[nodiscard]] bool thread_safe() const override { return true; }
  [[nodiscard]] std::size_t calls() const { return calls_.load(); }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_.load(); }

 private:
  const std::size_t fail_at_;
  std::atomic<std::size_t> calls_{0};
  std::atomic<std::size_t> in_flight_{0};
};

TEST(NasDriver, ParallelWorkerExceptionSurfacesAfterJoin) {
  // With retries off, a throwing evaluation ends its worker. The other
  // workers finish the campaign, and the exception reaches the caller
  // only once every worker has returned.
  const searchspace::StackedLSTMSpace space;
  ThrowingEvaluator evaluator(5);
  search::RandomSearch rs(space, 3);
  bool caught = false;
  try {
    (void)run_local_search_parallel(rs, evaluator, 20, 3, 5);
  } catch (const std::runtime_error& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "evaluation failed");
    EXPECT_EQ(evaluator.calls(), 20u);
    EXPECT_EQ(evaluator.in_flight(), 0u);
  }
  EXPECT_TRUE(caught);
}

TEST(Scale, EnvironmentDetection) {
  ::unsetenv("GEONAS_SCALE");
  EXPECT_EQ(detect_scale(), Scale::kQuick);
  ::setenv("GEONAS_SCALE", "full", 1);
  EXPECT_EQ(detect_scale(), Scale::kFull);
  ::unsetenv("GEONAS_SCALE");
  const auto quick = ExperimentSetup::make(Scale::kQuick);
  const auto full = ExperimentSetup::make(Scale::kFull);
  EXPECT_EQ(full.grid.nlat, 180u);
  EXPECT_EQ(full.posttrain_epochs, 100u);  // the paper's setting
  EXPECT_LT(quick.grid.cells(), full.grid.cells());
  EXPECT_EQ(quick.train_snapshots, 427u);  // period structure is preserved
  EXPECT_EQ(quick.total_snapshots, 1914u);
}

TEST(Reporting, TextTableAlignsAndValidates) {
  TextTable table({"Model", "R2"});
  table.add_row({"NAS-POD-LSTM", TextTable::num(0.876)});
  table.add_row({"Linear", TextTable::num(0.172)});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("NAS-POD-LSTM"), std::string::npos);
  EXPECT_NE(out.find("0.876"), std::string::npos);
  EXPECT_NE(out.find("|---"), std::string::npos);
  EXPECT_THROW(table.add_row({"too", "many", "cells"}), std::invalid_argument);
  EXPECT_EQ(TextTable::integer(42), "42");
}

TEST(Reporting, AsciiSeriesRendersBounds) {
  std::vector<double> series;
  for (int i = 0; i < 200; ++i) series.push_back(static_cast<double>(i));
  const std::string plot = ascii_series(series, 40, 8);
  EXPECT_NE(plot.find('*'), std::string::npos);
  EXPECT_EQ(ascii_series({}, 10, 5), "(empty series)\n");
}

TEST(Reporting, AsciiSeriesSurvivesNonFiniteInput) {
  // Regression: a diverged training curve (NaN/Inf losses) used to push
  // a NaN `frac` through a size_t cast — undefined behaviour. Non-finite
  // points must be skipped, not plotted, and must not poison the
  // auto-range.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> series{1.0, 2.0, nan, 3.0, inf, 4.0, -inf, 5.0};
  const std::string plot = ascii_series(series, 8, 5);
  EXPECT_NE(plot.find('*'), std::string::npos);
  // Auto-range comes from the finite values only: axis labels show the
  // finite max/min, not inf.
  EXPECT_NE(plot.find("5.000"), std::string::npos);
  EXPECT_NE(plot.find("1.000"), std::string::npos);
  EXPECT_EQ(plot.find("inf"), std::string::npos);
  EXPECT_EQ(plot.find("nan"), std::string::npos);

  // Leading NaN: nothing to carry into the first bucket; still renders.
  const std::string leading = ascii_series({nan, nan, 1.0, 2.0}, 4, 3);
  EXPECT_NE(leading.find('*'), std::string::npos);

  // All-non-finite input renders a sentinel instead of plotting.
  EXPECT_EQ(ascii_series({nan, inf, -inf}, 10, 5), "(no finite data)\n");
}

}  // namespace
}  // namespace geonas::core
