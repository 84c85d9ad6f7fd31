// ServeEngine contracts: every accepted request is answered exactly
// once with the same forecast a standalone plan run produces; shutdown
// drains the queue; submission after shutdown is rejected. Suites are
// named Serve* so the TSan quick gate (tools/run_checks.sh --quick)
// stresses the queue/stream handoff under the race detector.
#include <cstddef>
#include <future>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nn/graph.hpp"
#include "nn/lstm.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "serve/frozen_plan.hpp"
#include "tensor/random.hpp"

namespace geonas::serve {
namespace {

constexpr std::size_t kSteps = 4;
constexpr std::size_t kModes = 3;

nn::GraphNetwork small_net() {
  nn::GraphNetwork net;
  const auto l1 = net.add_node(std::make_unique<nn::LSTM>(kModes, 8),
                               {nn::GraphNetwork::input_id()});
  net.add_node(std::make_unique<nn::LSTM>(8, kModes), {l1});
  net.init_params(42);
  return net;
}

FrozenPlan small_plan(std::size_t max_batch = 8) {
  nn::GraphNetwork net = small_net();
  return FrozenPlan::compile(net, kSteps, max_batch);
}

std::vector<double> random_window(Rng& rng) {
  std::vector<double> w(kSteps * kModes);
  for (double& v : w) v = rng.uniform(-2.0, 2.0);
  return w;
}

Forecast reference_forecast(FrozenPlan& plan,
                            const std::vector<double>& window) {
  Tensor3 x(1, kSteps, kModes);
  std::copy(window.begin(), window.end(), x.flat().begin());
  const Tensor3& out = plan.run(x);
  return {out.flat().begin(), out.flat().end()};
}

TEST(ServeEngine, AnswersMatchStandalonePlanRuns) {
  FrozenPlan reference = small_plan();
  ServeEngine engine(reference.clone_stream(),
                     {.streams = 2, .max_delay_seconds = 0.0002});
  Rng rng(1);
  std::vector<std::vector<double>> windows;
  std::vector<std::future<Forecast>> futures;
  for (int i = 0; i < 64; ++i) {
    windows.push_back(random_window(rng));
    futures.push_back(engine.submit(windows.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Forecast got = futures[i].get();
    const Forecast want = reference_forecast(reference, windows[i]);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      ASSERT_EQ(got[j], want[j])
          << "request " << i << " diverges at offset " << j
          << " (coalescing must be transparent)";
    }
  }
  engine.shutdown();
}

TEST(ServeEngine, ShutdownDrainsEveryAcceptedRequest) {
  // Kill the engine immediately after a burst: every accepted request
  // must still be answered (exactly once — a broken promise or a double
  // set_value would surface as future errors).
  Rng rng(2);
  std::vector<std::future<Forecast>> futures;
  {
    ServeEngine engine(small_plan(),
                       {.streams = 3, .max_delay_seconds = 0.001});
    for (int i = 0; i < 200; ++i) {
      futures.push_back(engine.submit(random_window(rng)));
    }
    engine.shutdown();
    // Drained on return: every future must already be ready.
    for (auto& f : futures) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
    }
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().size(), kSteps * kModes);
  }
}

TEST(ServeEngine, DestructorDrainsWithoutExplicitShutdown) {
  Rng rng(3);
  std::vector<std::future<Forecast>> futures;
  {
    ServeEngine engine(small_plan(), {.streams = 2});
    for (int i = 0; i < 50; ++i) {
      futures.push_back(engine.submit(random_window(rng)));
    }
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().size(), kSteps * kModes);
  }
}

TEST(ServeEngine, SubmitAfterShutdownThrows) {
  ServeEngine engine(small_plan(), {.streams = 1});
  engine.shutdown();
  Rng rng(4);
  const auto window = random_window(rng);
  EXPECT_THROW((void)engine.submit(window), std::runtime_error);
  engine.shutdown();  // idempotent
}

TEST(ServeEngine, SubmitRejectsWrongWindowSize) {
  ServeEngine engine(small_plan(), {.streams = 1});
  const std::vector<double> short_window(kSteps * kModes - 1, 0.0);
  try {
    (void)engine.submit(short_window);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(short_window.size())),
              std::string::npos);
    EXPECT_NE(what.find(std::to_string(kSteps * kModes)), std::string::npos);
  }
}

TEST(ServeEngine, SubmitRejectsNonFiniteWindows) {
  obs::MetricsRegistry registry;
  obs::set_registry(&registry);
  {
    ServeEngine engine(small_plan(), {.streams = 1});
    bool preregistered = false;
    for (const auto& [name, counter] : registry.counters()) {
      preregistered |= name == "serve.rejected_nonfinite";
    }
    EXPECT_TRUE(preregistered);
    Rng rng(6);
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
      std::vector<double> window = random_window(rng);
      window[5] = bad;
      window[7] = bad;
      try {
        (void)engine.submit(window);
        ADD_FAILURE() << "expected invalid_argument for " << bad;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("index 5 "), std::string::npos)
            << e.what();
      }
    }
    // Finite windows are still served after the rejections.
    EXPECT_EQ(engine.submit(random_window(rng)).get().size(),
              kSteps * kModes);
    engine.shutdown();
  }
  obs::set_registry(nullptr);
  EXPECT_EQ(registry.counter("serve.rejected_nonfinite").value(), 3u);
  EXPECT_EQ(registry.counter("serve.rejected").value(), 3u);
  EXPECT_EQ(registry.counter("serve.requests").value(), 1u);
}

TEST(ServeEngine, ConcurrentSubmittersAllAnswered) {
  // Multi-producer stress for the TSan slice: 4 submitter threads flood a
  // small-capacity queue (exercising the not_full_ backpressure path)
  // while 2 streams drain it.
  ServeEngine engine(small_plan(4), {.streams = 2,
                                     .max_delay_seconds = 0.0001,
                                     .queue_capacity = 8});
  constexpr int kPerProducer = 100;
  std::vector<std::size_t> answered(4, 0);
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&engine, &answered, p] {
      Rng rng(100 + static_cast<std::uint64_t>(p));
      std::vector<std::future<Forecast>> futures;
      for (int i = 0; i < kPerProducer; ++i) {
        futures.push_back(engine.submit(random_window(rng)));
      }
      for (auto& f : futures) {
        if (f.get().size() == kSteps * kModes) ++answered[p];
      }
    });
  }
  for (std::thread& t : producers) t.join();
  std::size_t total = 0;
  for (const std::size_t ok : answered) total += ok;
  EXPECT_EQ(total, 4 * kPerProducer);
  engine.shutdown();
}

TEST(ServeEngine, RecordsTelemetryWhenRegistryInstalled) {
  obs::MetricsRegistry registry;
  obs::set_registry(&registry);
  {
    ServeEngine engine(small_plan(), {.streams = 2});
    Rng rng(5);
    std::vector<std::future<Forecast>> futures;
    for (int i = 0; i < 32; ++i) {
      futures.push_back(engine.submit(random_window(rng)));
    }
    for (auto& f : futures) (void)f.get();
    engine.shutdown();
  }
  obs::set_registry(nullptr);
  EXPECT_EQ(registry.counter("serve.requests").value(), 32u);
  EXPECT_GE(registry.counter("serve.batches").value(), 1u);
  EXPECT_EQ(registry.histogram("serve.e2e_seconds").count(), 32u);
  EXPECT_EQ(registry.histogram("serve.queue_wait_seconds").count(), 32u);
  EXPECT_GT(registry.histogram("serve.e2e_seconds").percentile(99), 0.0);
  const obs::Histogram& batch = registry.histogram("serve.batch_size");
  EXPECT_GE(batch.min(), 1.0);
  EXPECT_LE(batch.max(), 8.0);
}

}  // namespace
}  // namespace geonas::serve
