// TSan-targeted stress tests for the concurrent evaluation stack
// (DESIGN.md "Correctness tooling"): pool shards whose bodies throw,
// concurrent dispatchers sharing one kernel team, parallel_for
// reconfiguration under fire, the parallel local NAS driver, threaded
// multi-agent PPO rounds, and concurrent cluster-simulator campaigns
// sharing one evaluator. These run in every flavor, but their purpose
// is the TSan preset — each test creates genuine cross-thread
// contention on the exact structures a scaled NAS campaign leans on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/eval_policy.hpp"
#include "core/nas_driver.hpp"
#include "core/surrogate.hpp"
#include "io/binary.hpp"
#include "hpc/cluster_sim.hpp"
#include "hpc/parallel_for.hpp"
#include "hpc/theta.hpp"
#include "hpc/thread_pool.hpp"
#include "search/aging_evolution.hpp"
#include "search/ppo.hpp"
#include "search/random_search.hpp"
#include "searchspace/space.hpp"
#include "tensor/blas.hpp"
#include "tensor/random.hpp"

namespace geonas {
namespace {

// Sanitizer runtimes are 5-20x slower; shrink iteration counts there so
// the instrumented suite stays in CI budget (coverage per iteration is
// identical, the races TSan hunts are per-operation, not per-volume).
#if defined(GEONAS_SANITIZE_BUILD)
constexpr std::size_t kScale = 1;
#else
constexpr std::size_t kScale = 4;
#endif

struct KernelThreadsGuard {
  explicit KernelThreadsGuard(std::size_t threads) {
    hpc::set_kernel_threads(threads);
  }
  ~KernelThreadsGuard() { hpc::set_kernel_threads(0); }
};

constexpr double kAboveThreshold = 2.0 * hpc::kParallelMinFlops;

TEST(PoolShardStress, DestructorJoinsThrowingBodiesWithoutJoin) {
  // Bodies throw on every shard, with and without a kernel team, and no
  // join() collects the exceptions: the destructors must still join
  // every thread without std::terminate.
  constexpr std::size_t kShards = 8;
  std::atomic<std::size_t> ran{0};
  {
    std::vector<std::unique_ptr<hpc::PoolShard>> shards;
    for (std::size_t i = 0; i < kShards; ++i) {
      shards.push_back(std::make_unique<hpc::PoolShard>(
          "throw" + std::to_string(i), 1 + i % 2, [&ran] {
            ran.fetch_add(1);
            throw std::runtime_error("body boom");
          }));
    }
  }
  EXPECT_EQ(ran.load(), kShards);
}

TEST(ParallelForStress, ReconfigureConcurrentWithRunningKernels) {
  // One thread cycles set_kernel_threads through pool sizes (retiring
  // and recreating the shared pool) while two compute threads keep
  // over-threshold parallel_for loops in flight. Every loop must still
  // cover its range exactly once, whichever pool generation it lands on.
  const std::size_t reconfigs = 60 * kScale;
  std::atomic<bool> done{false};
  std::thread reconfigurer([&] {
    std::size_t k = 2;
    for (std::size_t i = 0; i < reconfigs; ++i) {
      hpc::set_kernel_threads(k);
      k = (k % 4) + 2;  // 2, 3, 4, 5, 2, ...
    }
    done.store(true);
  });

  auto compute = [&](std::size_t salt, std::atomic<bool>& failed) {
    constexpr std::size_t kN = 991;
    while (!done.load()) {
      std::vector<int> visits(kN, 0);
      hpc::parallel_for(0, kN, kAboveThreshold, 1 + salt,
                        [&visits](std::size_t lo, std::size_t hi) {
                          for (std::size_t i = lo; i < hi; ++i) ++visits[i];
                        });
      for (std::size_t i = 0; i < kN; ++i) {
        if (visits[i] != 1) failed.store(true);
      }
    }
  };
  std::atomic<bool> failed_a{false}, failed_b{false};
  std::thread worker_a(compute, 0, std::ref(failed_a));
  std::thread worker_b(compute, 2, std::ref(failed_b));
  reconfigurer.join();
  worker_a.join();
  worker_b.join();
  hpc::set_kernel_threads(0);
  EXPECT_FALSE(failed_a.load());
  EXPECT_FALSE(failed_b.load());
}

TEST(ParallelForStress, NestedDispatchFromConcurrentCallers) {
  KernelThreadsGuard guard(3);
  constexpr std::size_t kCallers = 3, kOuter = 6, kInner = 128;
  const std::size_t rounds = 10 * kScale;
  std::vector<std::thread> callers;
  std::atomic<std::size_t> total{0};
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (std::size_t r = 0; r < rounds; ++r) {
        hpc::parallel_for(
            0, kOuter, kAboveThreshold, 1,
            [&total](std::size_t lo, std::size_t hi) {
              for (std::size_t i = lo; i < hi; ++i) {
                hpc::parallel_for(0, kInner, kAboveThreshold, 1,
                                  [&total](std::size_t ilo, std::size_t ihi) {
                                    total.fetch_add(
                                        ihi - ilo,
                                        std::memory_order_relaxed);
                                  });
              }
            });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), kCallers * rounds * kOuter * kInner);
}

TEST(ParallelForStress, ConcurrentDispatchersShareOneTeam) {
  // Four threads dispatch on the global team at once. A team runs one
  // job at a time and a dispatch that finds it busy runs inline on its
  // caller, so every dispatch must still cover its range exactly once,
  // and a GEMM must give the serial bits however its rows were split.
  KernelThreadsGuard guard(4);
  constexpr std::size_t kDim = 96;  // 2 * 96^3 flops: over the threshold
  constexpr std::size_t kN = 1009;
  Matrix a(kDim, kDim), b(kDim, kDim), want(kDim, kDim);
  Rng rng(21);
  for (double& v : a.flat()) v = rng.uniform(-1.0, 1.0);
  for (double& v : b.flat()) v = rng.uniform(-1.0, 1.0);
  const auto gemm = [&a, &b](Matrix& c) {
    gemm_raw(Trans::kNone, Trans::kNone, kDim, kDim, kDim, 1.0,
             std::as_const(a).flat().data(), kDim,
             std::as_const(b).flat().data(), kDim, 0.0, c.flat().data(),
             kDim);
  };
  hpc::PoolShard solo("solo", 1, [&gemm, &want] { gemm(want); });
  ASSERT_EQ(solo.join(), nullptr);

  const std::size_t rounds = 40 * kScale;
  std::atomic<bool> failed{false};
  std::vector<std::thread> dispatchers;
  for (std::size_t d = 0; d < 4; ++d) {
    dispatchers.emplace_back([&, d] {
      Matrix c(kDim, kDim);
      std::vector<int> visits(kN);
      for (std::size_t r = 0; r < rounds; ++r) {
        std::fill(visits.begin(), visits.end(), 0);
        hpc::parallel_for(0, kN, kAboveThreshold, 1 + d,
                          [&visits](std::size_t lo, std::size_t hi) {
                            for (std::size_t i = lo; i < hi; ++i) ++visits[i];
                          });
        for (const int v : visits) {
          if (v != 1) failed.store(true);
        }
        gemm(c);
        if (std::memcmp(std::as_const(c).flat().data(),
                        std::as_const(want).flat().data(),
                        kDim * kDim * sizeof(double)) != 0) {
          failed.store(true);
        }
      }
    });
  }
  for (auto& t : dispatchers) t.join();
  EXPECT_FALSE(failed.load());
}

TEST(NasDriverStress, ParallelLocalSearchSharedEvaluator) {
  const searchspace::StackedLSTMSpace space;
  core::SurrogateEvaluator evaluator(space);
  ASSERT_TRUE(evaluator.thread_safe());
  search::AgingEvolution method(
      space, {.population_size = 20, .sample_size = 5, .seed = 5});
  const std::size_t evaluations = 60 * kScale;
  const auto result =
      core::run_local_search_parallel(method, evaluator, evaluations,
                                      /*workers=*/8, /*seed=*/3);
  EXPECT_EQ(result.history.size(), evaluations);
  EXPECT_GT(result.best_reward, 0.0);
  EXPECT_LT(result.best_reward, 1.0);
  for (const auto& e : result.history) {
    EXPECT_TRUE(std::isfinite(e.reward));
    EXPECT_GT(e.params, 0u);
  }
}

TEST(PPOStress, ThreadedAgentsStayBitwiseIdentical) {
  // The real-threads analogue of the paper's 11-agent synchronous RL:
  // each round, one thread per PPOAgent gathers that agent's batch
  // against a shared thread-safe evaluator and computes its gradient;
  // at the round's join the gradients go through the production
  // reduction (search::all_reduce_mean_gradients, as simulate_rl uses
  // it) and every agent applies the mean. The paper's invariant — agent
  // policies stay bitwise identical because they all start uniform and
  // apply the same averaged gradient — must survive genuine concurrency.
  const searchspace::StackedLSTMSpace space;
  core::SurrogateEvaluator evaluator(space);
  constexpr std::size_t kAgents = 4, kBatch = 5;
  const std::size_t rounds = 2 * kScale;

  std::vector<search::PPOAgent> agents;
  agents.reserve(kAgents);
  for (std::size_t a = 0; a < kAgents; ++a) {
    agents.emplace_back(space, search::PPOConfig{}, a);
  }
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<std::vector<Matrix>> grads(kAgents);
    std::vector<std::thread> threads;
    threads.reserve(kAgents);
    for (std::size_t a = 0; a < kAgents; ++a) {
      threads.emplace_back([&, a] {
        std::vector<search::PPOAgent::Sample> batch;
        batch.reserve(kBatch);
        for (std::size_t b = 0; b < kBatch; ++b) {
          auto arch = agents[a].ask();
          const auto outcome =
              evaluator.evaluate(arch, a * 1000 + r * 100 + b);
          batch.push_back({std::move(arch), outcome.reward});
        }
        grads[a] = agents[a].compute_gradient(batch);
      });
    }
    for (auto& t : threads) t.join();
    const auto mean_grad = search::all_reduce_mean_gradients(grads);
    for (auto& agent : agents) agent.apply_gradient(mean_grad);
  }
  for (std::size_t a = 1; a < kAgents; ++a) {
    ASSERT_EQ(agents[a].logits().size(), agents[0].logits().size());
    for (std::size_t g = 0; g < agents[0].logits().size(); ++g) {
      ASSERT_EQ(agents[a].logits()[g], agents[0].logits()[g])
          << "agent " << a << " diverged at gene " << g;
    }
  }
}

TEST(ClusterSimStress, ConcurrentCampaignsShareEvaluator) {
  // Two asynchronous and one synchronous-RL simulated campaign run
  // concurrently against one shared thread-safe SurrogateEvaluator —
  // the pattern a sharded evaluation service will use. Each simulator
  // instance owns its own event state; only the evaluator is shared.
  const searchspace::StackedLSTMSpace space;
  core::SurrogateEvaluator evaluator(space);

  hpc::ClusterConfig async_cfg;
  async_cfg.nodes = 8;
  async_cfg.wall_time_seconds = 1500.0 * static_cast<double>(kScale);

  hpc::ClusterConfig rl_cfg;
  rl_cfg.nodes = 24;  // rl_partition: 11 agents + 11 workers + 2 idle
  rl_cfg.wall_time_seconds = 1500.0 * static_cast<double>(kScale);

  hpc::SimResult async_a, async_b, rl;
  std::thread ta([&] {
    search::RandomSearch rs(space, 11);
    const auto part = hpc::async_partition(async_cfg.nodes);
    EXPECT_EQ(part.workers, async_cfg.nodes);
    async_a = hpc::simulate_async(rs, evaluator, async_cfg);
  });
  std::thread tb([&] {
    search::AgingEvolution ae(space,
                              {.population_size = 10, .sample_size = 3});
    async_b = hpc::simulate_async(ae, evaluator, async_cfg);
  });
  std::thread tc([&] {
    const auto part = hpc::rl_partition(rl_cfg.nodes);
    EXPECT_EQ(part.agents, hpc::kRLAgents);
    rl = hpc::simulate_rl(space, search::PPOConfig{}, evaluator, rl_cfg);
  });
  ta.join();
  tb.join();
  tc.join();

  for (const auto* r : {&async_a, &async_b, &rl}) {
    EXPECT_GT(r->num_evaluations(), 0u);
    EXPECT_GE(r->utilization, 0.0);
    EXPECT_LE(r->utilization, 1.0);
  }
  EXPECT_GE(rl.rounds, 1u);
}

// Hammers the memoizer's single cache mutex from every direction at
// once: worker threads mixing cache hits and misses (the
// miss-evaluated-outside-lock path), a checkpoint thread streaming the
// cache through visit_entries into a BinaryWriter (the single-lock
// serialization contract), and a reader polling snapshot() /
// cache_bytes() / counters. Under TSan this is the runtime complement
// of the compile-time GEONAS_GUARDED_BY contracts on the same state.
TEST(MemoizerStress, ConcurrentEvaluateVsCheckpointStreaming) {
  const searchspace::StackedLSTMSpace space;
  core::SurrogateEvaluator inner(space);
  core::MemoizingEvaluator memo(inner);

  // A small shared pool of architectures guarantees heavy hit traffic;
  // pre-generated so workers share no Rng.
  constexpr std::size_t kArchs = 16;
  std::vector<searchspace::Architecture> archs;
  archs.reserve(kArchs);
  Rng rng(7);
  for (std::size_t i = 0; i < kArchs; ++i) {
    archs.push_back(space.random_architecture(rng));
  }

  constexpr std::size_t kWorkers = 4;
  const std::size_t evals_per_worker = 50 * kScale;
  std::atomic<bool> done{false};
  std::atomic<std::size_t> checkpoints{0};

  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t i = 0; i < evals_per_worker; ++i) {
        const auto& arch = archs[(w * 31 + i * 7) % kArchs];
        const auto outcome = memo.evaluate(arch, w * 1000 + i);
        EXPECT_TRUE(std::isfinite(outcome.reward));
      }
    });
  }
  // do/while: the workers can finish (and set `done`) before this thread
  // is first scheduled under a loaded machine; the test's checkpoint
  // assertions hold at any point in the run, so always stream at least
  // one checkpoint instead of flaking on checkpoints == 0.
  std::thread checkpointer([&] {
    do {
      std::ostringstream os;
      io::BinaryWriter writer(os, "GEONASMT", 1);
      std::size_t streamed = 0;
      memo.visit_entries(
          [&](std::size_t count) { writer.u64(count); },
          [&](const std::string& key, const hpc::EvalOutcome& outcome) {
            writer.str(key);
            writer.f64(outcome.reward);
            ++streamed;
          });
      writer.finish();
      EXPECT_LE(streamed, kArchs);
      checkpoints.fetch_add(1, std::memory_order_relaxed);
    } while (!done.load(std::memory_order_acquire));
  });
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto entries = memo.snapshot();
      EXPECT_LE(entries.size(), kArchs);
      EXPECT_LE(memo.size(), kArchs);
      // The cache only grows during the run and each entry accounts for
      // >= 64 bytes, so the footprint dominates the entry count.
      EXPECT_GE(memo.cache_bytes(), entries.size());
    }
  });
  for (auto& t : workers) t.join();
  done.store(true, std::memory_order_release);
  checkpointer.join();
  reader.join();

  // Every evaluation was a hit or a miss; at most one miss per distinct
  // architecture since the surrogate never fails by default... it can,
  // rarely (failure_prob), and failed outcomes are deliberately not
  // cached — so misses can exceed kArchs but hits + misses is exact.
  EXPECT_EQ(memo.hits() + memo.misses(), kWorkers * evals_per_worker);
  EXPECT_GE(memo.misses(), memo.size());
  EXPECT_LE(memo.size(), kArchs);
  EXPECT_GE(checkpoints.load(), 1u);
}

}  // namespace
}  // namespace geonas
