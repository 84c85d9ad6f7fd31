// Real parallel primitives: thread pool, MPI-style channel, and the
// kernel-layer parallel_for built on top of the pool.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "hpc/parallel_for.hpp"
#include "hpc/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace geonas::hpc {
namespace {

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ReturnsValues) {
  ThreadPool pool(2);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)f.get(), std::runtime_error);
}

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(Channel, SendRecvOrdered) {
  Channel<int> ch;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(ch.send(i));
  for (int i = 0; i < 10; ++i) {
    const auto v = ch.recv();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(Channel, CloseDrainsThenSignals) {
  Channel<int> ch;
  (void)ch.send(1);
  ch.close();
  EXPECT_FALSE(ch.send(2));  // closed
  EXPECT_EQ(ch.recv().value(), 1);
  EXPECT_FALSE(ch.recv().has_value());  // drained + closed
}

TEST(Channel, CrossThreadTransfer) {
  Channel<int> ch(8);
  std::thread producer([&ch] {
    for (int i = 0; i < 100; ++i) (void)ch.send(i);
    ch.close();
  });
  long sum = 0;
  int count = 0;
  while (auto v = ch.recv()) {
    sum += *v;
    ++count;
  }
  producer.join();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sum, 4950);
}

/// Pins the kernel-pool thread count for one test and restores the
/// hardware default on scope exit, even through a failing assertion.
struct KernelThreadsGuard {
  explicit KernelThreadsGuard(std::size_t threads) {
    set_kernel_threads(threads);
  }
  ~KernelThreadsGuard() { set_kernel_threads(0); }
};

constexpr double kAboveThreshold = 2.0 * kParallelMinFlops;

TEST(ParallelFor, CoversRangeExactlyOnce) {
  KernelThreadsGuard guard(4);
  constexpr std::size_t kN = 1003;
  std::vector<int> visits(kN, 0);
  // Chunks are disjoint, so the writes below race-free by construction;
  // the assertion catches both gaps and overlaps.
  parallel_for(0, kN, kAboveThreshold, 1,
               [&visits](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) ++visits[i];
               });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i], 1) << "index " << i;
  }
}

TEST(ParallelFor, RunsInlineBelowCostThreshold) {
  KernelThreadsGuard guard(4);
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for(5, 905, kParallelMinFlops / 2.0, 1,
               [&chunks](std::size_t lo, std::size_t hi) {
                 chunks.emplace_back(lo, hi);  // safe: must be one call
               });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 5u);
  EXPECT_EQ(chunks[0].second, 905u);
}

TEST(ParallelFor, RunsInlineWithOneThread) {
  KernelThreadsGuard guard(1);
  int calls = 0;
  std::thread::id body_thread;
  parallel_for(0, 64, kAboveThreshold, 1,
               [&](std::size_t lo, std::size_t hi) {
                 ++calls;
                 body_thread = std::this_thread::get_id();
                 EXPECT_EQ(lo, 0u);
                 EXPECT_EQ(hi, 64u);
               });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(body_thread, std::this_thread::get_id());
}

TEST(ParallelFor, ChunkBoundariesAlignToGrain) {
  KernelThreadsGuard guard(3);
  constexpr std::size_t kN = 130, kGrain = 4;
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for(0, kN, kAboveThreshold, kGrain,
               [&](std::size_t lo, std::size_t hi) {
                 const std::lock_guard<std::mutex> lock(mu);
                 chunks.emplace_back(lo, hi);
               });
  std::size_t covered = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_LT(lo, hi);
    EXPECT_EQ(lo % kGrain, 0u) << "chunk start off-grain";
    if (hi != kN) {
      EXPECT_EQ(hi % kGrain, 0u) << "interior boundary off-grain";
    }
    covered += hi - lo;
  }
  EXPECT_EQ(covered, kN);
}

TEST(ParallelFor, EmptyRangeNeverInvokesBody) {
  int calls = 0;
  parallel_for(7, 7, kAboveThreshold, 1,
               [&calls](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, NestedCallsCompleteWithoutDeadlock) {
  KernelThreadsGuard guard(4);
  constexpr std::size_t kOuter = 8, kInner = 64;
  std::atomic<std::size_t> total{0};
  parallel_for(0, kOuter, kAboveThreshold, 1,
               [&total](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) {
                   // Over-threshold inner loop: serial inside pool
                   // workers, but either way it must finish and cover.
                   parallel_for(0, kInner, kAboveThreshold, 1,
                                [&total](std::size_t ilo, std::size_t ihi) {
                                  total += ihi - ilo;
                                });
                 }
               });
  EXPECT_EQ(total.load(), kOuter * kInner);
}

TEST(ParallelFor, NestedCallsFromAnyChunkRunInline) {
  // Every chunk of a dispatched parallel_for, the caller's own included,
  // runs its nested over-threshold calls inline: one dispatch in total.
  // Re-dispatching from the caller's chunk would queue the nested work
  // behind the sibling chunks that occupy the pool.
  KernelThreadsGuard guard(4);
  obs::MetricsRegistry registry;
  obs::set_registry(&registry);
  std::atomic<std::size_t> total{0};
  parallel_for(0, 4, kAboveThreshold, 1,
               [&total](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) {
                   parallel_for(0, 64, kAboveThreshold, 1,
                                [&total](std::size_t ilo, std::size_t ihi) {
                                  total += ihi - ilo;
                                });
                 }
               });
  obs::set_registry(nullptr);
  EXPECT_EQ(total.load(), 4u * 64u);
  EXPECT_EQ(registry.counter("kernel.dispatches").value(), 1u);
}

TEST(ParallelFor, PropagatesBodyExceptions) {
  KernelThreadsGuard guard(3);
  EXPECT_THROW(
      parallel_for(0, 300, kAboveThreshold, 1,
                   [](std::size_t lo, std::size_t) {
                     if (lo == 0) throw std::runtime_error("kernel boom");
                   }),
      std::runtime_error);
  // The pool must stay usable after an exception unwound through it.
  std::vector<int> visits(100, 0);
  parallel_for(0, 100, kAboveThreshold, 1,
               [&visits](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) ++visits[i];
               });
  for (int v : visits) ASSERT_EQ(v, 1);
}

TEST(ParallelFor, SetKernelThreadsReconfigures) {
  set_kernel_threads(2);
  EXPECT_EQ(kernel_threads(), 2u);
  set_kernel_threads(5);
  EXPECT_EQ(kernel_threads(), 5u);
  set_kernel_threads(0);
  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  EXPECT_EQ(kernel_threads(), hw);
}

TEST(PoolShard, AdoptsKernelThreadsWhenUnsized) {
  KernelThreadsGuard guard(3);
  PoolShard shard("adopt");
  EXPECT_EQ(shard.participants(), 3u);
  ASSERT_NE(shard.pool(), nullptr);  // 3 participants -> 2 workers
  EXPECT_EQ(shard.name(), "adopt");
}

TEST(PoolShard, SingleParticipantRunsInline) {
  PoolShard shard("solo", 1);
  EXPECT_EQ(shard.participants(), 1u);
  EXPECT_EQ(shard.pool(), nullptr);
  // Dispatching on the shard must still cover the range, serially.
  std::vector<int> visits(64, 0);
  parallel_for(0, 64, kAboveThreshold, 1,
               [&visits](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) ++visits[i];
               },
               &shard);
  for (int v : visits) ASSERT_EQ(v, 1);
}

TEST(PoolShard, MetricNamesCarryShardPrefix) {
  const PoolShard shard("w3", 2);
  const PoolShard::MetricNames& names = shard.metric_names();
  EXPECT_EQ(names.dispatches, "kernel.shard.w3.dispatches");
  EXPECT_EQ(names.chunks, "kernel.shard.w3.chunks");
  EXPECT_EQ(names.queue_depth, "kernel.shard.w3.queue_depth");
  EXPECT_EQ(names.chunk_seconds, "kernel.shard.w3.chunk_seconds");
  EXPECT_EQ(names.worker_busy_seconds,
            "kernel.shard.w3.worker_busy_seconds");
}

TEST(PoolShard, ExplicitShardCoversRangeExactlyOnce) {
  KernelThreadsGuard guard(1);  // prove the shard, not the global pool
  PoolShard shard("explicit", 4);
  constexpr std::size_t kN = 997;
  std::vector<int> visits(kN, 0);
  parallel_for(0, kN, kAboveThreshold, 1,
               [&visits](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) ++visits[i];
               },
               &shard);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i], 1) << "index " << i;
  }
}

TEST(PoolShard, ScopedBindingRoutesImplicitDispatches) {
  KernelThreadsGuard guard(1);
  PoolShard shard("bound", 3);
  EXPECT_EQ(current_pool_shard(), nullptr);
  {
    const ScopedPoolShard scope(shard);
    EXPECT_EQ(current_pool_shard(), &shard);
    // No explicit shard argument: the thread binding must route here.
    std::vector<int> visits(512, 0);
    parallel_for(0, 512, kAboveThreshold, 1,
                 [&visits](std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i) ++visits[i];
                 });
    for (int v : visits) ASSERT_EQ(v, 1);
  }
  EXPECT_EQ(current_pool_shard(), nullptr);
}

TEST(PoolShard, ScopedBindingNestsAndRestores) {
  PoolShard outer("outer", 2);
  PoolShard inner("inner", 2);
  const ScopedPoolShard outer_scope(outer);
  EXPECT_EQ(current_pool_shard(), &outer);
  {
    const ScopedPoolShard inner_scope(inner);
    EXPECT_EQ(current_pool_shard(), &inner);
  }
  EXPECT_EQ(current_pool_shard(), &outer);
}

TEST(PoolShard, ShardedDispatchStaysBitwiseDeterministic) {
  // The chunk partition depends only on (range, participants, grain), so
  // a sharded sum with a fixed per-chunk accumulation order must equal
  // the serial one bitwise — shards change where chunks run, not what
  // they compute.
  constexpr std::size_t kN = 4096;
  std::vector<double> x(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    x[i] = 1.0 / static_cast<double>(i + 1);
  }
  const auto chunk_sums = [&x](PoolShard* shard) {
    std::vector<double> sums(kN, 0.0);  // slot per chunk start
    parallel_for(0, kN, kAboveThreshold, 1,
                 [&x, &sums](std::size_t lo, std::size_t hi) {
                   double acc = 0.0;
                   for (std::size_t i = lo; i < hi; ++i) acc += x[i];
                   sums[lo] = acc;
                 },
                 shard);
    return sums;
  };
  PoolShard a("det-a", 4);
  PoolShard b("det-b", 4);
  const std::vector<double> via_a = chunk_sums(&a);
  const std::vector<double> via_b = chunk_sums(&b);
  ASSERT_EQ(via_a, via_b);
}

}  // namespace
}  // namespace geonas::hpc
