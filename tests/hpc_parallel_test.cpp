// Real parallel primitives: pool shards, the MPI-style channel, and the
// kernel-layer parallel_for that dispatches on a shard's team or the
// global one.
#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <functional>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hpc/parallel_for.hpp"
#include "hpc/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace geonas::hpc {
namespace {

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

/// Runs `body` on a fresh shard's thread and joins it, rethrowing what
/// the body threw.
void run_on_shard(const char* name, std::size_t participants,
                  std::function<void()> body) {
  PoolShard shard(name, participants, std::move(body));
  if (std::exception_ptr error = shard.join()) std::rethrow_exception(error);
}

TEST(PoolShard, RejectsZeroParticipants) {
  bool ran = false;
  EXPECT_THROW(PoolShard("none", 0, [&ran] { ran = true; }),
               std::invalid_argument);
  EXPECT_FALSE(ran);
}

TEST(PoolShard, JoinHandsBackTheBodyException) {
  PoolShard shard("boom", 1, [] { throw std::runtime_error("boom"); });
  const std::exception_ptr error = shard.join();
  ASSERT_NE(error, nullptr);
  EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
  EXPECT_EQ(shard.join(), nullptr);  // handed back once
  PoolShard clean("clean", 2, [] {});
  EXPECT_EQ(clean.join(), nullptr);
}

TEST(PoolShard, SingleParticipantRunsInline) {
  std::vector<int> visits(64, 0);
  std::set<std::thread::id> threads;
  PoolShard shard("solo", 1, [&visits, &threads] {
    // Dispatching on the shard must still cover the range, serially.
    parallel_for(0, 64, kAboveThreshold, 1,
                 [&visits, &threads](std::size_t lo, std::size_t hi) {
                   threads.insert(std::this_thread::get_id());
                   for (std::size_t i = lo; i < hi; ++i) ++visits[i];
                 });
  });
  EXPECT_EQ(shard.participants(), 1u);
  EXPECT_EQ(shard.pool(), nullptr);
  ASSERT_EQ(shard.join(), nullptr);
  EXPECT_EQ(threads.size(), 1u);
  for (int v : visits) ASSERT_EQ(v, 1);
}

TEST(PoolShard, MetricNamesCarryShardPrefix) {
  const PoolShard shard("w3", 2, [] {});
  const PoolShard::MetricNames& names = shard.metric_names();
  EXPECT_EQ(names.dispatches, "kernel.shard.w3.dispatches");
  EXPECT_EQ(names.chunks, "kernel.shard.w3.chunks");
  EXPECT_EQ(names.queue_depth, "kernel.shard.w3.queue_depth");
  EXPECT_EQ(names.chunk_seconds, "kernel.shard.w3.chunk_seconds");
  EXPECT_EQ(names.worker_busy_seconds,
            "kernel.shard.w3.worker_busy_seconds");
}

TEST(PoolShard, InstrumentsExistOnceConstructed) {
  // The body dispatches nothing, so only the constructor can have
  // registered the shard's instruments.
  obs::MetricsRegistry registry;
  obs::set_registry(&registry);
  PoolShard shard("fresh", 2, [] {});
  (void)shard.join();
  obs::set_registry(nullptr);
  std::set<std::string> names;
  for (const auto& [name, c] : registry.counters()) names.insert(name);
  for (const auto& [name, h] : registry.histograms()) names.insert(name);
  for (const auto& [name, g] : registry.gauges()) names.insert(name);
  const PoolShard::MetricNames& want = shard.metric_names();
  for (const std::string& name :
       {want.dispatches, want.chunks, want.queue_depth, want.chunk_seconds,
        want.worker_busy_seconds}) {
    EXPECT_EQ(names.count(name), 1u) << name;
  }
}

TEST(PoolShard, ExplicitShardCoversRangeExactlyOnce) {
  KernelThreadsGuard guard(1);  // prove the shard, not the global pool
  constexpr std::size_t kN = 997;
  std::vector<int> visits(kN, 0);
  run_on_shard("explicit", 4, [&visits] {
    parallel_for(0, kN, kAboveThreshold, 1,
                 [&visits](std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i) ++visits[i];
                 });
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i], 1) << "index " << i;
  }
}

TEST(PoolShard, BodyDispatchesOnItsOwnTeam) {
  KernelThreadsGuard guard(1);  // the global pool would run inline
  constexpr std::size_t kParticipants = 3;
  std::vector<int> visits(512, 0);
  std::mutex mu;
  std::set<std::thread::id> threads;
  const PoolShard* inside = nullptr;
  PoolShard shard("bound", kParticipants, [&] {
    inside = current_pool_shard();
    parallel_for(0, 512, kAboveThreshold, 1,
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i) ++visits[i];
                   const std::lock_guard<std::mutex> lock(mu);
                   threads.insert(std::this_thread::get_id());
                 });
  });
  EXPECT_EQ(current_pool_shard(), nullptr);
  ASSERT_EQ(shard.join(), nullptr);
  EXPECT_EQ(inside, &shard);
  EXPECT_EQ(threads.size(), kParticipants);
  for (int v : visits) ASSERT_EQ(v, 1);
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
  const auto chunk_sums = [&x](const char* shard) {
    std::vector<double> sums(kN, 0.0);  // slot per chunk start
    run_on_shard(shard, 4, [&x, &sums] {
      parallel_for(0, kN, kAboveThreshold, 1,
                   [&x, &sums](std::size_t lo, std::size_t hi) {
                     double acc = 0.0;
                     for (std::size_t i = lo; i < hi; ++i) acc += x[i];
                     sums[lo] = acc;
                   });
    });
    return sums;
  };
  const std::vector<double> via_a = chunk_sums("det-a");
  const std::vector<double> via_b = chunk_sums("det-b");
  ASSERT_EQ(via_a, via_b);
}

}  // namespace
}  // namespace geonas::hpc
