// Kernel team wake-up: idle workers spin for kTeamSpinSeconds, then park
// on their job flags. Registered with a ctest TIMEOUT (tests/
// CMakeLists.txt), so a lost wake-up fails the test instead of hanging
// the suite.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "hpc/kernel_team.hpp"
#include "hpc/parallel_for.hpp"
#include "hpc/thread_pool.hpp"

namespace geonas::hpc {
namespace {

/// Sleeps well past the spin window, so every worker of an idle team
/// has parked.
void sleep_past_spin() {
  std::this_thread::sleep_for(
      std::chrono::duration<double>(10.0 * kTeamSpinSeconds + 0.02));
}

/// Dispatches one over-threshold loop on the calling thread's pool;
/// returns the number of distinct threads that ran its chunks, after
/// checking it covered every index exactly once.
std::size_t dispatch_and_count_threads() {
  constexpr std::size_t kN = 4096;
  std::vector<int> visits(kN, 0);
  std::mutex mu;
  std::set<std::thread::id> threads;
  parallel_for(0, kN, 2.0 * kParallelMinFlops, 1,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) ++visits[i];
                 const std::lock_guard<std::mutex> lock(mu);
                 threads.insert(std::this_thread::get_id());
               });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i], 1) << "index " << i;
  }
  return threads.size();
}

TEST(ParallelFor, WakesAfterIdleBeyondSpin) {
  set_kernel_threads(4);
  // The global team from the test thread, the shard's from its body;
  // every chunk runs on its own thread: the parked workers woke up.
  for (int round = 0; round < 3; ++round) {
    sleep_past_spin();
    EXPECT_EQ(dispatch_and_count_threads(), 4u) << "round " << round;
  }
  PoolShard shard("idle", 3, [] {
    for (int round = 0; round < 3; ++round) {
      sleep_past_spin();
      EXPECT_EQ(dispatch_and_count_threads(), 3u) << "round " << round;
    }
  });
  EXPECT_EQ(shard.join(), nullptr);
  set_kernel_threads(0);
}

}  // namespace
}  // namespace geonas::hpc
