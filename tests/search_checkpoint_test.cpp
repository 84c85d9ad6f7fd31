// Campaign checkpointing (kill-and-resume bitwise identity for AE, RS,
// PPO) and the evaluation retry/timeout policy.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>

#include "core/eval_policy.hpp"
#include "core/nas_driver.hpp"
#include "io/binary.hpp"
#include "core/surrogate.hpp"
#include "search/aging_evolution.hpp"
#include "search/ppo.hpp"
#include "search/random_search.hpp"

namespace geonas::core {
namespace {

using search::AgingEvolution;
using search::PPOSearch;
using search::RandomSearch;
using search::SearchMethod;
using searchspace::StackedLSTMSpace;

using MethodFactory = std::function<std::unique_ptr<SearchMethod>()>;

/// Runs a campaign to completion, then replays it as "killed at eval 37,
/// resumed from the checkpoint" and demands a bitwise-identical outcome.
void expect_kill_and_resume_matches(const StackedLSTMSpace& space,
                                    const MethodFactory& make,
                                    const std::string& tag) {
  const std::string path = "/tmp/geonas_ckpt_" + tag + ".bin";
  SurrogateEvaluator oracle(space);
  constexpr std::size_t kTotal = 60;
  constexpr std::size_t kKillAt = 37;  // not a checkpoint-interval multiple
  const std::uint64_t seed = 99;

  const auto full_method = make();
  const LocalSearchResult full =
      run_local_search(*full_method, oracle, kTotal, seed);

  // "Crash" after kKillAt evaluations; the final checkpoint write at the
  // end of the short run stands in for the last periodic one.
  const auto first = make();
  SearchRunOptions save_opts;
  save_opts.checkpoint_path = path;
  save_opts.checkpoint_every = 10;
  (void)run_local_search(*first, oracle, kKillAt, seed, save_opts);

  const auto second = make();
  SearchRunOptions resume_opts;
  resume_opts.checkpoint_path = path;
  resume_opts.resume = true;
  const LocalSearchResult resumed =
      run_local_search(*second, oracle, kTotal, seed, resume_opts);

  ASSERT_EQ(resumed.history.size(), full.history.size()) << tag;
  EXPECT_EQ(resumed.best.key(), full.best.key()) << tag;
  EXPECT_DOUBLE_EQ(resumed.best_reward, full.best_reward) << tag;
  for (std::size_t i = 0; i < full.history.size(); ++i) {
    ASSERT_EQ(resumed.history[i].arch.key(), full.history[i].arch.key())
        << tag << " diverged at evaluation " << i;
    ASSERT_DOUBLE_EQ(resumed.history[i].reward, full.history[i].reward)
        << tag << " reward diverged at evaluation " << i;
    ASSERT_EQ(resumed.history[i].params, full.history[i].params) << tag;
  }
  std::remove(path.c_str());
}

TEST(SearchCheckpoint, KillAndResumeIsBitwiseForAE) {
  const StackedLSTMSpace space;
  expect_kill_and_resume_matches(space, [&] {
    return std::make_unique<AgingEvolution>(
        space, search::AgingEvolutionConfig{.population_size = 20,
                                            .sample_size = 5, .seed = 42});
  }, "ae");
}

TEST(SearchCheckpoint, KillAndResumeIsBitwiseForRS) {
  const StackedLSTMSpace space;
  expect_kill_and_resume_matches(space, [&] {
    return std::make_unique<RandomSearch>(space, 42);
  }, "rs");
}

TEST(SearchCheckpoint, KillAndResumeIsBitwiseForPPO) {
  // kKillAt = 37 with batch 16 leaves 5 samples mid-batch at the kill —
  // the pending batch must survive the round trip too.
  const StackedLSTMSpace space;
  expect_kill_and_resume_matches(space, [&] {
    return std::make_unique<PPOSearch>(space, search::PPOConfig{.seed = 42},
                                       16);
  }, "ppo");
}

TEST(SearchCheckpoint, RejectsMethodMismatch) {
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  const std::string path = "/tmp/geonas_ckpt_mismatch.bin";
  AgingEvolution ae(space, {.population_size = 10, .sample_size = 3,
                            .seed = 1});
  SearchRunOptions opts;
  opts.checkpoint_path = path;
  (void)run_local_search(ae, oracle, 5, 7, opts);

  RandomSearch rs(space, 1);
  LocalSearchResult state;
  EXPECT_THROW((void)load_search_checkpoint(rs, state, 7, path),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(SearchCheckpoint, RejectsSeedMismatchAndCorruption) {
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  const std::string path = "/tmp/geonas_ckpt_seed.bin";
  RandomSearch rs(space, 5);
  SearchRunOptions opts;
  opts.checkpoint_path = path;
  (void)run_local_search(rs, oracle, 5, 7, opts);

  RandomSearch other(space, 5);
  LocalSearchResult state;
  // Resuming under a different campaign seed would fork the trajectory.
  EXPECT_THROW((void)load_search_checkpoint(other, state, 8, path),
               std::runtime_error);

  // Flip one byte mid-file: the CRC trailer must catch it.
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x4);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  RandomSearch third(space, 5);
  EXPECT_THROW((void)load_search_checkpoint(third, state, 7, path),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(SearchCheckpoint, NonCheckpointableMethodIsRefused) {
  const StackedLSTMSpace space;
  class Plain final : public SearchMethod {
   public:
    explicit Plain(const StackedLSTMSpace& space) : space_(&space), rng_(1) {}
    [[nodiscard]] searchspace::Architecture ask() override {
      return space_->random_architecture(rng_);
    }
    void tell(const searchspace::Architecture&, double) override {}
    [[nodiscard]] std::string name() const override { return "plain"; }

   private:
    const StackedLSTMSpace* space_;
    Rng rng_;
  };
  Plain plain(space);
  EXPECT_FALSE(plain.checkpointable());
  LocalSearchResult state;
  EXPECT_THROW(
      save_search_checkpoint(plain, state, 1, "/tmp/geonas_ckpt_plain.bin"),
      std::invalid_argument);
}

TEST(SearchCheckpoint, HugeCountsFailOnTheStreamNotTheAllocator) {
  // A valid header followed by a count of 2^32 and no records: the
  // loader must report the truncated field, never reserve from the count.
  const StackedLSTMSpace space;
  const std::uint64_t seed = 3;
  const auto expect_truncated = [&](const std::string& path,
                                    const std::function<void(
                                        io::BinaryWriter&)>& body,
                                    std::size_t bytes,
                                    const std::string& diagnostic) {
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      io::BinaryWriter writer(os, "GEONASC1", 2);
      writer.str("AE");
      writer.u64(seed);
      body(writer);
      ASSERT_EQ(writer.offset(), bytes);
    }
    AgingEvolution ae(space, {.population_size = 10, .sample_size = 3});
    LocalSearchResult state;
    try {
      (void)load_search_checkpoint(ae, state, seed, path);
      ADD_FAILURE() << path << " loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(diagnostic), std::string::npos)
          << e.what();
    }
    std::remove(path.c_str());
  };
  constexpr std::uint64_t kHuge = 1ULL << 32;
  expect_truncated("/tmp/geonas_ckpt_huge_history.bin",
                   [&](io::BinaryWriter& w) { w.u64(kHuge); }, 38,
                   "'architecture gene count' at byte offset 38");
  expect_truncated("/tmp/geonas_ckpt_huge_cache.bin",
                   [&](io::BinaryWriter& w) {
                     w.u64(0);    // completed evaluations
                     w.u64(0);    // best architecture: no genes
                     w.f64(0.0);  // best reward
                     // Retry, failure, cache hit and miss counters.
                     for (int i = 0; i < 4; ++i) w.u64(0);
                     w.u64(kHuge);  // cache entries
                   },
                   94, "'cache key' at byte offset 94");
}

/// Throws the first time it sees each architecture; any retry (of the
/// same architecture) succeeds. Deterministic under thread interleaving,
/// so an evaluation can never exhaust a >=2-attempt retry budget.
class FlakyEvaluator final : public hpc::ArchitectureEvaluator {
 public:
  explicit FlakyEvaluator(hpc::ArchitectureEvaluator& inner)
      : inner_(&inner) {}
  [[nodiscard]] hpc::EvalOutcome evaluate(
      const searchspace::Architecture& arch, std::uint64_t seed) override {
    {
      const std::lock_guard lock(mutex_);
      if (seen_.insert(arch.key()).second) {
        throw std::runtime_error("synthetic worker crash");
      }
    }
    return inner_->evaluate(arch, seed);
  }
  [[nodiscard]] bool thread_safe() const override {
    return inner_->thread_safe();
  }

 private:
  hpc::ArchitectureEvaluator* inner_;
  std::mutex mutex_;
  std::set<std::string> seen_;
};

TEST(EvalRetryPolicy, RetriesRecoverFlakyEvaluations) {
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  FlakyEvaluator flaky(oracle);

  RandomSearch rs(space, 3);
  SearchRunOptions opts;
  opts.retry.max_attempts = 2;
  const LocalSearchResult result =
      run_local_search(rs, flaky, 10, 3, opts);
  EXPECT_EQ(result.history.size(), 10u);
  // One retry per first-seen architecture (every architecture here, short
  // of a random-draw collision), none exhausted.
  EXPECT_GE(result.eval_retries, 1u);
  EXPECT_LE(result.eval_retries, 10u);
  EXPECT_EQ(result.eval_failures, 0u);
  for (const LocalEval& e : result.history) {
    EXPECT_TRUE(std::isfinite(e.reward));
  }
}

TEST(EvalRetryPolicy, WithoutPolicyThrowingEvaluationAborts) {
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  FlakyEvaluator flaky(oracle);
  RandomSearch rs(space, 3);
  EXPECT_THROW((void)run_local_search(rs, flaky, 10, 3), std::runtime_error);
}

TEST(EvalRetryPolicy, ExhaustedAttemptsYieldSentinelNotAbort) {
  class AlwaysDiverges final : public hpc::ArchitectureEvaluator {
   public:
    [[nodiscard]] hpc::EvalOutcome evaluate(const searchspace::Architecture&,
                                            std::uint64_t) override {
      return {std::numeric_limits<double>::quiet_NaN(), 60.0, 1000};
    }
  };
  const StackedLSTMSpace space;
  AlwaysDiverges bad;
  RandomSearch rs(space, 4);
  SearchRunOptions opts;
  opts.retry.max_attempts = 3;
  opts.retry.failure_reward = -2.0;
  const LocalSearchResult result = run_local_search(rs, bad, 5, 4, opts);
  ASSERT_EQ(result.history.size(), 5u);
  EXPECT_EQ(result.eval_failures, 5u);
  EXPECT_EQ(result.eval_retries, 10u);  // 2 retries per evaluation
  for (const LocalEval& e : result.history) {
    EXPECT_DOUBLE_EQ(e.reward, opts.retry.failure_reward);
  }
}

TEST(EvalRetryPolicy, TimeoutDiscardsStragglers) {
  class Slow final : public hpc::ArchitectureEvaluator {
   public:
    [[nodiscard]] hpc::EvalOutcome evaluate(const searchspace::Architecture&,
                                            std::uint64_t) override {
      return {0.5, 900.0, 1000};  // always over the timeout
    }
  };
  Slow slow;
  EvalRetryPolicy policy;
  policy.max_attempts = 2;
  policy.timeout_seconds = 100.0;
  RetryingEvaluator retrying(slow, policy);
  const StackedLSTMSpace space;
  Rng rng(5);
  const auto outcome =
      retrying.evaluate(space.random_architecture(rng), 123);
  EXPECT_TRUE(outcome.failed);
  EXPECT_DOUBLE_EQ(outcome.reward, policy.failure_reward);
  // Both timed-out attempts burned the timeout, plus one backoff.
  EXPECT_GT(outcome.duration_seconds, 2.0 * policy.timeout_seconds);
  EXPECT_EQ(retrying.failures(), 1u);
}

TEST(EvalRetryPolicy, DisabledPolicyIsBitwiseNeutral) {
  // Enabling retries must not change a failure-free campaign: attempt 0
  // keeps the caller's seed.
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  RandomSearch a(space, 6);
  const LocalSearchResult plain = run_local_search(a, oracle, 20, 6);
  RandomSearch b(space, 6);
  SearchRunOptions opts;
  opts.retry.max_attempts = 4;
  const LocalSearchResult wrapped = run_local_search(b, oracle, 20, 6, opts);
  ASSERT_EQ(plain.history.size(), wrapped.history.size());
  for (std::size_t i = 0; i < plain.history.size(); ++i) {
    ASSERT_DOUBLE_EQ(plain.history[i].reward, wrapped.history[i].reward);
    ASSERT_EQ(plain.history[i].arch.key(), wrapped.history[i].arch.key());
  }
  EXPECT_EQ(wrapped.eval_retries, 0u);
  EXPECT_EQ(wrapped.eval_failures, 0u);
}

// ---------------------------------------------------------------------
// Evaluation memoization (MemoizingEvaluator + SearchRunOptions::memoize).
// ---------------------------------------------------------------------

/// Counts inner evaluations; reward is a pure function of the
/// architecture key so cache hits are observable and checkable.
class CountingEvaluator final : public hpc::ArchitectureEvaluator {
 public:
  [[nodiscard]] hpc::EvalOutcome evaluate(
      const searchspace::Architecture& arch, std::uint64_t) override {
    const std::lock_guard lock(mutex_);
    ++calls_;
    const double reward =
        static_cast<double>(std::hash<std::string>{}(arch.key()) % 1000) /
        1000.0;
    return {reward, 1.0, arch.key().size()};
  }
  [[nodiscard]] bool thread_safe() const override { return true; }
  [[nodiscard]] std::size_t calls() const {
    const std::lock_guard lock(mutex_);
    return calls_;
  }

 private:
  mutable std::mutex mutex_;
  std::size_t calls_ = 0;
};

TEST(EvalMemoization, CacheHitSkipsInnerEvaluation) {
  const StackedLSTMSpace space;
  CountingEvaluator inner;
  MemoizingEvaluator memo(inner);
  Rng rng(11);
  const auto arch_a = space.random_architecture(rng);
  const auto arch_b = space.random_architecture(rng);
  ASSERT_NE(arch_a.key(), arch_b.key());

  const auto first = memo.evaluate(arch_a, 1);
  const auto second = memo.evaluate(arch_a, 999);  // different eval seed
  (void)memo.evaluate(arch_b, 2);  // distinct key: must reach the inner
  EXPECT_EQ(inner.calls(), 2u);
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.misses(), 2u);
  EXPECT_EQ(memo.size(), 2u);
  // The cached outcome is returned verbatim, independent of the seed.
  EXPECT_DOUBLE_EQ(second.reward, first.reward);
  EXPECT_EQ(second.params, first.params);
}

TEST(EvalMemoization, FailedOutcomesAreNeverCached) {
  class AlwaysFails final : public hpc::ArchitectureEvaluator {
   public:
    [[nodiscard]] hpc::EvalOutcome evaluate(const searchspace::Architecture&,
                                            std::uint64_t) override {
      hpc::EvalOutcome out;
      out.reward = -2.0;
      out.failed = true;
      return out;
    }
  };
  const StackedLSTMSpace space;
  AlwaysFails bad;
  MemoizingEvaluator memo(bad);
  Rng rng(12);
  const auto arch = space.random_architecture(rng);
  (void)memo.evaluate(arch, 1);
  (void)memo.evaluate(arch, 2);
  // A failure must not poison future attempts at the same architecture.
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(memo.misses(), 2u);
  EXPECT_EQ(memo.size(), 0u);
}

TEST(EvalMemoization, AgingEvolutionCampaignReportsHits) {
  // Mutation-based search revisits architectures, so a few hundred
  // evaluations must produce cache hits (the ISSUE acceptance check).
  const StackedLSTMSpace space;
  CountingEvaluator inner;
  AgingEvolution ae(space, {.population_size = 20, .sample_size = 5,
                            .seed = 8});
  SearchRunOptions opts;
  opts.memoize = true;
  const LocalSearchResult result = run_local_search(ae, inner, 300, 8, opts);
  ASSERT_EQ(result.history.size(), 300u);
  EXPECT_GT(result.cache_hits, 0u);
  EXPECT_EQ(result.cache_hits + result.cache_misses, 300u);
  // Every miss — and nothing else — reached the inner evaluator.
  EXPECT_EQ(inner.calls(), result.cache_misses);
}

TEST(EvalMemoization, DisabledMemoizationLeavesCountersZero) {
  const StackedLSTMSpace space;
  CountingEvaluator inner;
  RandomSearch rs(space, 9);
  const LocalSearchResult result = run_local_search(rs, inner, 15, 9);
  EXPECT_EQ(result.cache_hits, 0u);
  EXPECT_EQ(result.cache_misses, 0u);
  EXPECT_EQ(inner.calls(), 15u);
}

TEST(SearchCheckpoint, KillAndResumeIsBitwiseWithMemoization) {
  // The cache rides in the v2 checkpoint: a resumed campaign must replay
  // the uninterrupted one bitwise, including the hit/miss counters (a
  // resume that re-trained cached architectures would inflate misses).
  const StackedLSTMSpace space;
  const std::string path = "/tmp/geonas_ckpt_memo.bin";
  constexpr std::size_t kTotal = 120;
  constexpr std::size_t kKillAt = 77;
  const std::uint64_t seed = 15;
  const auto make = [&] {
    return std::make_unique<AgingEvolution>(
        space, search::AgingEvolutionConfig{.population_size = 20,
                                            .sample_size = 5, .seed = 15});
  };

  CountingEvaluator full_inner;
  SearchRunOptions memo_opts;
  memo_opts.memoize = true;
  const auto full_method = make();
  const LocalSearchResult full =
      run_local_search(*full_method, full_inner, kTotal, seed, memo_opts);
  ASSERT_GT(full.cache_hits, 0u);

  CountingEvaluator resumed_inner;
  const auto first = make();
  SearchRunOptions save_opts = memo_opts;
  save_opts.checkpoint_path = path;
  save_opts.checkpoint_every = 25;
  (void)run_local_search(*first, resumed_inner, kKillAt, seed, save_opts);

  const auto second = make();
  SearchRunOptions resume_opts = save_opts;
  resume_opts.resume = true;
  const LocalSearchResult resumed =
      run_local_search(*second, resumed_inner, kTotal, seed, resume_opts);

  ASSERT_EQ(resumed.history.size(), full.history.size());
  for (std::size_t i = 0; i < full.history.size(); ++i) {
    ASSERT_EQ(resumed.history[i].arch.key(), full.history[i].arch.key())
        << "diverged at evaluation " << i;
    ASSERT_DOUBLE_EQ(resumed.history[i].reward, full.history[i].reward);
  }
  EXPECT_EQ(resumed.cache_hits, full.cache_hits);
  EXPECT_EQ(resumed.cache_misses, full.cache_misses);
  // Architectures cached before the kill were not re-trained after it.
  EXPECT_EQ(resumed_inner.calls(), full_inner.calls());
  std::remove(path.c_str());
}

TEST(SearchCheckpoint, LoadsVersion1CheckpointsWithoutCache) {
  // Campaigns checkpointed by the previous release (format v1, no
  // memoization block) must still resume; cache counters stay zero.
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  const std::string path = "/tmp/geonas_ckpt_v1.bin";
  const std::uint64_t seed = 31;

  RandomSearch source(space, seed);
  const LocalSearchResult state =
      run_local_search(source, oracle, 12, seed);
  {
    // Hand-written v1 layout: everything up to the failure counter, then
    // straight to the method state (mirrors the pre-v2 writer).
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(os.good());
    io::BinaryWriter writer(os, "GEONASC1", 1);
    writer.str(source.name());
    writer.u64(seed);
    writer.u64(state.history.size());
    for (const LocalEval& eval : state.history) {
      search::write_architecture(writer, eval.arch);
      writer.f64(eval.reward);
      writer.u64(eval.params);
    }
    search::write_architecture(writer, state.best);
    writer.f64(state.best_reward);
    writer.u64(state.eval_retries);
    writer.u64(state.eval_failures);
    source.save(writer);
    writer.finish();
  }

  RandomSearch fresh(space, seed);
  LocalSearchResult loaded;
  ASSERT_EQ(load_search_checkpoint(fresh, loaded, seed, path), 12u);
  EXPECT_EQ(loaded.best.key(), state.best.key());
  EXPECT_EQ(loaded.cache_hits, 0u);
  EXPECT_EQ(loaded.cache_misses, 0u);
  std::remove(path.c_str());
}

TEST(EvalRetryPolicy, ParallelDriverSurvivesFlakyEvaluator) {
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  FlakyEvaluator flaky(oracle);
  RandomSearch rs(space, 7);
  SearchRunOptions opts;
  opts.retry.max_attempts = 3;
  const LocalSearchResult result =
      run_local_search_parallel(rs, flaky, 24, 4, 7, opts);
  EXPECT_EQ(result.history.size(), 24u);
  EXPECT_EQ(result.eval_failures, 0u);
  EXPECT_GT(result.eval_retries, 0u);
}

}  // namespace
}  // namespace geonas::core
