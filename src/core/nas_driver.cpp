#include "core/nas_driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/thread_annotations.hpp"
#include "hpc/parallel_for.hpp"
#include "hpc/thread_pool.hpp"
#include "io/atomic_file.hpp"
#include "obs/metrics.hpp"
#include "tensor/random.hpp"

namespace geonas::core {

namespace {

constexpr const char* kCheckpointMagic = "GEONASC1";
// v1: method/seed/history/best/retry counters/method state.
// v2: + cache hit/miss counters and the memoization cache entries
//     (between the failure counter and the method state).
constexpr std::uint32_t kCheckpointVersion = 2;
constexpr std::uint32_t kCheckpointMinVersion = 1;

/// True when `reward` becomes the campaign's best: the first reward
/// always does; after it, a finite reward beats a non-finite best and a
/// non-finite reward never beats a finite one (a diverged training's NaN
/// would otherwise pin the best forever, since x > NaN is false).
bool improves_best(double reward, const LocalSearchResult& result) {
  if (result.history.empty()) return true;
  const bool finite = std::isfinite(reward);
  if (finite != std::isfinite(result.best_reward)) return finite;
  return reward > result.best_reward;
}

void record_outcome(LocalSearchResult& result, searchspace::Architecture arch,
                    const hpc::EvalOutcome& outcome) {
  const bool improved = improves_best(outcome.reward, result);
  if (improved) {
    result.best_reward = outcome.reward;
    result.best = arch;
  }
  result.history.push_back({std::move(arch), outcome.reward, outcome.params});
  // Telemetry mirrors the campaign state; it never feeds back into it.
  if (obs::MetricsRegistry* reg = obs::registry()) {
    reg->counter("search.evals_completed").add(1);
    if (outcome.failed) reg->counter("search.evals_failed").add(1);
    reg->histogram("search.reward").observe(outcome.reward);
    if (improved) {
      reg->series("search.best_reward")
          .append(reg->seconds_since_start(), result.best_reward);
    }
  }
}

}  // namespace

void save_search_checkpoint(const search::SearchMethod& method,
                            const LocalSearchResult& state,
                            std::uint64_t seed, const std::string& path,
                            const MemoizingEvaluator* memo) {
  if (!method.checkpointable()) {
    throw std::invalid_argument("save_search_checkpoint: method '" +
                                method.name() + "' is not checkpointable");
  }
  // Write-then-rename (io::atomic_write_file) so a crash mid-write never
  // clobbers the previous good checkpoint; failures name the path and
  // operation (a missing checkpoint directory used to be a bare errno).
  io::atomic_write_file(path, [&](std::ostream& os) {
    io::BinaryWriter writer(os, kCheckpointMagic, kCheckpointVersion);
    writer.str(method.name());
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
    writer.u64(state.cache_hits);
    writer.u64(state.cache_misses);
    // Entries are streamed under the memoizer's lock instead of cloned:
    // a checkpoint of a long campaign must not duplicate the cache.
    if (memo != nullptr) {
      memo->visit_entries(
          [&writer](std::size_t count) { writer.u64(count); },
          [&writer](const std::string& key, const hpc::EvalOutcome& outcome) {
            writer.str(key);
            writer.f64(outcome.reward);
            writer.f64(outcome.duration_seconds);
            writer.u64(outcome.params);
            writer.u8(outcome.failed ? 1 : 0);
          });
    } else {
      writer.u64(0);
    }
    method.save(writer);
    writer.finish();
  }, "save_search_checkpoint");
}

std::size_t load_search_checkpoint(search::SearchMethod& method,
                                   LocalSearchResult& state,
                                   std::uint64_t expected_seed,
                                   const std::string& path,
                                   MemoizingEvaluator* memo) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("load_search_checkpoint: cannot open " + path);
  }
  io::BinaryReader reader(is, kCheckpointMagic, kCheckpointMinVersion,
                          kCheckpointVersion);
  const std::string name = reader.str("method name", 64);
  if (name != method.name()) {
    throw std::runtime_error("load_search_checkpoint: checkpoint is for '" +
                             name + "', resuming method is '" +
                             method.name() + "'");
  }
  const std::uint64_t seed = reader.u64("campaign seed");
  if (seed != expected_seed) {
    throw std::runtime_error(
        "load_search_checkpoint: campaign seed mismatch (checkpoint " +
        std::to_string(seed) + ", requested " +
        std::to_string(expected_seed) +
        ") — resuming under a different seed would fork the trajectory");
  }
  const std::uint64_t completed = reader.u64("completed evaluations");
  if (completed > (1ULL << 32)) {
    throw std::runtime_error(
        "load_search_checkpoint: implausible completed-evaluation count");
  }
  // No reserve() from file counts: a hostile count must fail on the
  // stream, not in the allocator.
  LocalSearchResult loaded;
  for (std::uint64_t i = 0; i < completed; ++i) {
    LocalEval eval;
    eval.arch = search::read_architecture(reader);
    eval.reward = reader.f64("history reward");
    eval.params = reader.u64("history params");
    loaded.history.push_back(std::move(eval));
  }
  loaded.best = search::read_architecture(reader);
  loaded.best_reward = reader.f64("best reward");
  loaded.eval_retries = reader.u64("retry count");
  loaded.eval_failures = reader.u64("failure count");
  std::vector<MemoizingEvaluator::Entry> entries;
  if (reader.version() >= 2) {
    loaded.cache_hits = reader.u64("cache hit count");
    loaded.cache_misses = reader.u64("cache miss count");
    const std::uint64_t cached = reader.u64("cache entry count");
    if (cached > (1ULL << 32)) {
      throw std::runtime_error(
          "load_search_checkpoint: implausible cache entry count");
    }
    for (std::uint64_t i = 0; i < cached; ++i) {
      MemoizingEvaluator::Entry entry;
      entry.key = reader.str("cache key", 4096);
      entry.outcome.reward = reader.f64("cached reward");
      entry.outcome.duration_seconds = reader.f64("cached duration");
      entry.outcome.params = reader.u64("cached params");
      entry.outcome.failed = reader.u8("cached failed flag") != 0;
      entries.push_back(std::move(entry));
    }
  }
  method.load(reader);
  reader.finish();  // CRC over everything consumed
  if (memo != nullptr) {
    memo->restore(entries, loaded.cache_hits, loaded.cache_misses);
  }
  state = std::move(loaded);
  return state.history.size();
}

namespace {

/// One campaign's state and the worker loop both drivers run: the
/// serial driver once on the calling thread, the parallel one on every
/// worker's shard. ask/tell are serialized; evaluations overlap.
///
/// Evaluator stack: the inner evaluator, optionally wrapped by the retry
/// policy, optionally wrapped by the memoization cache (in that order —
/// a cache hit skips the retry machinery). With both features off the
/// raw evaluator is used and behaviour is unchanged.
///
/// Lock hierarchy (DESIGN.md): method_mutex_ acquires before
/// result_mutex_, never the reverse, so tell and the checkpoint writer
/// can never deadlock.
class Campaign {
 public:
  Campaign(search::SearchMethod& method, hpc::ArchitectureEvaluator& inner,
           std::size_t evaluations, std::uint64_t seed,
           const SearchRunOptions& options)
      : method_(&method),
        retrying_(inner, options.retry),
        retried_(options.retry.enabled()
                     ? static_cast<hpc::ArchitectureEvaluator&>(retrying_)
                     : inner),
        memo_(retried_),
        evaluator_(options.memoize ? memo_ : retried_),
        options_(options),
        evaluations_(evaluations),
        seed_(seed) {
    result_.best_reward = -1e300;
    if (options.resume) {
      issued_ = load_search_checkpoint(method, result_, seed,
                                       options.checkpoint_path, memo());
    }
  }

  /// Asks, evaluates, tells and records until every evaluation has been
  /// issued, checkpointing at the configured cadence.
  void worker_loop() GEONAS_EXCLUDES(method_mutex_, result_mutex_) {
    obs::MetricsRegistry* reg = obs::registry();
    const obs::ScopedTimer worker_span(reg, "search.worker");
    obs::StopWatch busy_watch;
    double busy_seconds = 0.0;
    const obs::StopWatch worker_watch;
    for (;;) {
      searchspace::Architecture arch;
      std::uint64_t eval_seed = 0;
      {
        core::MutexLock lock(method_mutex_);
        if (issued_ >= evaluations_) break;
        eval_seed = hash_combine(seed_, issued_++);
        arch = method_->ask();
      }
      if (reg != nullptr) reg->counter("search.evals_started").add(1);
      busy_watch.reset();
      const hpc::EvalOutcome outcome = evaluator_.evaluate(arch, eval_seed);
      busy_seconds += busy_watch.seconds();
      core::MutexLock method_lock(method_mutex_);
      core::MutexLock result_lock(result_mutex_);
      method_->tell(arch, outcome.reward);
      record_outcome(result_, std::move(arch), outcome);
      harvest();
      if (options_.checkpoint_every > 0 &&
          result_.history.size() % options_.checkpoint_every == 0) {
        checkpoint();
      }
    }
    if (reg != nullptr) {
      const double wall = worker_watch.seconds();
      reg->histogram("driver.worker_busy_fraction")
          .observe(wall > 0.0 ? busy_seconds / wall : 0.0);
    }
  }

  /// Harvests the evaluator counters and writes the final checkpoint;
  /// call once every worker has returned.
  LocalSearchResult finish() GEONAS_EXCLUDES(method_mutex_, result_mutex_) {
    core::MutexLock method_lock(method_mutex_);
    core::MutexLock result_lock(result_mutex_);
    harvest();
    checkpoint();
    return std::move(result_);
  }

 private:
  /// The cache a checkpoint carries (null when memoization is off).
  MemoizingEvaluator* memo() { return options_.memoize ? &memo_ : nullptr; }

  void harvest() GEONAS_REQUIRES(result_mutex_) {
    if (options_.retry.enabled()) {
      result_.eval_retries = retrying_.retries();
      result_.eval_failures = retrying_.failures();
    }
    if (options_.memoize) {
      result_.cache_hits = memo_.hits();
      result_.cache_misses = memo_.misses();
    }
  }

  void checkpoint() GEONAS_REQUIRES(method_mutex_, result_mutex_) {
    if (options_.checkpoint_path.empty()) return;
    save_search_checkpoint(*method_, result_, seed_, options_.checkpoint_path,
                           memo());
  }

  core::Mutex method_mutex_;  // the "coordinator"
  core::Mutex result_mutex_;
  search::SearchMethod* const method_ GEONAS_PT_GUARDED_BY(method_mutex_);
  std::size_t issued_ GEONAS_GUARDED_BY(method_mutex_) = 0;
  LocalSearchResult result_ GEONAS_GUARDED_BY(result_mutex_);
  RetryingEvaluator retrying_;
  hpc::ArchitectureEvaluator& retried_;  // retrying_ or the inner evaluator
  MemoizingEvaluator memo_;
  hpc::ArchitectureEvaluator& evaluator_;  // the top of the stack
  const SearchRunOptions& options_;
  const std::size_t evaluations_;
  const std::uint64_t seed_;
};

/// Runs a campaign on `shards` worker shards, or on the calling thread
/// when `shards` is 0.
LocalSearchResult run_campaign(search::SearchMethod& method,
                               hpc::ArchitectureEvaluator& evaluator,
                               std::size_t evaluations, std::uint64_t seed,
                               const SearchRunOptions& options,
                               std::size_t shards) {
  Campaign campaign(method, evaluator, evaluations, seed, options);
  obs::MetricsRegistry* reg = obs::registry();
  const obs::ScopedTimer campaign_span(reg, "search.campaign");
  if (reg != nullptr) {
    reg->gauge("driver.workers")
        .set(static_cast<double>(std::max<std::size_t>(shards, 1)));
  }
  if (shards == 0) {
    campaign.worker_loop();
    return campaign.finish();
  }
  // Each worker's shard gets its share of the kernel budget. With as
  // many workers as kernel threads every shard has one participant and
  // every campaign kernel runs inline on its worker.
  const std::size_t participants =
      std::max<std::size_t>(1, hpc::kernel_threads() / shards);
  std::vector<std::unique_ptr<hpc::PoolShard>> workers;
  workers.reserve(shards);
  for (std::size_t w = 0; w < shards; ++w) {
    std::string name = "w";
    name += std::to_string(w);
    workers.push_back(std::make_unique<hpc::PoolShard>(
        std::move(name), participants,
        [&campaign] { campaign.worker_loop(); }));
  }
  std::exception_ptr error;
  for (const auto& worker : workers) {
    std::exception_ptr e = worker->join();
    if (!error) error = std::move(e);
  }
  if (error) std::rethrow_exception(error);
  return campaign.finish();
}

}  // namespace

LocalSearchResult run_local_search(search::SearchMethod& method,
                                   hpc::ArchitectureEvaluator& evaluator,
                                   std::size_t evaluations,
                                   std::uint64_t seed,
                                   const SearchRunOptions& options) {
  return run_campaign(method, evaluator, evaluations, seed, options, 0);
}

LocalSearchResult run_local_search_parallel(
    search::SearchMethod& method, hpc::ArchitectureEvaluator& evaluator,
    std::size_t evaluations, std::size_t workers, std::uint64_t seed,
    const SearchRunOptions& options) {
  if (!evaluator.thread_safe()) {
    throw std::invalid_argument(
        "run_local_search_parallel: evaluator is not thread-safe");
  }
  if (workers == 0) {
    throw std::invalid_argument("run_local_search_parallel: zero workers");
  }
  return run_campaign(method, evaluator, evaluations, seed, options, workers);
}

}  // namespace geonas::core
