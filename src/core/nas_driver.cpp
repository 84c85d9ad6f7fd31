#include "core/nas_driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "core/thread_annotations.hpp"
#include "hpc/parallel_for.hpp"
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

/// Evaluator stack for one campaign: inner evaluator, optionally wrapped
/// by the retry policy, optionally wrapped by the memoization cache (in
/// that order — a cache hit skips the retry machinery). With both
/// features off the raw evaluator is used and behaviour is unchanged.
struct EvalStack {
  RetryingEvaluator retrying;
  MemoizingEvaluator memo;
  hpc::ArchitectureEvaluator* active;
  bool memoized;

  EvalStack(hpc::ArchitectureEvaluator& inner,
            const SearchRunOptions& options)
      : retrying(inner, options.retry),
        memo(options.retry.enabled()
                 ? static_cast<hpc::ArchitectureEvaluator&>(retrying)
                 : inner),
        active(options.retry.enabled()
                   ? static_cast<hpc::ArchitectureEvaluator*>(&retrying)
                   : &inner),
        memoized(options.memoize) {
    if (memoized) active = &memo;
  }
  void harvest(LocalSearchResult& result) const {
    if (retrying.policy().enabled()) {
      result.eval_retries = retrying.retries();
      result.eval_failures = retrying.failures();
    }
    if (memoized) {
      result.cache_hits = memo.hits();
      result.cache_misses = memo.misses();
    }
  }
  /// What the checkpoint writer should serialize (nullptr = no cache).
  [[nodiscard]] const MemoizingEvaluator* checkpoint_memo() const {
    return memoized ? &memo : nullptr;
  }
  [[nodiscard]] MemoizingEvaluator* resume_memo() {
    return memoized ? &memo : nullptr;
  }
};

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
  LocalSearchResult loaded;
  loaded.history.reserve(static_cast<std::size_t>(completed));
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
    entries.reserve(static_cast<std::size_t>(cached));
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

LocalSearchResult run_local_search(search::SearchMethod& method,
                                   hpc::ArchitectureEvaluator& evaluator,
                                   std::size_t evaluations,
                                   std::uint64_t seed,
                                   const SearchRunOptions& options) {
  EvalStack stack(evaluator, options);

  LocalSearchResult result;
  result.best_reward = -1e300;
  std::size_t start = 0;
  if (options.resume) {
    start = load_search_checkpoint(method, result, seed,
                                   options.checkpoint_path,
                                   stack.resume_memo());
  }

  obs::MetricsRegistry* reg = obs::registry();
  const obs::ScopedTimer campaign_span(reg, "search.campaign");
  if (reg != nullptr) reg->gauge("driver.workers").set(1.0);

  for (std::size_t i = start; i < evaluations; ++i) {
    searchspace::Architecture arch = method.ask();
    if (reg != nullptr) reg->counter("search.evals_started").add(1);
    const auto outcome = stack.active->evaluate(arch, hash_combine(seed, i));
    method.tell(arch, outcome.reward);
    record_outcome(result, std::move(arch), outcome);
    stack.harvest(result);
    if (!options.checkpoint_path.empty() && options.checkpoint_every > 0 &&
        result.history.size() % options.checkpoint_every == 0) {
      save_search_checkpoint(method, result, seed, options.checkpoint_path,
                             stack.checkpoint_memo());
    }
  }
  stack.harvest(result);
  if (!options.checkpoint_path.empty()) {
    save_search_checkpoint(method, result, seed, options.checkpoint_path,
                           stack.checkpoint_memo());
  }
  return result;
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
  EvalStack stack(evaluator, options);

  LocalSearchResult result;
  result.best_reward = -1e300;
  // Lock hierarchy (DESIGN.md): method_mutex acquires before result_mutex,
  // never the reverse. Thread-safety analysis cannot attach GUARDED_BY to
  // the captured locals below, so the ordering contract lives here and in
  // the acquisition sites.
  // geonas-lint: allow(mutex-needs-annotation) local capability; guarded state (method, issued) is stack-captured, not a member
  core::Mutex method_mutex;  // serializes ask/tell (the "coordinator")
  // geonas-lint: allow(mutex-needs-annotation) local capability; guarded state (result) is stack-captured, not a member
  core::Mutex result_mutex;
  std::size_t issued = 0;
  if (options.resume) {
    issued = load_search_checkpoint(method, result, seed,
                                    options.checkpoint_path,
                                    stack.resume_memo());
  }

  obs::MetricsRegistry* reg = obs::registry();
  const obs::ScopedTimer campaign_span(reg, "search.campaign");
  if (reg != nullptr) {
    reg->gauge("driver.workers").set(static_cast<double>(workers));
  }
  // One private kernel pool shard per worker, sized to the worker's
  // share of the kernel budget (declared before the worker pool so every
  // dispatched kernel drains before the shards die). With as many
  // workers as kernel threads every shard has one participant and every
  // campaign kernel runs inline on its worker.
  const std::size_t shard_threads =
      std::max<std::size_t>(1, hpc::kernel_threads() / workers);
  std::vector<std::unique_ptr<hpc::PoolShard>> shards;
  shards.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    std::string shard_name = "w";
    shard_name += std::to_string(w);
    shards.push_back(
        std::make_unique<hpc::PoolShard>(std::move(shard_name), shard_threads));
    shards.back()->register_metrics();
  }
  hpc::ThreadPool pool(workers);
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    futures.push_back(pool.submit([&, w] {
      // Every parallel_for under an evaluation dispatches on the
      // worker's private shard.
      const hpc::ScopedPoolShard shard_scope(*shards[w]);
      const obs::ScopedTimer worker_span(reg, "search.worker");
      obs::StopWatch busy_watch;
      double busy_seconds = 0.0;
      const obs::StopWatch worker_watch;
      for (;;) {
        searchspace::Architecture arch;
        std::uint64_t eval_seed = 0;
        {
          core::MutexLock lock(method_mutex);
          if (issued >= evaluations) {
            if (reg != nullptr) {
              const double wall = worker_watch.seconds();
              reg->histogram("driver.worker_busy_fraction")
                  .observe(wall > 0.0 ? busy_seconds / wall : 0.0);
            }
            return;
          }
          eval_seed = hash_combine(seed, issued++);
          arch = method.ask();
        }
        if (reg != nullptr) reg->counter("search.evals_started").add(1);
        busy_watch.reset();
        const auto outcome = stack.active->evaluate(arch, eval_seed);
        busy_seconds += busy_watch.seconds();
        // Lock order is always method -> result (tell and checkpoint
        // both honor it), so the pair can never deadlock. Sequential
        // acquisition in hierarchy order replaces scoped_lock's runtime
        // deadlock avoidance with the statically documented order.
        core::MutexLock method_lock(method_mutex);
        core::MutexLock result_lock(result_mutex);
        method.tell(arch, outcome.reward);
        record_outcome(result, std::move(arch), outcome);
        stack.harvest(result);
        if (!options.checkpoint_path.empty() &&
            options.checkpoint_every > 0 &&
            result.history.size() % options.checkpoint_every == 0) {
          save_search_checkpoint(method, result, seed,
                                 options.checkpoint_path,
                                 stack.checkpoint_memo());
        }
      }
    }));
  }
  for (auto& f : futures) f.get();
  stack.harvest(result);
  if (!options.checkpoint_path.empty()) {
    save_search_checkpoint(method, result, seed, options.checkpoint_path,
                           stack.checkpoint_memo());
  }
  return result;
}

}  // namespace geonas::core
