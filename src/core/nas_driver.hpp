// Local NAS campaign driver.
//
// Runs an ask/tell search against an evaluator on the local machine —
// serially on the calling thread, or genuinely in parallel on worker
// shards (hpc::PoolShard), each behaving like an asynchronous Theta
// worker. Both drivers run one worker loop: ask -> evaluate -> tell ->
// record -> checkpoint cadence. Used by the examples and by benches that
// need "the best architecture AE found" before post-training.
//
// Campaigns are fault-tolerant and resumable: a SearchRunOptions can
// attach a retry/timeout policy (failing evaluations are retried with a
// reseeded training instead of aborting the run) and a checkpoint file
// that is atomically rewritten every N completed evaluations. Resuming a
// serial campaign from a checkpoint replays the uninterrupted run
// bitwise — the checkpoint stores the search method's complete state
// (RNG streams included), the evaluation history, and the campaign seed,
// and per-evaluation seeds are derived from the global completion index.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/eval_policy.hpp"
#include "hpc/evaluator.hpp"
#include "search/search_method.hpp"

namespace geonas::core {

struct LocalEval {
  searchspace::Architecture arch;
  double reward = 0.0;
  std::size_t params = 0;
};

struct LocalSearchResult {
  std::vector<LocalEval> history;  // completion order
  searchspace::Architecture best;
  double best_reward = 0.0;
  /// Fault-policy accounting (0 unless a retry policy was enabled).
  std::size_t eval_retries = 0;
  std::size_t eval_failures = 0;
  /// Memoization accounting (0 unless SearchRunOptions::memoize).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

struct SearchRunOptions {
  /// Retry/timeout policy applied around the evaluator (default: off —
  /// a throwing evaluation aborts the campaign, as before).
  EvalRetryPolicy retry;
  /// Checkpoint file path; empty disables checkpointing.
  std::string checkpoint_path;
  /// Rewrite the checkpoint after every N completed evaluations (0 =
  /// only the final state, written when checkpoint_path is set).
  std::size_t checkpoint_every = 0;
  /// Load checkpoint_path before running and continue from it. The
  /// method must match the checkpointed one (name + configuration) and
  /// the campaign seed must be identical.
  bool resume = false;
  /// Memoize evaluations on the canonical architecture key: duplicate
  /// candidates (constant under mutation-based search) return the first
  /// outcome instead of retraining. The cache rides in the checkpoint,
  /// so a resumed campaign replays hits exactly as the uninterrupted run
  /// would. Off by default — memoized rewards are seed-independent,
  /// which changes trajectories relative to the re-training baseline.
  bool memoize = false;
};

/// Runs `evaluations` sequential ask/evaluate/tell cycles on the calling
/// thread; its kernels dispatch on the global pool.
[[nodiscard]] LocalSearchResult run_local_search(
    search::SearchMethod& method, hpc::ArchitectureEvaluator& evaluator,
    std::size_t evaluations, std::uint64_t seed = 0,
    const SearchRunOptions& options = {});

/// Same, with `workers` concurrent evaluations (evaluator must be
/// thread_safe()). ask/tell are serialized; evaluations overlap — the
/// shared-memory equivalent of the paper's asynchronous AE/RS campaigns.
/// Every worker is an hpc::PoolShard ("w<idx>") of
/// max(1, kernel_threads() / workers) participants, so concurrent
/// evaluations split the kernel budget instead of queueing their chunks
/// behind each other on the global pool; each shard exports
/// "kernel.shard.w<idx>.*" metrics. A worker's exception is rethrown
/// once every worker has returned (the first by worker index).
/// Checkpoint/resume works here too, but completion order (and therefore
/// the resumed trajectory) depends on thread timing; only the serial
/// driver guarantees bitwise-identical resumption.
[[nodiscard]] LocalSearchResult run_local_search_parallel(
    search::SearchMethod& method, hpc::ArchitectureEvaluator& evaluator,
    std::size_t evaluations, std::size_t workers, std::uint64_t seed = 0,
    const SearchRunOptions& options = {});

/// Atomically writes a campaign checkpoint (method state + history +
/// seed) as a versioned geonas::io container ("GEONASC1", CRC-32
/// trailer). The method must be checkpointable(). Format v2 appends the
/// memoization cache; pass the campaign's MemoizingEvaluator (or nullptr
/// for an empty cache section).
void save_search_checkpoint(const search::SearchMethod& method,
                            const LocalSearchResult& state,
                            std::uint64_t seed, const std::string& path,
                            const MemoizingEvaluator* memo = nullptr);

/// Restores a checkpoint into `method` and `state`; returns the number of
/// completed evaluations. Throws when the file is truncated/corrupt, the
/// method name differs, or the stored campaign seed != `expected_seed`
/// (resuming under a different seed would silently fork the trajectory).
/// Accepts format v1 (pre-memoization) and v2; a v2 cache section is
/// restored into `memo` when given, consumed and dropped otherwise.
[[nodiscard]] std::size_t load_search_checkpoint(
    search::SearchMethod& method, LocalSearchResult& state,
    std::uint64_t expected_seed, const std::string& path,
    MemoizingEvaluator* memo = nullptr);

}  // namespace geonas::core
