// Evaluation fault policy: retry-with-backoff and per-evaluation timeout.
//
// On a real cluster an evaluation can throw (a bad architecture build, a
// worker dying mid-training), diverge (NaN reward), or straggle. The
// paper's asynchronous design tolerates all three by construction — a
// lost evaluation is just one worker slot — and the local drivers get the
// same behaviour through this wrapper: a failing evaluation is retried
// with a reseeded training (fresh initialization draws a different basin)
// up to `max_attempts` times, each retry adding an exponentially growing
// backoff to the accounted duration; if every attempt fails, a sentinel
// failed outcome is reported instead of aborting the whole campaign.
//
// Timeouts are enforced post-hoc on the reported duration (a training
// cannot be preempted mid-flight from this layer): an attempt whose
// duration exceeds `timeout_seconds` is discarded as a straggler and the
// node is accounted busy for exactly the timeout.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/thread_annotations.hpp"
#include "hpc/evaluator.hpp"
#include "hpc/parallel_for.hpp"  // FunctionRef

namespace geonas::core {

struct EvalRetryPolicy {
  /// Total attempts per evaluation (1 = fail fast, no retry).
  std::size_t max_attempts = 1;
  /// Attempts whose duration exceeds this are discarded (0 = no timeout).
  double timeout_seconds = 0.0;
  /// Reward reported when every attempt fails. Low enough to never win a
  /// tournament, finite so search statistics stay well-defined.
  double failure_reward = -1.0;

  [[nodiscard]] bool enabled() const noexcept {
    return max_attempts > 1 || timeout_seconds > 0.0;
  }
};

/// Wraps any evaluator with the retry/timeout policy. Thread-safe iff the
/// inner evaluator is (counters are atomic).
class RetryingEvaluator final : public hpc::ArchitectureEvaluator {
 public:
  RetryingEvaluator(hpc::ArchitectureEvaluator& inner,
                    EvalRetryPolicy policy);

  /// Never throws on evaluation failure; returns the sentinel outcome
  /// (reward = policy.failure_reward, failed = true) after the last
  /// attempt. Retries are reseeded via hash_combine(eval_seed, attempt).
  [[nodiscard]] hpc::EvalOutcome evaluate(
      const searchspace::Architecture& arch, std::uint64_t eval_seed) override;
  [[nodiscard]] bool thread_safe() const override {
    return inner_->thread_safe();
  }

  [[nodiscard]] std::size_t retries() const noexcept { return retries_; }
  [[nodiscard]] std::size_t failures() const noexcept { return failures_; }
  [[nodiscard]] const EvalRetryPolicy& policy() const noexcept {
    return policy_;
  }

 private:
  hpc::ArchitectureEvaluator* inner_;
  EvalRetryPolicy policy_;
  std::atomic<std::size_t> retries_{0};
  std::atomic<std::size_t> failures_{0};
};

/// Campaign-level evaluation memoization. Mutation-based search revisits
/// architectures constantly (Li & Talwalkar); training a duplicate buys
/// no new information, so the first outcome is cached under the
/// architecture's canonical key() and returned for every later visit —
/// regardless of eval_seed, which is the point: a duplicate costs a hash
/// lookup instead of a training run.
///
/// Layering: wrap the memoizer OUTSIDE a RetryingEvaluator so cache hits
/// skip the retry machinery entirely. Sentinel `failed` outcomes are
/// never cached — a transient failure must not pin an architecture to
/// the failure reward for the rest of the campaign.
///
/// Thread-safe iff the inner evaluator is (one mutex guards the table;
/// it is never held across an inner evaluation, so concurrent first
/// visits of the SAME architecture may both train — the first completed
/// outcome wins and later ones are discarded, keeping the cache stable).
class MemoizingEvaluator final : public hpc::ArchitectureEvaluator {
 public:
  explicit MemoizingEvaluator(hpc::ArchitectureEvaluator& inner);

  /// The miss-evaluated-outside-lock contract, machine-checked: the
  /// table mutex is taken to probe, dropped across the inner evaluation,
  /// and retaken to publish — so evaluate() must be entered lock-free.
  [[nodiscard]] hpc::EvalOutcome evaluate(
      const searchspace::Architecture& arch, std::uint64_t eval_seed) override
      GEONAS_EXCLUDES(mutex_);
  [[nodiscard]] bool thread_safe() const override {
    return inner_->thread_safe();
  }

  /// Evaluations served from the cache / forwarded to the inner
  /// evaluator. hits + misses == total evaluate() calls.
  [[nodiscard]] std::size_t hits() const GEONAS_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t misses() const GEONAS_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t size() const GEONAS_EXCLUDES(mutex_);

  struct Entry {
    std::string key;  // searchspace::Architecture::key()
    hpc::EvalOutcome outcome;
  };
  /// Insertion-ordered snapshot — deterministic, so checkpoints of the
  /// same campaign state are byte-identical.
  [[nodiscard]] std::vector<Entry> snapshot() const GEONAS_EXCLUDES(mutex_);
  /// Streams the cache in insertion order under a single lock — the
  /// checkpoint writer serializes entries in place instead of cloning
  /// the whole table (snapshot() copies every key/outcome; on a long
  /// campaign that doubled the cache's memory at every checkpoint).
  /// `begin` receives the entry count first, then `entry` fires once per
  /// cached entry. Callbacks must not reenter this evaluator — the
  /// GEONAS_EXCLUDES makes the reentrancy deadlock a compile error for
  /// any annotated caller that still holds mutex_.
  void visit_entries(
      hpc::FunctionRef<void(std::size_t)> begin,
      hpc::FunctionRef<void(const std::string&, const hpc::EvalOutcome&)>
          entry) const GEONAS_EXCLUDES(mutex_);
  /// Replaces the cache and counters (checkpoint resume). Later entries
  /// win on duplicate keys.
  void restore(const std::vector<Entry>& entries, std::size_t hits,
               std::size_t misses) GEONAS_EXCLUDES(mutex_);

  /// Approximate heap footprint of the cache (keys + outcomes + table
  /// overhead), also exported as the "memo.cache_bytes" obs gauge.
  [[nodiscard]] std::size_t cache_bytes() const GEONAS_EXCLUDES(mutex_);

 private:
  /// Footprint estimate for one entry: its key, the outcome, and a flat
  /// per-entry overhead (hash node + insertion-order slot).
  [[nodiscard]] static std::size_t entry_bytes(const std::string& key) {
    return key.size() + sizeof(hpc::EvalOutcome) + 64;
  }

  /// Publishes one completed outcome under the held lock. Returns the
  /// already-cached outcome when a concurrent first visit of the same
  /// architecture won the race (its result stays authoritative), null
  /// when `outcome` was inserted.
  [[nodiscard]] const hpc::EvalOutcome* insert_outcome_locked(
      const searchspace::Architecture& arch, const hpc::EvalOutcome& outcome)
      GEONAS_REQUIRES(mutex_);

  hpc::ArchitectureEvaluator* inner_;
  mutable core::Mutex mutex_;
  std::unordered_map<std::string, hpc::EvalOutcome> cache_
      GEONAS_GUARDED_BY(mutex_);
  /// cache_ keys in insertion order.
  std::vector<std::string> order_ GEONAS_GUARDED_BY(mutex_);
  /// Reused key buffer so the hit path never allocates once warm.
  std::string key_scratch_ GEONAS_GUARDED_BY(mutex_);
  std::size_t hits_ GEONAS_GUARDED_BY(mutex_) = 0;
  std::size_t misses_ GEONAS_GUARDED_BY(mutex_) = 0;
  std::size_t cache_bytes_ GEONAS_GUARDED_BY(mutex_) = 0;
};

}  // namespace geonas::core
