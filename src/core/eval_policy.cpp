#include "core/eval_policy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "tensor/random.hpp"

namespace geonas::core {

namespace {
/// Accounted delay before retry r (1-based): kBackoffSeconds * 2^(r-1).
constexpr double kBackoffSeconds = 5.0;
}  // namespace

RetryingEvaluator::RetryingEvaluator(hpc::ArchitectureEvaluator& inner,
                                     EvalRetryPolicy policy)
    : inner_(&inner), policy_(policy) {
  if (policy_.max_attempts == 0) {
    throw std::invalid_argument("RetryingEvaluator: zero attempts");
  }
  // Pre-register the retry section so the telemetry sidecar carries it
  // (at zero) even for campaigns where nothing ever fails.
  if (obs::MetricsRegistry* reg = obs::registry()) {
    reg->counter("eval.attempts");
    reg->counter("eval.retries");
    reg->counter("eval.exhausted_failures");
  }
}

hpc::EvalOutcome RetryingEvaluator::evaluate(
    const searchspace::Architecture& arch, std::uint64_t eval_seed) {
  // Obs counters mirror the member atomics (which stay the source of
  // truth: campaign reports and checkpoints read them).
  obs::MetricsRegistry* reg = obs::registry();
  if (reg != nullptr) reg->counter("eval.attempts").add(1);
  double wasted_seconds = 0.0;  // node time burned by failed attempts
  std::size_t params = 0;
  for (std::size_t attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    // Attempt 0 keeps the caller's seed so a policy with retries enabled
    // is bitwise-identical to one without as long as nothing fails.
    const std::uint64_t seed =
        attempt == 0 ? eval_seed : hash_combine(eval_seed, attempt);
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      const double backoff =
          kBackoffSeconds * std::pow(2.0, static_cast<double>(attempt - 1));
      wasted_seconds += backoff;
      if (reg != nullptr) {
        reg->counter("eval.retries").add(1);
        reg->counter("eval.attempts").add(1);
        reg->histogram("eval.backoff_seconds").observe(backoff);
      }
    }
    bool attempt_failed = false;
    hpc::EvalOutcome outcome;
    try {
      outcome = inner_->evaluate(arch, seed);
      params = outcome.params;
      if (!std::isfinite(outcome.reward)) {
        attempt_failed = true;  // diverged training
        wasted_seconds += std::max(0.0, outcome.duration_seconds);
      } else if (policy_.timeout_seconds > 0.0 &&
                 outcome.duration_seconds > policy_.timeout_seconds) {
        attempt_failed = true;  // straggler: cut at the timeout
        wasted_seconds += policy_.timeout_seconds;
      }
    } catch (const std::exception&) {
      attempt_failed = true;  // crashed evaluation; duration unknown
    }
    if (!attempt_failed) {
      outcome.duration_seconds += wasted_seconds;
      return outcome;
    }
  }
  failures_.fetch_add(1, std::memory_order_relaxed);
  if (reg != nullptr) reg->counter("eval.exhausted_failures").add(1);
  hpc::EvalOutcome failed;
  failed.reward = policy_.failure_reward;
  failed.duration_seconds = wasted_seconds;
  failed.params = params;
  failed.failed = true;
  return failed;
}

MemoizingEvaluator::MemoizingEvaluator(hpc::ArchitectureEvaluator& inner)
    : inner_(&inner) {
  // Pre-register so an all-miss campaign still exports memo.hits = 0.
  if (obs::MetricsRegistry* reg = obs::registry()) {
    reg->counter("memo.hits");
    reg->counter("memo.misses");
    reg->gauge("memo.cache_bytes");
  }
}

hpc::EvalOutcome MemoizingEvaluator::evaluate(
    const searchspace::Architecture& arch, std::uint64_t eval_seed) {
  obs::MetricsRegistry* reg = obs::registry();
  {
    // The key is derived into a reused scratch buffer under the lock, so
    // the hit path performs no heap allocation once the buffer's
    // capacity is warm (memoized re-evaluations are a hot path in
    // mutation-based search).
    core::MutexLock lock(mutex_);
    arch.key_into(key_scratch_);
    const auto it = cache_.find(key_scratch_);
    if (it != cache_.end()) {
      ++hits_;
      if (reg != nullptr) reg->counter("memo.hits").add(1);
      return it->second;
    }
  }
  // Evaluate outside the lock: a first visit is a full training and must
  // not serialize the other workers.
  const hpc::EvalOutcome outcome = inner_->evaluate(arch, eval_seed);
  if (reg != nullptr) reg->counter("memo.misses").add(1);
  core::MutexLock lock(mutex_);
  ++misses_;
  if (!outcome.failed) {
    if (const hpc::EvalOutcome* existing =
            insert_outcome_locked(arch, outcome)) {
      return *existing;  // a concurrent first visit beat us; its result wins
    }
  }
  return outcome;
}

const hpc::EvalOutcome* MemoizingEvaluator::insert_outcome_locked(
    const searchspace::Architecture& arch, const hpc::EvalOutcome& outcome) {
  arch.key_into(key_scratch_);
  const auto [it, inserted] = cache_.emplace(key_scratch_, outcome);
  if (!inserted) return &it->second;
  order_.push_back(key_scratch_);
  cache_bytes_ += entry_bytes(key_scratch_);
  if (obs::MetricsRegistry* reg = obs::registry()) {
    reg->gauge("memo.cache_bytes").set(static_cast<double>(cache_bytes_));
  }
  return nullptr;
}

std::size_t MemoizingEvaluator::hits() const {
  core::MutexLock lock(mutex_);
  return hits_;
}

std::size_t MemoizingEvaluator::misses() const {
  core::MutexLock lock(mutex_);
  return misses_;
}

std::size_t MemoizingEvaluator::size() const {
  core::MutexLock lock(mutex_);
  return order_.size();
}

std::vector<MemoizingEvaluator::Entry> MemoizingEvaluator::snapshot() const {
  core::MutexLock lock(mutex_);
  std::vector<Entry> entries;
  entries.reserve(order_.size());
  for (const std::string& key : order_) {
    entries.push_back({key, cache_.at(key)});
  }
  return entries;
}

void MemoizingEvaluator::visit_entries(
    hpc::FunctionRef<void(std::size_t)> begin,
    hpc::FunctionRef<void(const std::string&, const hpc::EvalOutcome&)>
        entry) const {
  core::MutexLock lock(mutex_);
  begin(order_.size());
  for (const std::string& key : order_) {
    entry(key, cache_.at(key));
  }
}

void MemoizingEvaluator::restore(const std::vector<Entry>& entries,
                                 std::size_t hits, std::size_t misses) {
  core::MutexLock lock(mutex_);
  cache_.clear();
  order_.clear();
  cache_bytes_ = 0;
  for (const Entry& entry : entries) {
    const auto [it, inserted] = cache_.insert_or_assign(entry.key,
                                                        entry.outcome);
    (void)it;
    if (inserted) {
      order_.push_back(entry.key);
      cache_bytes_ += entry_bytes(entry.key);
    }
  }
  hits_ = hits;
  misses_ = misses;
  if (obs::MetricsRegistry* reg = obs::registry()) {
    reg->gauge("memo.cache_bytes").set(static_cast<double>(cache_bytes_));
  }
}

std::size_t MemoizingEvaluator::cache_bytes() const {
  core::MutexLock lock(mutex_);
  return cache_bytes_;
}

}  // namespace geonas::core
