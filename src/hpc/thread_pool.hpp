// Real shared-memory parallel primitives.
//
// Beyond the discrete-event simulator, geonas runs genuinely parallel
// work on the local machine through two primitives. A PoolShard is one
// concurrent worker (a parallel campaign's worker, a serve stream): it
// starts and owns the thread that runs its body, and every parallel_for
// issued from that thread dispatches on the shard's private kernel team
// (hpc/kernel_team.hpp). A bounded Channel carries send/recv between
// threads. The RL agents' gradient reduction is
// search::all_reduce_mean_gradients, called at each synchronous round's
// join.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "core/thread_annotations.hpp"

namespace geonas::hpc {

class KernelTeam;  // hpc/kernel_team.hpp

/// One concurrent worker with a private share of the kernel threads.
///
/// The constructor starts one thread, which runs `body` once. That
/// thread is bound to the shard for its whole life: every parallel_for
/// it issues dispatches on the shard's team, so concurrent workers split
/// the kernel budget instead of contending for the global team. The
/// shard's obs instruments ("kernel.shard.<name>.{dispatches, chunks,
/// queue_depth, chunk_seconds, worker_busy_seconds}") are registered at
/// construction, and their names are built once so the dispatch path
/// never concatenates strings.
///
/// A shard cannot move (its thread holds `this`); keep it in a
/// std::unique_ptr.
class PoolShard {
 public:
  /// `participants` counts the shard's own thread; with 1 there is no
  /// team and every kernel runs inline. Throws std::invalid_argument
  /// for 0.
  PoolShard(std::string name, std::size_t participants,
            std::function<void()> body);
  /// Joins the thread; never throws (an exception join() did not hand
  /// back is dropped).
  ~PoolShard();

  PoolShard(const PoolShard&) = delete;
  PoolShard& operator=(const PoolShard&) = delete;

  /// Waits for the body to finish and hands back the exception it threw;
  /// null when it returned normally, and on every later call.
  std::exception_ptr join();

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t participants() const noexcept {
    return participants_;
  }
  /// The shard's fork-join team (participants - 1 worker threads); null
  /// when the shard is single-participant.
  [[nodiscard]] KernelTeam* pool() noexcept { return team_.get(); }

  struct MetricNames {
    std::string dispatches;
    std::string chunks;
    std::string queue_depth;
    std::string chunk_seconds;
    std::string worker_busy_seconds;
  };
  [[nodiscard]] const MetricNames& metric_names() const noexcept {
    return metrics_;
  }

 private:
  std::string name_;
  std::size_t participants_;
  std::unique_ptr<KernelTeam> team_;
  MetricNames metrics_;
  std::exception_ptr error_;  // the body's, written by thread_
  std::thread thread_;  // last: starts after, and is joined before, the rest
};

/// Bounded multi-producer multi-consumer channel (MPI-style mailbox).
template <typename T>
class Channel {
 public:
  explicit Channel(std::size_t capacity = 1024) : capacity_(capacity) {}

  /// Blocking send; returns false if the channel was closed.
  bool send(T value) GEONAS_EXCLUDES(mutex_) {
    core::MutexLock lock(mutex_);
    while (!closed_ && queue_.size() >= capacity_) {
      not_full_.wait(lock.native());
    }
    if (closed_) return false;
    queue_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  /// Blocking receive; std::nullopt when closed and drained.
  std::optional<T> recv() GEONAS_EXCLUDES(mutex_) {
    core::MutexLock lock(mutex_);
    while (!closed_ && queue_.empty()) {
      not_empty_.wait(lock.native());
    }
    if (queue_.empty()) return std::nullopt;
    T value = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return value;
  }

  void close() GEONAS_EXCLUDES(mutex_) {
    core::MutexLock lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  const std::size_t capacity_;  // immutable after construction
  core::Mutex mutex_;
  std::deque<T> queue_ GEONAS_GUARDED_BY(mutex_);
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  bool closed_ GEONAS_GUARDED_BY(mutex_) = false;
};

}  // namespace geonas::hpc
