// Real shared-memory parallel primitives.
//
// Beyond the discrete-event simulator, geonas runs genuinely parallel
// work on the local machine: a FIFO ThreadPool for long-running tasks
// (the serve engine's stream loops, the parallel campaign's workers),
// PoolShards, which give one such stream a private kernel team
// (hpc/kernel_team.hpp) for its parallel_for dispatches, and a bounded
// Channel for send/recv between threads. Kernel fork-joins never go
// through the ThreadPool: a queued, future-returning task costs a heap
// allocation and a futex wake-up per chunk. The RL agents' gradient
// reduction is search::all_reduce_mean_gradients, called at each
// synchronous round's join.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_annotations.hpp"

namespace geonas::hpc {

class KernelTeam;  // hpc/kernel_team.hpp

/// Fixed-size pool executing submitted tasks FIFO.
///
/// Shutdown contract: the destructor drains the queue and joins every
/// worker, even when tasks threw — submit() stores task exceptions in
/// the returned future, and the worker loop additionally refuses to let
/// any exception escape the thread function (which would terminate the
/// process and make the join unreachable).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns a future for its result.
  template <typename F>
  std::future<std::invoke_result_t<F>> submit(F&& fn)
      GEONAS_EXCLUDES(mutex_) {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      core::MutexLock lock(mutex_);
      if (stopping_) {
        throw std::runtime_error("ThreadPool: submit after shutdown");
      }
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

 private:
  void worker_loop() GEONAS_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;  // written only by the constructor
  core::Mutex mutex_;
  std::deque<std::function<void()>> queue_ GEONAS_GUARDED_BY(mutex_);
  std::condition_variable cv_;
  bool stopping_ GEONAS_GUARDED_BY(mutex_) = false;
};

/// Named, independently-owned kernel pool shard.
///
/// Concurrent campaign/evaluation streams that each run their own
/// parallel GEMMs would contend on the single process-wide kernel team
/// (a dispatch that finds a team busy runs inline). A PoolShard gives
/// one stream a private team: pass it explicitly to parallel_for, or
/// bind it to the current thread with ScopedPoolShard so every
/// parallel_for issued underneath uses the shard automatically.
///
/// The shard must outlive every dispatch issued against it. Per-shard
/// observability instruments ("kernel.shard.<name>.{dispatches, chunks,
/// queue_depth, chunk_seconds, worker_busy_seconds}") have their names
/// pre-built at construction so the dispatch path never concatenates
/// strings.
class PoolShard {
 public:
  /// `threads` is the total participant count including the dispatching
  /// caller; 0 adopts the process-wide kernel_threads() setting at
  /// construction time. A shard with one participant runs everything
  /// inline (no worker threads are spawned).
  explicit PoolShard(std::string name, std::size_t threads = 0);
  ~PoolShard();

  PoolShard(const PoolShard&) = delete;
  PoolShard& operator=(const PoolShard&) = delete;

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

  /// Pre-registers the shard's obs instruments at zero in the installed
  /// registry (no-op without one), so sidecars show the shard section
  /// even before its first over-threshold dispatch.
  void register_metrics() const;

 private:
  std::string name_;
  std::size_t participants_;
  std::unique_ptr<KernelTeam> team_;
  MetricNames metrics_;
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
