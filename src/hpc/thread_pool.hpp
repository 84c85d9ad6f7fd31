// Real shared-memory parallel primitives.
//
// Beyond the discrete-event simulator, geonas runs genuinely parallel
// work on the local machine: a FIFO ThreadPool (the kernel pool and
// its per-campaign-worker PoolShards are built on it) and a bounded
// Channel for send/recv between threads. The RL agents' gradient
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

/// Process-wide worker warm-up hook. When set, every ThreadPool worker
/// invokes it once at thread start, BEFORE claiming any task — so by the
/// time a submitted task runs on a worker, the warm-up has completed on
/// that thread. Kernel layers use this to pre-reserve thread_local
/// scratch (GEMM pack buffers) so a worker's first dispatch allocates
/// exactly what steady-state dispatches do. The hook must be
/// thread-safe and must not throw; pass nullptr to clear. Workers
/// spawned before the hook is set never run it — register from a static
/// initializer (pools are created lazily, after static init).
using WorkerWarmupFn = void (*)();
void set_worker_warmup(WorkerWarmupFn fn) noexcept;

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

  /// Tasks currently enqueued and not yet claimed by a worker — an
  /// instantaneous observability sample (stale by the time it returns).
  [[nodiscard]] std::size_t queue_depth() const GEONAS_EXCLUDES(mutex_) {
    core::MutexLock lock(mutex_);
    return queue_.size();
  }

 private:
  void worker_loop() GEONAS_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;  // written only by the constructor
  mutable core::Mutex mutex_;
  std::deque<std::function<void()>> queue_ GEONAS_GUARDED_BY(mutex_);
  std::condition_variable cv_;
  bool stopping_ GEONAS_GUARDED_BY(mutex_) = false;
};

/// Named, independently-owned kernel pool shard.
///
/// Concurrent campaign/evaluation streams that each run their own
/// parallel GEMMs would contend on the single process-wide kernel pool
/// (queueing each other's chunks behind foreign work). A PoolShard gives
/// one stream a private pool: pass it explicitly to parallel_for, or
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

  PoolShard(const PoolShard&) = delete;
  PoolShard& operator=(const PoolShard&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t participants() const noexcept {
    return participants_;
  }
  /// The shard's worker pool (participants - 1 threads); null when the
  /// shard is single-participant.
  [[nodiscard]] ThreadPool* pool() noexcept { return pool_.get(); }

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
  std::unique_ptr<ThreadPool> pool_;
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
