#include "hpc/thread_pool.hpp"

#include <stdexcept>

#include "hpc/kernel_team.hpp"
#include "hpc/parallel_for.hpp"
#include "obs/metrics.hpp"

namespace geonas::hpc {

PoolShard::PoolShard(std::string name, std::size_t threads)
    : name_(std::move(name)),
      participants_(threads == 0 ? kernel_threads() : threads) {
  if (participants_ > 1) {
    team_ = std::make_unique<KernelTeam>(participants_ - 1);
  }
  const std::string prefix = "kernel.shard." + name_ + ".";
  metrics_.dispatches = prefix + "dispatches";
  metrics_.chunks = prefix + "chunks";
  metrics_.queue_depth = prefix + "queue_depth";
  metrics_.chunk_seconds = prefix + "chunk_seconds";
  metrics_.worker_busy_seconds = prefix + "worker_busy_seconds";
}

PoolShard::~PoolShard() = default;

void PoolShard::register_metrics() const {
  obs::MetricsRegistry* reg = obs::registry();
  if (reg == nullptr) return;
  reg->counter(metrics_.dispatches);
  reg->counter(metrics_.chunks);
  reg->histogram(metrics_.queue_depth);
  reg->histogram(metrics_.chunk_seconds);
  reg->gauge(metrics_.worker_busy_seconds);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    throw std::invalid_argument("ThreadPool: need at least one thread");
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    core::MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      core::MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.wait(lock.native());
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      // submit() routes tasks through std::packaged_task, which stores
      // exceptions in the future instead of throwing here; this catch is
      // the backstop for any directly-enqueued task. Letting an exception
      // escape the thread function would std::terminate the whole
      // process and the destructor could never join — the error belongs
      // to whoever owns the task's result, so keep the worker alive.
    }
  }
}

}  // namespace geonas::hpc
