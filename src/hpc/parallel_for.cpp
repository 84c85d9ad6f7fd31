#include "hpc/parallel_for.hpp"

#include <algorithm>
#include <future>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "core/thread_annotations.hpp"
#include "hpc/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace geonas::hpc {

namespace {

std::size_t hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

struct KernelPoolState {
  core::Mutex mutex;
  std::size_t configured GEONAS_GUARDED_BY(mutex) = 0;  // 0 = hw default
  std::shared_ptr<ThreadPool> pool GEONAS_GUARDED_BY(mutex);
};

KernelPoolState& state() {
  static KernelPoolState s;
  return s;
}

// Set while a thread runs a chunk of a dispatched parallel_for, pool
// worker and dispatching caller alike, so nested parallel_for calls run
// inline: a worker would deadlock waiting on its own full pool, and the
// caller would queue behind the sibling chunks that occupy it.
thread_local bool t_in_kernel_chunk = false;

/// Marks the current thread as running a dispatched chunk for the
/// scope's duration, restoring the previous mark afterwards.
class ChunkScope {
 public:
  ChunkScope() noexcept : previous_(t_in_kernel_chunk) {
    t_in_kernel_chunk = true;
  }
  ~ChunkScope() { t_in_kernel_chunk = previous_; }

  ChunkScope(const ChunkScope&) = delete;
  ChunkScope& operator=(const ChunkScope&) = delete;

 private:
  bool previous_;
};

// Shard bound by ScopedPoolShard; dispatches without an explicit shard
// resolve through this before falling back to the global pool.
thread_local PoolShard* t_bound_shard = nullptr;

std::size_t configured_threads_locked(KernelPoolState& s)
    GEONAS_REQUIRES(s.mutex) {
  return s.configured == 0 ? hardware_threads() : s.configured;
}

/// Returns the global pool to use for `participants` (creating it
/// lazily), or nullptr when one participant suffices. A pool of the
/// wrong size is retired and destroyed outside the state mutex: its
/// shutdown joins worker threads, and that wait must not block
/// concurrent kernel_threads()/set_kernel_threads callers.
std::shared_ptr<ThreadPool> acquire_pool(std::size_t& participants) {
  KernelPoolState& s = state();
  std::shared_ptr<ThreadPool> retired;
  std::shared_ptr<ThreadPool> pool;
  {
    core::MutexLock lock(s.mutex);
    participants = configured_threads_locked(s);
    if (participants <= 1) return nullptr;
    if (!s.pool || s.pool->size() != participants - 1) {
      retired = std::move(s.pool);
      s.pool = std::make_shared<ThreadPool>(participants - 1);
    }
    pool = s.pool;
  }
  return pool;  // `retired` (if any) joins here, lock released
}

/// Instrument names for one dispatch target: the global pool's fixed
/// names or a shard's pre-built ones.
struct MetricViews {
  std::string_view dispatches;
  std::string_view chunks;
  std::string_view queue_depth;
  std::string_view chunk_seconds;
  std::string_view worker_busy_seconds;
};

constexpr MetricViews kGlobalMetrics{
    "kernel.dispatches", "kernel.chunks", "kernel.queue_depth",
    "kernel.chunk_seconds", "kernel.worker_busy_seconds"};

MetricViews shard_metrics(const PoolShard& shard) {
  const PoolShard::MetricNames& n = shard.metric_names();
  return {n.dispatches, n.chunks, n.queue_depth, n.chunk_seconds,
          n.worker_busy_seconds};
}

}  // namespace

std::size_t kernel_threads() noexcept {
  KernelPoolState& s = state();
  core::MutexLock lock(s.mutex);
  return configured_threads_locked(s);
}

void set_kernel_threads(std::size_t threads) {
  KernelPoolState& s = state();
  std::shared_ptr<ThreadPool> retired;
  {
    core::MutexLock lock(s.mutex);
    s.configured = threads;
    retired = std::move(s.pool);  // recreated lazily at the next dispatch
  }
  // The retired pool is destroyed (and its workers joined) here, outside
  // the state mutex. Kernels already dispatched keep a shared_ptr to it,
  // so they finish on the old pool; whoever drops the last reference
  // performs the join.
}

PoolShard* current_pool_shard() noexcept { return t_bound_shard; }

ScopedPoolShard::ScopedPoolShard(PoolShard& shard) noexcept
    : previous_(t_bound_shard) {
  t_bound_shard = &shard;
}

ScopedPoolShard::~ScopedPoolShard() { t_bound_shard = previous_; }

void parallel_for(std::size_t begin, std::size_t end, double cost_flops,
                  std::size_t grain, KernelBody body, PoolShard* shard) {
  if (begin >= end) return;
  const std::size_t range = end - begin;
  if (grain == 0) grain = 1;

  std::size_t participants = 1;
  ThreadPool* pool = nullptr;
  std::shared_ptr<ThreadPool> global_pool;  // keeps a retiring pool alive
  MetricViews metrics = kGlobalMetrics;
  if (cost_flops >= kParallelMinFlops && !t_in_kernel_chunk) {
    if (shard == nullptr) shard = t_bound_shard;
    if (shard != nullptr) {
      participants = shard->participants();
      pool = shard->pool();
      metrics = shard_metrics(*shard);
    } else {
      global_pool = acquire_pool(participants);
      pool = global_pool.get();
    }
  }
  const std::size_t grains = (range + grain - 1) / grain;
  const std::size_t chunks = std::min(participants, grains);
  if (pool == nullptr || chunks <= 1) {
    body(begin, end);
    return;
  }

  // Observability: only over-threshold dispatches are instrumented (the
  // serial fast path above pays nothing even with metrics enabled).
  // `reg` stays valid through the joins below because parallel_for
  // drains every future before returning and the obs lifetime contract
  // requires quiescence before registry teardown.
  obs::MetricsRegistry* reg = obs::registry();
  if (reg != nullptr) {
    reg->counter(metrics.dispatches).add(1);
    reg->counter(metrics.chunks).add(chunks);
    reg->histogram(metrics.queue_depth)
        .observe(static_cast<double>(pool->queue_depth()));
  }

  // Near-equal chunks in whole grains; the last chunk absorbs the
  // remainder so every index is covered exactly once.
  const std::size_t grains_per_chunk = grains / chunks;
  const std::size_t extra = grains % chunks;
  std::vector<std::future<void>> pending;
  pending.reserve(chunks - 1);
  std::size_t lo = begin;
  for (std::size_t c = 0; c + 1 < chunks; ++c) {
    const std::size_t my_grains = grains_per_chunk + (c < extra ? 1 : 0);
    const std::size_t hi = std::min(end, lo + my_grains * grain);
    pending.push_back(pool->submit([body, lo, hi, metrics, reg] {
      const ChunkScope chunk;
      if (reg == nullptr) {
        body(lo, hi);
        return;
      }
      const obs::StopWatch watch;
      body(lo, hi);
      const double seconds = watch.seconds();
      reg->histogram(metrics.chunk_seconds).observe(seconds);
      reg->gauge(metrics.worker_busy_seconds).add(seconds);
    }));
    lo = hi;
  }
  // The caller participates instead of idling on futures. Workers hold
  // references into this frame, so drain them even if the caller's own
  // chunk throws; the first exception (worker or caller) wins.
  std::exception_ptr error;
  const obs::StopWatch caller_watch;
  try {
    const ChunkScope chunk;
    body(lo, end);
  } catch (...) {
    error = std::current_exception();
  }
  if (reg != nullptr) {
    reg->histogram(metrics.chunk_seconds).observe(caller_watch.seconds());
  }
  for (std::future<void>& f : pending) {
    try {
      f.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

void register_kernel_metrics() {
  obs::MetricsRegistry* reg = obs::registry();
  if (reg == nullptr) return;
  reg->counter(kGlobalMetrics.dispatches);
  reg->counter(kGlobalMetrics.chunks);
  reg->histogram(kGlobalMetrics.queue_depth);
  reg->histogram(kGlobalMetrics.chunk_seconds);
  reg->gauge(kGlobalMetrics.worker_busy_seconds);
  reg->gauge("kernel.threads").set(static_cast<double>(kernel_threads()));
}

}  // namespace geonas::hpc
