#include "hpc/parallel_for.hpp"

#include <algorithm>
#include <memory>
#include <string_view>
#include <thread>

#include "core/thread_annotations.hpp"
#include "hpc/kernel_team.hpp"
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
  std::shared_ptr<KernelTeam> team GEONAS_GUARDED_BY(mutex);
};

KernelPoolState& state() {
  static KernelPoolState s;
  return s;
}

std::size_t configured_threads_locked(KernelPoolState& s)
    GEONAS_REQUIRES(s.mutex) {
  return s.configured == 0 ? hardware_threads() : s.configured;
}

/// Returns the global team to use for `participants` (creating it
/// lazily), or nullptr when one participant suffices. A team of the
/// wrong size is retired and destroyed outside the state mutex: its
/// shutdown joins worker threads, and that wait must not block
/// concurrent kernel_threads()/set_kernel_threads callers.
std::shared_ptr<KernelTeam> acquire_team(std::size_t& participants) {
  KernelPoolState& s = state();
  std::shared_ptr<KernelTeam> retired;
  std::shared_ptr<KernelTeam> team;
  {
    core::MutexLock lock(s.mutex);
    participants = configured_threads_locked(s);
    if (participants <= 1) return nullptr;
    if (!s.team || s.team->workers() != participants - 1) {
      retired = std::move(s.team);
      s.team = std::make_shared<KernelTeam>(participants - 1);
    }
    team = s.team;
  }
  return team;  // `retired` (if any) joins here, lock released
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

}  // namespace

std::size_t kernel_threads() noexcept {
  KernelPoolState& s = state();
  core::MutexLock lock(s.mutex);
  return configured_threads_locked(s);
}

void set_kernel_threads(std::size_t threads) {
  KernelPoolState& s = state();
  std::shared_ptr<KernelTeam> retired;
  {
    core::MutexLock lock(s.mutex);
    s.configured = threads;
    retired = std::move(s.team);  // recreated lazily at the next dispatch
  }
  // The retired team is destroyed (and its workers joined) here, outside
  // the state mutex. Kernels already dispatched keep a shared_ptr to it,
  // so they finish on the old team; whoever drops the last reference
  // performs the join.
}

void parallel_for(std::size_t begin, std::size_t end, double cost_flops,
                  std::size_t grain, KernelBody body) {
  if (begin >= end) return;
  if (cost_flops < kParallelMinFlops || in_kernel_chunk()) {
    body(begin, end);
    return;
  }
  if (grain == 0) grain = 1;

  std::size_t participants = 1;
  KernelTeam* team = nullptr;
  std::shared_ptr<KernelTeam> global_team;  // keeps a retiring team alive
  MetricViews metrics = kGlobalMetrics;
  if (PoolShard* shard = current_pool_shard()) {
    participants = shard->participants();
    team = shard->pool();
    const PoolShard::MetricNames& n = shard->metric_names();
    metrics = {n.dispatches, n.chunks, n.queue_depth, n.chunk_seconds,
               n.worker_busy_seconds};
  } else {
    global_team = acquire_team(participants);
    team = global_team.get();
  }
  const std::size_t grains = (end - begin + grain - 1) / grain;
  const std::size_t chunks = std::min(participants, grains);
  if (team == nullptr || chunks <= 1) {
    body(begin, end);
    return;
  }

  // Observability: only over-threshold dispatches are instrumented (the
  // serial fast path above pays nothing even with metrics enabled).
  // `reg` stays valid through the join because the obs lifetime
  // contract requires quiescence before registry teardown. A dispatch
  // that finds the global team busy runs its range as one inline chunk
  // and observes one job ahead of it in kernel.queue_depth (a shard's
  // team has one dispatching thread, so it is never found busy).
  obs::MetricsRegistry* reg = obs::registry();
  const bool claimed = team->try_acquire();
  if (reg != nullptr) {
    reg->counter(metrics.dispatches).add(1);
    reg->counter(metrics.chunks).add(claimed ? chunks : 1);
    reg->histogram(metrics.queue_depth).observe(claimed ? 0.0 : 1.0);
  }
  if (claimed) {
    team->run(begin, end, grain, chunks, body,
              {reg, metrics.chunk_seconds, metrics.worker_busy_seconds});
    return;
  }
  const obs::StopWatch watch;
  {
    const ChunkScope chunk;
    body(begin, end);
  }
  if (reg != nullptr) {
    reg->histogram(metrics.chunk_seconds).observe(watch.seconds());
  }
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
