// The fork-join team behind parallel_for.
//
// A KernelTeam is a fixed set of worker threads with one job slot. The
// global kernel pool owns one team and every multi-participant
// PoolShard owns its own. A dispatch claims the team, writes the slot
// (the body, the range, the grain and the chunk count), bumps the flag
// of each worker it needs, runs the last chunk itself and then waits on
// a completion count. Nothing is queued and nothing is allocated: the
// slot, the flags and the per-worker exception slots live as long as
// the team, so a multi-threaded dispatch is heap-free.
//
// Idle workers spin on their flag for kTeamSpinSeconds, then park on it
// (std::atomic<>::wait); the dispatching caller waits on the completion
// count the same way. The spin window covers the serial gaps between
// the fork-joins of one training step, so a step's dispatches find
// their workers awake; past it, an idle team costs no CPU.
//
// A team runs one job at a time. A dispatch that finds it busy (two
// threads dispatching on the global pool at once; a shard's team has
// one dispatching thread, the shard's own) does not wait: parallel_for
// runs that range inline on its caller, as it runs a nested dispatch.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <string_view>
#include <thread>

#include "hpc/parallel_for.hpp"

namespace geonas::obs {
class MetricsRegistry;
}  // namespace geonas::obs

namespace geonas::hpc {

/// Process-wide worker warm-up hook. When set, every KernelTeam worker
/// invokes it once at thread start, BEFORE it takes any chunk — so by the
/// time a dispatched chunk runs on a worker, the warm-up has completed on
/// that thread. Kernel layers use this to pre-reserve thread_local
/// scratch (GEMM pack buffers) so a worker's first dispatch allocates
/// exactly what steady-state dispatches do: nothing. The hook must be
/// thread-safe and must not throw; pass nullptr to clear. Workers
/// spawned before the hook is set never run it — register from a static
/// initializer (teams are created lazily, after static init).
using WorkerWarmupFn = void (*)();
void set_worker_warmup(WorkerWarmupFn fn) noexcept;

/// How long an idle worker (or a caller waiting on its workers) spins
/// before it parks. Sized from the gaps between consecutive dispatches
/// of a Table-II winner training step at 4 kernel threads (DESIGN.md
/// "Kernel layer"; the longest measured was 0.86 ms), so a step's
/// workers do not park mid-step, while a team left idle parks within
/// this window.
inline constexpr double kTeamSpinSeconds = 1e-3;

/// True while the calling thread runs a chunk of a dispatched
/// parallel_for (worker and dispatching caller alike).
[[nodiscard]] bool in_kernel_chunk() noexcept;

/// Marks the current thread as running a dispatched chunk for the
/// scope's duration, so nested parallel_for calls run inline; restores
/// the previous mark afterwards.
class ChunkScope {
 public:
  ChunkScope() noexcept;
  ~ChunkScope();

  ChunkScope(const ChunkScope&) = delete;
  ChunkScope& operator=(const ChunkScope&) = delete;

 private:
  bool previous_;
};

class KernelTeam {
 public:
  /// Where a job's chunks report their timings; a null registry
  /// disables them.
  struct ChunkMetrics {
    obs::MetricsRegistry* registry = nullptr;
    std::string_view chunk_seconds;
    std::string_view worker_busy_seconds;
  };

  /// Starts `workers` (>= 1) threads.
  explicit KernelTeam(std::size_t workers);
  /// Wakes and joins every worker. No job may be running.
  ~KernelTeam();

  KernelTeam(const KernelTeam&) = delete;
  KernelTeam& operator=(const KernelTeam&) = delete;

  [[nodiscard]] std::size_t workers() const noexcept { return size_; }

  /// Claims the team for one run(); false when another dispatch holds
  /// it.
  [[nodiscard]] bool try_acquire() noexcept;

  /// Runs body over [begin, end) split into `chunks` near-equal chunks
  /// of whole grains (the last absorbs the remainder), with
  /// 2 <= chunks <= workers() + 1: chunk c < chunks - 1 on worker c, the
  /// last chunk on the calling thread. Returns once every chunk has
  /// finished, then rethrows the first exception (the caller's chunk
  /// first, then by chunk index). Requires a successful try_acquire()
  /// and releases the team.
  void run(std::size_t begin, std::size_t end, std::size_t grain,
           std::size_t chunks, KernelBody body, const ChunkMetrics& metrics);

 private:
  struct Worker;

  void worker_loop(std::size_t index);
  void stop_and_join() noexcept;
  void run_chunk(std::size_t chunk, std::exception_ptr& error,
                 bool on_worker);

  // The job slot: written by the dispatcher before it bumps the worker
  // flags, read by the workers it woke, rewritten only after they all
  // signalled completion.
  struct Job {
    const KernelBody* body = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    std::size_t chunks = 0;
    ChunkMetrics metrics;
  };

  std::size_t size_;
  Job job_;
  std::atomic<std::uint32_t> pending_{0};  // worker chunks still running
  std::atomic<bool> busy_{false};
  std::atomic<bool> stopping_{false};
  std::unique_ptr<Worker[]> workers_;  // last: their threads use the above
};

}  // namespace geonas::hpc
