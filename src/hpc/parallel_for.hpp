// Shared kernel-level data parallelism for the dense tensor kernels.
//
// The blocked GEMM/GEMV kernels in src/tensor, the recurrent layers'
// batch-slice passes and the optimizer update split their work across a
// fork-join team ("kernel pool", hpc/kernel_team.hpp). parallel_for is
// the single entry point: callers state the arithmetic cost of the
// whole loop and a team is only engaged when that cost clears a
// threshold, so the many tiny matmuls of a NAS cell evaluation stay
// serial and pay zero dispatch overhead. The process-wide team is
// created lazily, sized to hardware_concurrency by default, and
// reconfigurable at runtime (set_kernel_threads) so trainers and tests
// can pin a thread count. A dispatch allocates nothing: the team's one
// job slot holds the body, the range, the grain and the chunk count.
//
// Pool sharding: a concurrent worker runs on a PoolShard
// (hpc/thread_pool.hpp), which owns the worker's thread and a team of
// its own. A dispatch picks its pool from the calling thread alone: that
// thread's shard, else the global pool. A team runs one job at a time; a
// dispatch that finds the global team busy (two unsharded threads
// dispatching at once) runs its range inline on the caller, as a nested
// dispatch does. A shard's team has one dispatching thread, its own.
//
// Re-entrancy: a parallel_for issued from inside any chunk of a
// dispatched parallel_for (on a team worker or on the dispatching
// caller) runs serially in that chunk. This makes nested kernels (e.g. a
// recurrent layer's batch-slice chunks that each call GEMMs)
// deadlock-free by construction, and keeps the caller's chunk from
// claiming a team whose workers its siblings occupy.
//
// The body is taken by FunctionRef, not std::function: std::function's
// construction heap-allocates for captures beyond the small-buffer
// limit, which would put an allocation on the serial hot path of every
// GEMM. FunctionRef is a non-owning (pointer, thunk) pair — zero
// allocation, valid for the duration of the call only.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace geonas::hpc {

class PoolShard;  // hpc/thread_pool.hpp

/// Non-owning reference to a callable: one void* plus one function
/// pointer, never allocates. The referenced callable must outlive the
/// FunctionRef (always true for parallel_for, which only uses it within
/// the call).
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design
  FunctionRef(F&& fn) noexcept
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(fn)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

using KernelBody = FunctionRef<void(std::size_t, std::size_t)>;

/// Minimum loop cost (in floating-point operations) before parallel_for
/// engages the kernel pool. Below this, thread dispatch costs more than
/// it saves: a 0.4 MFLOP loop (one paper-scale recurrent timestep,
/// batch 32 x 4*units 160 x units 40) stays serial while a 128^3 GEMM
/// (4.2 MFLOP) is split. Recurrent layers state the cost of a whole
/// pass, every timestep at once, so they dispatch once per pass. A
/// fork-join now costs ~1.5 us, but the threshold stays: lowering it
/// would double a training step's dispatches and change the small
/// serving models' dispatch pattern (DESIGN.md "Kernel layer").
inline constexpr double kParallelMinFlops = 1.0e6;

/// Number of participants a kernel-level parallel_for uses: the
/// configured thread count (caller included). Defaults to
/// std::thread::hardware_concurrency(), at least 1.
[[nodiscard]] std::size_t kernel_threads() noexcept;

/// Reconfigures the global kernel pool to `threads` participants (0
/// restores the hardware default). The current team is retired and a
/// new one is created lazily on the next over-threshold parallel_for.
/// Safe to call concurrently with running kernels and with other
/// reconfigurations: kernels already dispatched hold a reference to the
/// retired team and finish on it; the last reference released performs
/// the join, outside the configuration lock. Does not affect PoolShards.
void set_kernel_threads(std::size_t threads);

/// Runs body(lo, hi) over a partition of [begin, end), on the calling
/// thread's shard when it has one, else on the global pool.
///
/// `cost_flops` is the arithmetic cost of the whole range; when it is
/// below kParallelMinFlops, the pool has one participant, or the call is
/// issued from inside a chunk of a dispatched parallel_for, the body
/// runs inline as body(begin, end). Otherwise the range is split into
/// near-equal chunks whose sizes are multiples of `grain` (except the
/// last), one chunk per participant; the caller executes the last chunk
/// itself. When the global team is busy with another caller's dispatch,
/// the body runs inline as one chunk instead.
/// The partition depends only on (range, participant count, grain), so a
/// body that is deterministic per index stays deterministic. The first
/// exception a chunk throws is rethrown after every chunk has finished.
void parallel_for(std::size_t begin, std::size_t end, double cost_flops,
                  std::size_t grain, KernelBody body);

inline void parallel_for(std::size_t begin, std::size_t end,
                         double cost_flops, KernelBody body) {
  parallel_for(begin, end, cost_flops, 1, body);
}

/// The calling thread's shard (null on a thread no shard started).
[[nodiscard]] PoolShard* current_pool_shard() noexcept;

/// Pre-registers the global kernel pool's obs instruments
/// (kernel.dispatches, kernel.chunks, kernel.queue_depth,
/// kernel.chunk_seconds, kernel.worker_busy_seconds) in the installed
/// obs registry at their zero values, so telemetry sidecars always carry
/// the thread-pool section even for campaigns that never clear the
/// dispatch threshold. No-op when no registry is installed. Only
/// over-threshold dispatches are instrumented: under-threshold kernels
/// stay untouched so the serial hot path pays nothing even with metrics
/// enabled. kernel.queue_depth observes 1 for a dispatch that found its
/// team busy (and ran inline) and 0 otherwise.
void register_kernel_metrics();

}  // namespace geonas::hpc
