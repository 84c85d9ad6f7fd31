#include "hpc/kernel_team.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace geonas::hpc {

namespace {

std::atomic<WorkerWarmupFn> g_worker_warmup{nullptr};

// Set while a thread runs a chunk of a dispatched parallel_for, pool
// worker and dispatching caller alike, so nested parallel_for calls run
// inline: a worker would wait on its own busy team, and the caller
// would claim a team whose workers are occupied by its siblings.
thread_local bool t_in_kernel_chunk = false;

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Waits until `flag` differs from `old` and returns its new value:
/// spins for kTeamSpinSeconds, then parks on the flag (the writer
/// notifies after every change).
std::uint32_t await_change(const std::atomic<std::uint32_t>& flag,
                           std::uint32_t old) noexcept {
  std::uint32_t now = flag.load(std::memory_order_acquire);
  if (now != old) return now;
  const obs::StopWatch spin;
  do {
    for (int i = 0; i < 64; ++i) {
      cpu_relax();
      now = flag.load(std::memory_order_acquire);
      if (now != old) return now;
    }
  } while (spin.seconds() < kTeamSpinSeconds);
  for (;;) {
    flag.wait(old, std::memory_order_acquire);
    now = flag.load(std::memory_order_acquire);
    if (now != old) return now;
  }
}

}  // namespace

// One per worker thread, on its own cache line so a worker spinning on
// its flag never shares a line with another worker's.
struct alignas(64) KernelTeam::Worker {
  std::atomic<std::uint32_t> go{0};  // bumped once per job it takes part in
  std::exception_ptr error;          // its chunk's exception, if any
  std::thread thread;
};

void set_worker_warmup(WorkerWarmupFn fn) noexcept {
  g_worker_warmup.store(fn, std::memory_order_release);
}

bool in_kernel_chunk() noexcept { return t_in_kernel_chunk; }

ChunkScope::ChunkScope() noexcept : previous_(t_in_kernel_chunk) {
  t_in_kernel_chunk = true;
}

ChunkScope::~ChunkScope() { t_in_kernel_chunk = previous_; }

KernelTeam::KernelTeam(std::size_t workers) : size_(workers) {
  if (workers == 0) {
    throw std::invalid_argument("KernelTeam: need at least one worker");
  }
  workers_ = std::make_unique<Worker[]>(workers);
  try {
    for (std::size_t w = 0; w < workers; ++w) {
      workers_[w].thread = std::thread([this, w] { worker_loop(w); });
    }
  } catch (...) {
    stop_and_join();  // the threads already started
    throw;
  }
}

KernelTeam::~KernelTeam() { stop_and_join(); }

void KernelTeam::stop_and_join() noexcept {
  stopping_.store(true, std::memory_order_release);
  for (std::size_t w = 0; w < size_; ++w) {
    workers_[w].go.fetch_add(1);
    workers_[w].go.notify_one();
  }
  for (std::size_t w = 0; w < size_; ++w) {
    if (workers_[w].thread.joinable()) workers_[w].thread.join();
  }
}

bool KernelTeam::try_acquire() noexcept {
  bool expected = false;
  return busy_.compare_exchange_strong(expected, true,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed);
}

void KernelTeam::worker_loop(std::size_t index) {
  // Warm thread_local kernel scratch before the first chunk: a completed
  // dispatch therefore implies every participating worker is warm (see
  // set_worker_warmup).
  if (const WorkerWarmupFn warmup =
          g_worker_warmup.load(std::memory_order_acquire)) {
    warmup();
  }
  Worker& self = workers_[index];
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_change(self.go, seen);
    if (stopping_.load(std::memory_order_acquire)) return;
    run_chunk(index, self.error, /*on_worker=*/true);
    if (pending_.fetch_sub(1) == 1) pending_.notify_one();
  }
}

void KernelTeam::run_chunk(std::size_t chunk, std::exception_ptr& error,
                           bool on_worker) {
  // Near-equal chunks in whole grains: the first `extra` chunks take one
  // grain more, and the last chunk ends at `end`, so every index is
  // covered exactly once.
  const Job& job = job_;
  const std::size_t grains = (job.end - job.begin + job.grain - 1) / job.grain;
  const std::size_t per_chunk = grains / job.chunks;
  const std::size_t extra = grains % job.chunks;
  const std::size_t lo =
      job.begin + (chunk * per_chunk + std::min(chunk, extra)) * job.grain;
  const std::size_t hi =
      chunk + 1 == job.chunks
          ? job.end
          : std::min(job.end,
                     lo + (per_chunk + (chunk < extra ? 1 : 0)) * job.grain);

  const obs::StopWatch watch;
  try {
    const ChunkScope scope;
    (*job.body)(lo, hi);
  } catch (...) {
    // Never escapes a worker thread: the caller rethrows it after the
    // join.
    error = std::current_exception();
  }
  if (obs::MetricsRegistry* reg = job.metrics.registry) {
    const double seconds = watch.seconds();
    reg->histogram(job.metrics.chunk_seconds).observe(seconds);
    if (on_worker) reg->gauge(job.metrics.worker_busy_seconds).add(seconds);
  }
}

void KernelTeam::run(std::size_t begin, std::size_t end, std::size_t grain,
                     std::size_t chunks, KernelBody body,
                     const ChunkMetrics& metrics) {
  job_ = {&body, begin, end, grain, chunks, metrics};
  const std::size_t helpers = chunks - 1;
  pending_.store(static_cast<std::uint32_t>(helpers),
                 std::memory_order_relaxed);
  // The flag bumps and the completion count below are sequentially
  // consistent, like the waiter bookkeeping std::atomic<>::wait does
  // before it parks, so a parking thread cannot miss a change.
  for (std::size_t w = 0; w < helpers; ++w) {
    workers_[w].go.fetch_add(1);
    workers_[w].go.notify_one();
  }

  // The caller runs the last chunk, then waits for the workers: they
  // read the job slot and the body's captures in this frame, so they
  // are drained even when the caller's own chunk throws.
  std::exception_ptr error;
  run_chunk(helpers, error, /*on_worker=*/false);
  for (std::uint32_t left = pending_.load(std::memory_order_acquire);
       left != 0;) {
    left = await_change(pending_, left);
  }
  for (std::size_t w = 0; w < helpers; ++w) {
    if (workers_[w].error) {
      if (!error) error = workers_[w].error;
      workers_[w].error = nullptr;
    }
  }
  busy_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

}  // namespace geonas::hpc
