// ServeEngine: in-process, micro-batching inference over a FrozenPlan.
//
// Forecast requests for the same trained model arrive one window at a
// time (a downstream consumer asking "next K weeks of coefficients"),
// but the plan's batched GEMMs amortize weight traffic across rows —
// one batch-32 pass costs far less than 32 batch-1 passes. The engine
// closes that gap with dynamic micro-batching: submit() enqueues onto a
// bounded MPSC queue, and each of N serving streams takes up to
// max_batch requests per pass, waiting at most max_delay_seconds for
// stragglers before flushing (the classic latency/throughput knob).
//
// Each stream owns a FrozenPlan clone (a private network copy) and runs
// on a one-participant hpc::PoolShard ("serve.stream<i>"), so its
// kernels run inline on its own thread and concurrent streams never
// contend for a kernel team; the plan's per-example bitwise
// independence makes coalescing transparent — a request's forecast is
// identical whether it ran alone or packed into a full batch.
//
// Lock hierarchy (DESIGN.md "Concurrency contracts"): the engine's
// mutex_ is a leaf. It is never held across a plan run, a promise
// fulfillment, or an obs call — streams move requests out under the
// lock and do all work after releasing it.
//
// Telemetry (when an obs registry is installed): serve.queue_wait_seconds,
// serve.batch_size and serve.e2e_seconds histograms plus serve.requests /
// serve.batches / serve.rejected counters (serve.rejected_nonfinite
// breaks out the NaN/inf windows among the rejections), exported through
// telemetry.json like every other subsystem.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/thread_annotations.hpp"
#include "hpc/thread_pool.hpp"
#include "serve/frozen_plan.hpp"

namespace geonas::serve {

struct ServeConfig {
  /// Serving streams (each with its own plan clone and thread).
  std::size_t streams = 2;
  /// Wait at most this long for a batch to fill before flushing a
  /// partial one. 0 flushes immediately with whatever is queued.
  double max_delay_seconds = 0.0005;
  /// Bound on queued-but-unclaimed requests; submit() blocks when full
  /// (backpressure, never unbounded memory).
  std::size_t queue_capacity = 1024;
};

/// One forecast: the plan's output for one window, flattened
/// [steps * output_features], time-major like Tensor3.
using Forecast = std::vector<double>;

class ServeEngine {
 public:
  /// Takes a stream-0 plan by value; streams 1..N-1 are clone_stream()
  /// copies. The engine's batch ceiling is plan.max_batch().
  ServeEngine(FrozenPlan plan, ServeConfig config);

  /// Drains the queue (every accepted request is answered) and joins
  /// all streams.
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Enqueues one window (flattened [steps * input_features]) and
  /// returns a future for its forecast. Copies the window; blocks while
  /// the queue is at capacity. Throws std::invalid_argument on a wrong
  /// size or a NaN/inf value (naming the first bad index) and
  /// std::runtime_error after shutdown().
  std::future<Forecast> submit(std::span<const double> window)
      GEONAS_EXCLUDES(mutex_);

  /// Stops accepting new requests, lets the streams drain everything
  /// already accepted, and joins them. Idempotent; the destructor calls
  /// it. No request is ever dropped or answered twice: a request is
  /// either rejected at submit() or fulfilled exactly once.
  void shutdown() GEONAS_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t streams() const noexcept {
    return stream_states_.size();
  }
  [[nodiscard]] std::size_t max_batch() const noexcept { return max_batch_; }
  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }
  [[nodiscard]] std::size_t input_features() const noexcept {
    return in_features_;
  }
  [[nodiscard]] std::size_t output_features() const noexcept {
    return out_features_;
  }
  /// Instantaneous queued-request sample (stale by the time it returns).
  [[nodiscard]] std::size_t queue_depth() const GEONAS_EXCLUDES(mutex_);

 private:
  struct Request {
    std::vector<double> input;       // [steps * in_features]
    std::promise<Forecast> promise;
    double submit_time = 0.0;        // obs::monotonic_seconds()
  };

  /// Per-stream serving state, touched only by its own stream thread.
  struct Stream {
    explicit Stream(FrozenPlan p);
    FrozenPlan plan;
    Tensor3 batch_input;  // gather buffer, capacity max_batch x steps x in
  };

  void stream_loop(Stream& stream) GEONAS_EXCLUDES(mutex_);
  /// Runs one coalesced batch outside the lock: gather, plan run,
  /// scatter, promise fulfillment, metrics.
  void run_batch(Stream& stream, std::vector<Request>& batch);

  const std::size_t steps_;
  const std::size_t in_features_;
  const std::size_t out_features_;
  const std::size_t max_batch_;
  const ServeConfig cfg_;

  mutable core::Mutex mutex_;
  std::deque<Request> queue_ GEONAS_GUARDED_BY(mutex_);
  bool stopping_ GEONAS_GUARDED_BY(mutex_) = false;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;

  std::vector<std::unique_ptr<Stream>> stream_states_;
  // One shard per stream, running stream_loop. Declared last so
  // destruction joins the stream threads before any member they touch
  // (queue_, cvs, stream_states_) is destroyed.
  std::vector<std::unique_ptr<hpc::PoolShard>> shards_;
};

}  // namespace geonas::serve
