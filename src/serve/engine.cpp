#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace geonas::serve {

ServeEngine::Stream::Stream(FrozenPlan p)
    : plan(std::move(p)),
      batch_input(plan.max_batch(), plan.steps(), plan.input_features()) {}

ServeEngine::ServeEngine(FrozenPlan plan, ServeConfig config)
    : steps_(plan.steps()),
      in_features_(plan.input_features()),
      out_features_(plan.output_features()),
      max_batch_(plan.max_batch()),
      cfg_(config) {
  if (cfg_.queue_capacity == 0) {
    throw std::invalid_argument("ServeEngine: queue_capacity must be > 0");
  }
  const std::size_t n = std::max<std::size_t>(cfg_.streams, 1);
  stream_states_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stream_states_.push_back(std::make_unique<Stream>(
        i + 1 < n ? plan.clone_stream() : std::move(plan)));
  }
  // Pre-register the serve instruments so telemetry.json shows the
  // section before the first request (no-op without a registry).
  if (obs::MetricsRegistry* reg = obs::registry()) {
    reg->counter("serve.requests");
    reg->counter("serve.batches");
    reg->counter("serve.rejected");
    reg->counter("serve.rejected_nonfinite");
    reg->histogram("serve.queue_wait_seconds");
    reg->histogram("serve.batch_size");
    reg->histogram("serve.e2e_seconds");
  }
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Stream* stream = stream_states_[i].get();
    shards_.push_back(std::make_unique<hpc::PoolShard>(
        "serve.stream" + std::to_string(i), 1,
        [this, stream] { stream_loop(*stream); }));
  }
}

ServeEngine::~ServeEngine() { shutdown(); }

std::future<Forecast> ServeEngine::submit(std::span<const double> window) {
  if (window.size() != steps_ * in_features_) {
    if (obs::MetricsRegistry* reg = obs::registry()) {
      reg->counter("serve.rejected").add();
    }
    throw std::invalid_argument(
        "ServeEngine::submit: window has " + std::to_string(window.size()) +
        " values, expected steps * input_features = " +
        std::to_string(steps_) + " * " + std::to_string(in_features_) + " = " +
        std::to_string(steps_ * in_features_));
  }
  const auto bad = std::find_if(window.begin(), window.end(),
                                [](double v) { return !std::isfinite(v); });
  if (bad != window.end()) {
    if (obs::MetricsRegistry* reg = obs::registry()) {
      reg->counter("serve.rejected").add();
      reg->counter("serve.rejected_nonfinite").add();
    }
    throw std::invalid_argument(
        "ServeEngine::submit: window value at index " +
        std::to_string(bad - window.begin()) + " is " + std::to_string(*bad) +
        "; forecasts need finite inputs");
  }
  Request req;
  req.input.assign(window.begin(), window.end());
  req.submit_time = obs::monotonic_seconds();
  std::future<Forecast> fut = req.promise.get_future();
  {
    core::MutexLock lock(mutex_);
    while (!stopping_ && queue_.size() >= cfg_.queue_capacity) {
      not_full_.wait(lock.native());
    }
    if (stopping_) {
      if (obs::MetricsRegistry* reg = obs::registry()) {
        reg->counter("serve.rejected").add();
      }
      throw std::runtime_error("ServeEngine::submit after shutdown");
    }
    queue_.push_back(std::move(req));
  }
  not_empty_.notify_one();
  return fut;
}

void ServeEngine::shutdown() {
  {
    core::MutexLock lock(mutex_);
    if (stopping_) return;  // idempotent; streams already draining/joined
    stopping_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  // Drain protocol: each stream exits only once the queue is empty AND
  // stopping_ is set, so joining the streams guarantees every accepted
  // request was answered before shutdown() returns. A stream's exception
  // is dropped: the promises of its batch are already broken.
  for (const auto& shard : shards_) (void)shard->join();
}

std::size_t ServeEngine::queue_depth() const {
  core::MutexLock lock(mutex_);
  return queue_.size();
}

void ServeEngine::stream_loop(Stream& stream) {
  std::vector<Request> batch;
  for (;;) {
    batch.clear();
    {
      core::MutexLock lock(mutex_);
      while (queue_.empty() && !stopping_) {
        not_empty_.wait(lock.native());
      }
      if (queue_.empty()) {
        return;  // stopping_ && drained: exit protocol (see shutdown)
      }
      // Coalesce: wait up to max_delay for the batch to fill. Skipped
      // when already full, when flushing is immediate, or during
      // shutdown (drain as fast as possible).
      if (queue_.size() < max_batch_ && cfg_.max_delay_seconds > 0.0 &&
          !stopping_) {
        const double deadline =
            obs::monotonic_seconds() + cfg_.max_delay_seconds;
        while (queue_.size() < max_batch_ && !stopping_) {
          if (!obs::wait_until_deadline(not_empty_, lock.native(),
                                        deadline)) {
            break;  // deadline hit: flush the partial batch
          }
        }
      }
      const std::size_t take = std::min(queue_.size(), max_batch_);
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    not_full_.notify_all();
    run_batch(stream, batch);
  }
}

void ServeEngine::run_batch(Stream& stream, std::vector<Request>& batch) {
  const std::size_t b = batch.size();
  const double batch_start = obs::monotonic_seconds();

  stream.batch_input.ensure_shape(b, steps_, in_features_);
  double* gathered = stream.batch_input.flat().data();
  const std::size_t window_len = steps_ * in_features_;
  for (std::size_t i = 0; i < b; ++i) {
    std::copy(batch[i].input.begin(), batch[i].input.end(),
              gathered + i * window_len);
  }

  const Tensor3& out = stream.plan.run(stream.batch_input);
  const std::size_t forecast_len = steps_ * out_features_;
  const double* results = out.flat().data();
  for (std::size_t i = 0; i < b; ++i) {
    batch[i].promise.set_value(Forecast(results + i * forecast_len,
                                        results + (i + 1) * forecast_len));
  }

  // Metrics after fulfillment, outside mutex_ (leaf-lock discipline:
  // obs instruments take their own registry lock on lookup).
  if (obs::MetricsRegistry* reg = obs::registry()) {
    const double done = obs::monotonic_seconds();
    obs::Histogram& queue_wait = reg->histogram("serve.queue_wait_seconds");
    obs::Histogram& e2e = reg->histogram("serve.e2e_seconds");
    for (const Request& req : batch) {
      queue_wait.observe(batch_start - req.submit_time);
      e2e.observe(done - req.submit_time);
    }
    reg->histogram("serve.batch_size").observe(static_cast<double>(b));
    reg->counter("serve.requests").add(b);
    reg->counter("serve.batches").add();
  }
}

}  // namespace geonas::serve
