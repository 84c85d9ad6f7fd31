#include "hpc/thread_pool.hpp"

#include <stdexcept>
#include <utility>

#include "hpc/kernel_team.hpp"
#include "obs/metrics.hpp"

namespace geonas::hpc {

namespace {

// The shard whose thread this is; set once, at thread entry.
thread_local PoolShard* t_shard = nullptr;

}  // namespace

PoolShard* current_pool_shard() noexcept { return t_shard; }

PoolShard::PoolShard(std::string name, std::size_t participants,
                     std::function<void()> body)
    : name_(std::move(name)), participants_(participants) {
  if (participants_ == 0) {
    throw std::invalid_argument("PoolShard '" + name_ +
                                "': need at least one participant");
  }
  if (participants_ > 1) {
    team_ = std::make_unique<KernelTeam>(participants_ - 1);
  }
  const std::string prefix = "kernel.shard." + name_ + ".";
  metrics_.dispatches = prefix + "dispatches";
  metrics_.chunks = prefix + "chunks";
  metrics_.queue_depth = prefix + "queue_depth";
  metrics_.chunk_seconds = prefix + "chunk_seconds";
  metrics_.worker_busy_seconds = prefix + "worker_busy_seconds";
  // Registered at zero, so sidecars show the shard section even before
  // its first over-threshold dispatch.
  if (obs::MetricsRegistry* reg = obs::registry()) {
    reg->counter(metrics_.dispatches);
    reg->counter(metrics_.chunks);
    reg->histogram(metrics_.queue_depth);
    reg->histogram(metrics_.chunk_seconds);
    reg->gauge(metrics_.worker_busy_seconds);
  }
  thread_ = std::thread([this, body = std::move(body)] {
    t_shard = this;
    try {
      body();
    } catch (...) {
      error_ = std::current_exception();  // read by join(), after the join
    }
  });
}

PoolShard::~PoolShard() {
  if (thread_.joinable()) thread_.join();
}

std::exception_ptr PoolShard::join() {
  if (thread_.joinable()) thread_.join();
  return std::exchange(error_, nullptr);
}

}  // namespace geonas::hpc
