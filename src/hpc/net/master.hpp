// NetMaster: the real multi-process campaign coordinator.
//
// NetMaster is the asynchronous campaign core (hpc/async_campaign.hpp)
// plus sockets. The core owns every rule that decides the trajectory;
// the master accepts workers, ships each launch to an idle one, hands
// results back to the core and pops what the core finds admissible.
// Workers are pure evaluators (evaluate(arch, eval_seed) is
// deterministic), so arrival order, worker count, joins, deaths and
// re-dispatches change only real time: a campaign matches simulate_async
// with the same ClusterConfig bitwise. Checkpoints (GEONASNC v2) are the
// core's block plus the master's three transport counters, so a paused
// or SIGKILLed campaign resumes to the identical result.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "hpc/cluster_sim.hpp"
#include "search/search_method.hpp"

namespace geonas::hpc::net {

struct MasterOptions {
  ClusterConfig cluster;
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back via NetMaster::port().
  std::uint16_t port = 0;

  /// Campaign checkpoint file; empty disables checkpointing.
  std::string checkpoint_path;
  /// Rewrite the checkpoint every N completed evaluations (0 = only at
  /// stop/completion).
  std::size_t checkpoint_every = 0;
  /// Load checkpoint_path before starting (validates method + config).
  bool resume = false;

  /// Pause the campaign after this many completed evaluations: write a
  /// checkpoint, shut workers down, and return with stopped_early set.
  /// 0 = run the full simulated wall time. The pause point is a
  /// deterministic function of the campaign config — the hook the
  /// resume tests are built on.
  std::size_t stop_after_evaluations = 0;

  /// Abort (throw) when the campaign exceeds this much real wall-clock
  /// time — a hang guard for tests. 0 = unlimited.
  double real_time_limit_seconds = 0.0;
  /// Send a liveness heartbeat to every idle worker this often (real
  /// seconds).
  double heartbeat_seconds = 5.0;
  int poll_timeout_ms = 50;
};

struct MasterResult {
  SimResult sim;                    // the oracle-comparable campaign result
  std::size_t workers_joined = 0;   // hello handshakes completed
  std::size_t worker_deaths = 0;    // joined connections that died
  std::size_t redispatches = 0;     // tasks reassigned after a death
  bool stopped_early = false;       // stop_after_evaluations/request_stop
};

class NetMaster {
 public:
  /// Binds the listener immediately (so port() is valid before run()).
  explicit NetMaster(MasterOptions options);
  ~NetMaster();
  NetMaster(const NetMaster&) = delete;
  NetMaster& operator=(const NetMaster&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Drives the campaign to completion (or pause). Blocks; single
  /// caller. Throws on configuration errors, checkpoint mismatches, or
  /// the real-time limit.
  [[nodiscard]] MasterResult run(search::SearchMethod& method);

  /// Asks a running campaign to pause at the next deterministic point
  /// (checkpoint + worker shutdown). Safe from any thread.
  void request_stop() noexcept { stop_requested_.store(true); }

  /// Completed evaluations so far. Safe from any thread (the kill tests
  /// watch this to time their SIGKILL mid-campaign).
  [[nodiscard]] std::uint64_t evaluations_completed() const noexcept {
    return evals_completed_.load();
  }

 private:
  struct Impl;
  Impl* impl_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> evals_completed_{0};
};

}  // namespace geonas::hpc::net
