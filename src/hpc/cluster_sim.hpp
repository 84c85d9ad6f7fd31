// Discrete-event simulator of NAS campaigns on a Theta-like cluster.
//
// Substitute for the paper's 33-512 KNL-node runs (DESIGN.md §1): the
// simulator reproduces the two orchestration patterns whose contrast
// drives every scaling result in the paper —
//
//  * Asynchronous (AE, RS): every node is an independent worker that asks
//    the search method for an architecture through a central coordinator
//    (FIFO service queue, modeling the DeepHyper/Balsam master), evaluates
//    it for the duration the evaluator reports, tells the result back, and
//    immediately asks again. No barriers; utilization stays high. This is
//    the campaign core (async_campaign.hpp), shared with the TCP master;
//    completions at one instant are told in launch order.
//
//  * Synchronous RL: 11 agents x W workers. Each round, every worker of
//    every agent evaluates one policy sample; agents wait for their whole
//    batch (intra-agent barrier), then all agents all-reduce policy
//    gradients (inter-agent barrier) before the next round starts. The
//    slowest evaluation in the whole cluster gates every node — the
//    mechanism behind RL's ~0.5 node utilization (Table III). Ties keep
//    eval-index order here too.
//
// Simulated time is wholly decoupled from wall time: a 3-hour, 512-node
// campaign with tens of thousands of surrogate evaluations replays in
// milliseconds, deterministically for a given seed.
//
// Thread-safety: each simulate_* call owns its entire event state
// (queues, trackers, RNG, agents), so concurrent campaigns may run from
// different threads as long as each has its own SearchMethod and the
// shared evaluator advertises thread_safe(). Determinism is per-call:
// a campaign's results depend only on its own config.seed, never on
// what runs beside it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hpc/evaluator.hpp"
#include "hpc/theta.hpp"
#include "hpc/utilization.hpp"
#include "search/ppo.hpp"
#include "search/search_method.hpp"

namespace geonas::hpc {

/// Seeded worker-failure model (paper context: 3-hour campaigns on up to
/// 512 KNL nodes, where lost and heterogeneous evaluations are the norm —
/// the asynchronous design exists to tolerate them). All rates default to
/// zero; a config with every rate at zero consumes exactly the same RNG
/// draw sequence as the pre-failure-model simulator, so legacy
/// trajectories reproduce bitwise.
struct FailureModel {
  /// Per-evaluation probability the worker node crashes mid-evaluation:
  /// the evaluation is lost (never told), the node is busy until the
  /// crash instant (uniform fraction of the evaluation) and then idles
  /// for `restart_penalty_seconds` before rejoining.
  double crash_prob = 0.0;
  double restart_penalty_seconds = 120.0;
  /// Per-evaluation probability the evaluation straggles: the coordinator
  /// cuts it at `straggler_timeout_multiple` x its expected duration and
  /// discards the result (the node was busy until the cut).
  double straggler_prob = 0.0;
  double straggler_timeout_multiple = 3.0;
  /// Per-evaluation probability the finished result is lost in transit:
  /// the node was busy for the full duration but the search method never
  /// hears about it.
  double lost_result_prob = 0.0;

  [[nodiscard]] bool enabled() const noexcept {
    return crash_prob > 0.0 || straggler_prob > 0.0 ||
           lost_result_prob > 0.0;
  }
};

struct ClusterConfig {
  std::size_t nodes = 128;
  double wall_time_seconds = 3.0 * 3600.0;  // paper: 3 h per search
  /// Central coordinator service time per architecture request (s).
  double coordinator_service = 0.15;
  /// Mean per-evaluation launch/staging overhead on the worker (s),
  /// exponentially distributed.
  double launch_overhead_mean = 12.0;
  /// Seeded fault injection (defaults: no failures).
  FailureModel failures;
  std::uint64_t seed = 7;
};

struct CompletedEval {
  double completed_at = 0.0;  // simulated seconds
  double reward = 0.0;
  double duration = 0.0;
  std::size_t params = 0;
  std::string arch_key;
};

/// Failures observed within the wall time (all zero when the failure
/// model is disabled).
struct FailureCounts {
  std::size_t worker_crashes = 0;
  std::size_t stragglers_killed = 0;
  std::size_t lost_results = 0;

  [[nodiscard]] std::size_t total() const noexcept {
    return worker_crashes + stragglers_killed + lost_results;
  }
};

struct SimResult {
  std::vector<CompletedEval> evals;  // ordered by completion time
  double utilization = 0.0;          // trapezoidal AUC ratio
  std::vector<double> busy_curve;    // busy fraction sampled every 60 s
  std::size_t rounds = 0;            // RL only
  FailureCounts failures;            // injected-fault accounting

  [[nodiscard]] std::size_t num_evaluations() const noexcept {
    return evals.size();
  }
  /// Window-100 moving average of rewards vs completion time (paper's
  /// search-trajectory metric). Returns {times, averaged rewards}.
  [[nodiscard]] std::pair<std::vector<double>, std::vector<double>>
  reward_trajectory(std::size_t window = 100) const;
  /// Best reward seen up to each completion time.
  [[nodiscard]] std::vector<double> best_so_far() const;
  /// Number of unique architectures with reward > threshold (Fig 8).
  [[nodiscard]] std::size_t unique_high_performers(double threshold) const;
  /// Same, cumulative at each completion time.
  [[nodiscard]] std::vector<std::size_t> unique_high_performer_curve(
      double threshold) const;
};

/// Runs an asynchronous search (AE or RS) on the simulated cluster.
[[nodiscard]] SimResult simulate_async(search::SearchMethod& method,
                                       ArchitectureEvaluator& evaluator,
                                       const ClusterConfig& config);

/// Runs the synchronous multi-agent PPO search. Agents are constructed
/// internally per the Theta partition rules.
[[nodiscard]] SimResult simulate_rl(const searchspace::StackedLSTMSpace& space,
                                    const search::PPOConfig& ppo,
                                    ArchitectureEvaluator& evaluator,
                                    const ClusterConfig& config);

}  // namespace geonas::hpc
