// Fixtures for campaigns whose completions tie. Every evaluation lasts
// exactly 60 s and nothing else takes time, so each round of launches
// finishes at one instant and only the (time, seq) order can tell its
// evaluations apart. The reward is a pure function of the eval seed, so
// a completed evaluation's reward names the eval index that produced it.
#pragma once

#include <cstdint>

#include "hpc/cluster_sim.hpp"
#include "hpc/evaluator.hpp"
#include "tensor/random.hpp"

namespace geonas::hpc {

class TiedDurationEvaluator final : public ArchitectureEvaluator {
 public:
  [[nodiscard]] static double reward_for(std::uint64_t eval_seed) {
    return static_cast<double>(eval_seed >> 11) * 0x1.0p-53;
  }
  [[nodiscard]] EvalOutcome evaluate(const searchspace::Architecture&,
                                     std::uint64_t eval_seed) override {
    return {.reward = reward_for(eval_seed), .duration_seconds = 60.0,
            .params = 1};
  }
  [[nodiscard]] bool thread_safe() const override { return true; }
};

/// 5 nodes for 600 s with no coordinator service and no launch overhead:
/// ten rounds of five completions tied at 60 s, 120 s, ..., 600 s.
inline ClusterConfig tied_cluster() {
  ClusterConfig cfg;
  cfg.nodes = 5;
  cfg.wall_time_seconds = 600.0;
  cfg.coordinator_service = 0.0;
  cfg.launch_overhead_mean = 0.0;
  return cfg;
}

/// The reward TiedDurationEvaluator reports for eval index `index`.
inline double tied_reward(const ClusterConfig& config, std::uint64_t index) {
  return TiedDurationEvaluator::reward_for(hash_combine(config.seed, index));
}

}  // namespace geonas::hpc
