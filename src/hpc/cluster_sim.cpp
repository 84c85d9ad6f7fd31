#include "hpc/cluster_sim.hpp"

#include <algorithm>
#include <set>

#include "hpc/async_campaign.hpp"
#include "tensor/random.hpp"
#include "tensor/stats.hpp"

namespace geonas::hpc {

namespace {
/// Agent-side gradient computation time per RL round (s).
constexpr double kRlGradientTime = 2.0;
/// All-reduce latency per RL round (s).
constexpr double kRlAllreduceTime = 0.5;
}  // namespace

std::pair<std::vector<double>, std::vector<double>>
SimResult::reward_trajectory(std::size_t window) const {
  std::vector<double> times(evals.size());
  std::vector<double> rewards(evals.size());
  for (std::size_t i = 0; i < evals.size(); ++i) {
    times[i] = evals[i].completed_at;
    rewards[i] = evals[i].reward;
  }
  return {std::move(times), moving_average(rewards, window)};
}

std::vector<double> SimResult::best_so_far() const {
  std::vector<double> best(evals.size());
  double cur = -1e300;
  for (std::size_t i = 0; i < evals.size(); ++i) {
    cur = std::max(cur, evals[i].reward);
    best[i] = cur;
  }
  return best;
}

std::size_t SimResult::unique_high_performers(double threshold) const {
  std::set<std::string> unique;
  for (const auto& e : evals) {
    if (e.reward > threshold) unique.insert(e.arch_key);
  }
  return unique.size();
}

std::vector<std::size_t> SimResult::unique_high_performer_curve(
    double threshold) const {
  std::vector<std::size_t> curve(evals.size());
  std::set<std::string> unique;
  for (std::size_t i = 0; i < evals.size(); ++i) {
    if (evals[i].reward > threshold) unique.insert(evals[i].arch_key);
    curve[i] = unique.size();
  }
  return curve;
}

SimResult simulate_async(search::SearchMethod& method,
                         ArchitectureEvaluator& evaluator,
                         const ClusterConfig& config) {
  // The in-process source: every launch is evaluated the moment it is
  // made, in seq order, so each pop is admissible as soon as it is next.
  AsyncCampaign campaign(method, config);
  campaign.start();
  do {
    while (const AsyncCampaign::Launch* l = campaign.take_launch()) {
      campaign.apply_outcome(*l, evaluator.evaluate(l->arch, l->eval_seed));
    }
  } while (campaign.try_pop());
  SimResult result = std::move(campaign).result();
  export_sim_telemetry("sim.async." + method.name(), result);
  return result;
}

SimResult simulate_rl(const searchspace::StackedLSTMSpace& space,
                      const search::PPOConfig& ppo,
                      ArchitectureEvaluator& evaluator,
                      const ClusterConfig& config) {
  const ThetaPartition part = rl_partition(config.nodes);
  UtilizationTracker tracker(part.total_nodes, config.wall_time_seconds);
  Rng rng(hash_combine(config.seed, 0xAB5ULL));

  std::vector<search::PPOAgent> agents;
  agents.reserve(part.agents);
  for (std::size_t a = 0; a < part.agents; ++a) {
    agents.emplace_back(space, ppo, static_cast<std::uint64_t>(a));
  }

  SimResult result;
  std::uint64_t eval_counter = 0;
  double t = 0.0;

  while (t < config.wall_time_seconds) {
    // One synchronous round: every worker of every agent evaluates one
    // policy sample. The batch size b equals workers-per-agent.
    double round_max_completion = t;
    std::vector<std::vector<search::PPOAgent::Sample>> batches(part.agents);
    bool any_counted = false;

    for (std::size_t a = 0; a < part.agents; ++a) {
      for (std::size_t w = 0; w < part.workers_per_agent; ++w) {
        const double overhead =
            config.launch_overhead_mean > 0.0
                ? rng.exponential(1.0 / config.launch_overhead_mean)
                : 0.0;
        const double start = t + config.coordinator_service + overhead;
        if (start >= config.wall_time_seconds) continue;
        searchspace::Architecture arch = agents[a].ask();
        const EvalOutcome outcome =
            evaluator.evaluate(arch, hash_combine(config.seed, eval_counter++));
        const DrawnFate fate = draw_fate(config.failures, rng);
        const auto [busy_end, resume_at] = busy_span(
            config.failures, fate, start, outcome.duration_seconds);
        tracker.add_busy(start, busy_end);
        // The synchronous barrier gates on every worker: a straggler cut
        // late holds the whole round, and a crashed node must restart
        // before the next round can use it.
        round_max_completion = std::max(round_max_completion, resume_at);
        if (busy_end <= config.wall_time_seconds) {
          if (fate.kind == EvalFate::kOk) {
            result.evals.push_back({busy_end, outcome.reward,
                                    outcome.duration_seconds, outcome.params,
                                    arch.key()});
            batches[a].push_back({std::move(arch), outcome.reward});
            any_counted = true;
          } else {
            // A failed evaluation shrinks (or empties) its agent's batch;
            // an agent whose whole batch died contributes no gradient
            // this round, and the all-reduce proceeds over the survivors.
            count_fate(result.failures, fate.kind);
          }
        }
      }
    }
    if (!any_counted) break;  // the wall cut (or failures ate) the round

    // Intra-agent barrier happened implicitly (batch collection); now the
    // inter-agent synchronous gradient all-reduce (paper §III-B2).
    const double grad_start = round_max_completion;
    const double grad_end = grad_start + kRlGradientTime;
    for (std::size_t a = 0; a < part.agents; ++a) {
      // Agent nodes are busy only while computing gradients.
      tracker.add_busy(grad_start, grad_end);
    }
    std::vector<std::vector<Matrix>> grads;
    grads.reserve(part.agents);
    for (std::size_t a = 0; a < part.agents; ++a) {
      if (!batches[a].empty()) {
        grads.push_back(agents[a].compute_gradient(batches[a]));
      }
    }
    if (!grads.empty()) {
      const auto mean_grad = search::all_reduce_mean_gradients(grads);
      for (auto& agent : agents) agent.apply_gradient(mean_grad);
    }
    t = grad_end + kRlAllreduceTime;
    ++result.rounds;
  }

  // Stable: evaluations completing at one instant keep eval-index order.
  std::ranges::stable_sort(result.evals, {}, &CompletedEval::completed_at);
  result.utilization = tracker.utilization_auc();
  result.busy_curve = tracker.busy_fraction_curve(kCurveDt);
  export_sim_telemetry("sim.rl", result);
  return result;
}

}  // namespace geonas::hpc
