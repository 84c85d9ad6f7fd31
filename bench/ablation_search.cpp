// Ablation study: the design choices behind the AE configuration.
//
// Not a paper table — DESIGN.md calls these out as the knobs worth
// sweeping: AE population size and tournament sample size (the paper fixes
// 100/10 without justification), the effect of disabling skip connections
// in the search space, and RL batch synchronization cost vs agent count.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace geonas;
  const auto setup = core::ExperimentSetup::from_env();
  bench::print_banner("Ablation", "AE hyperparameters and space variants",
                      setup);

  const searchspace::StackedLSTMSpace space;
  core::SurrogateEvaluator oracle(space);
  const std::uint64_t seed = 99;

  auto final_ma = [](const hpc::SimResult& run) {
    const auto [t, ma] = run.reward_trajectory(100);
    return ma.empty() ? 0.0 : ma.back();
  };

  // (1) Population / sample-size sweep (paper default: 100 / 10).
  std::printf("(1) AE population and tournament sample size (128 nodes):\n");
  core::TextTable pop_tab({"population", "sample", "final MA-100 reward",
                           "best reward", "evaluations"});
  for (std::size_t population : {25UL, 100UL, 400UL}) {
    for (std::size_t sample : {2UL, 10UL, 25UL}) {
      if (sample > population) continue;
      search::AgingEvolution ae(
          space, {.population_size = population, .sample_size = sample,
                  .seed = seed});
      const hpc::SimResult run =
          simulate_async(ae, oracle, bench::paper_cluster(128, seed));
      double best = -1e300;
      for (const auto& e : run.evals) best = std::max(best, e.reward);
      pop_tab.add_row({core::TextTable::integer(population),
                       core::TextTable::integer(sample),
                       core::TextTable::num(final_ma(run)),
                       core::TextTable::num(best),
                       core::TextTable::integer(run.num_evaluations())});
    }
  }
  std::printf("%s\n", pop_tab.to_string().c_str());

  // (1b) Mutation-only (the paper's choice) vs crossover-augmented AE.
  std::printf("(1b) crossover ablation (paper: mutations without "
              "crossovers):\n");
  core::TextTable xover_tab({"crossover prob", "final MA-100 reward",
                             "unique > 0.96"});
  for (double prob : {0.0, 0.25, 0.75}) {
    search::AgingEvolution ae(space, {.population_size = 100,
                                      .sample_size = 10,
                                      .crossover_prob = prob, .seed = seed});
    const hpc::SimResult run =
        simulate_async(ae, oracle, bench::paper_cluster(128, seed + 7));
    xover_tab.add_row({core::TextTable::num(prob, 2),
                       core::TextTable::num(final_ma(run)),
                       core::TextTable::integer(
                           run.unique_high_performers(0.96))});
  }
  std::printf("%s\n", xover_tab.to_string().c_str());

  // (2) Skip connections on/off in the search space.
  std::printf("(2) search space without skip connections:\n");
  searchspace::SpaceConfig no_skip_cfg;
  no_skip_cfg.skip_depth = 0;
  const searchspace::StackedLSTMSpace no_skip(no_skip_cfg);
  core::SurrogateEvaluator no_skip_oracle(no_skip);
  search::AgingEvolution ae_full(space, bench::paper_ae_config(seed));
  search::AgingEvolution ae_no_skip(no_skip, bench::paper_ae_config(seed));
  const hpc::SimResult full_run =
      simulate_async(ae_full, oracle, bench::paper_cluster(128, seed + 1));
  const hpc::SimResult no_skip_run = simulate_async(
      ae_no_skip, no_skip_oracle, bench::paper_cluster(128, seed + 1));
  core::TextTable skip_tab({"space", "genes", "cardinality",
                            "final MA-100 reward"});
  skip_tab.add_row({"with skips (paper)",
                    core::TextTable::integer(space.num_genes()),
                    core::TextTable::integer(space.cardinality()),
                    core::TextTable::num(final_ma(full_run))});
  skip_tab.add_row({"no skips",
                    core::TextTable::integer(no_skip.num_genes()),
                    core::TextTable::integer(no_skip.cardinality()),
                    core::TextTable::num(final_ma(no_skip_run))});
  std::printf("%s\n", skip_tab.to_string().c_str());

  // (2b) The 7-op LSTM list behind the paper's stated cardinality
  // (8,605,184 = 7^5 * 2^9): width 48 added to the listed operations.
  std::printf("(2b) 7-op LSTM operation list (adds width 48):\n");
  searchspace::SpaceConfig seven_cfg;
  seven_cfg.operations = {{0}, {16}, {32}, {48}, {64}, {80}, {96}};
  const searchspace::StackedLSTMSpace seven(seven_cfg);
  core::SurrogateEvaluator seven_oracle(seven);
  search::AgingEvolution ae_seven(seven, bench::paper_ae_config(seed));
  const hpc::SimResult seven_run = simulate_async(
      ae_seven, seven_oracle, bench::paper_cluster(128, seed + 3));
  double seven_best = -1e300;
  std::string seven_key;
  for (const auto& e : seven_run.evals) {
    if (e.reward > seven_best) {
      seven_best = e.reward;
      seven_key = e.arch_key;
    }
  }
  std::printf("  cardinality %llu, %zu evaluations, final MA %.3f\n",
              static_cast<unsigned long long>(seven.cardinality()),
              seven_run.num_evaluations(), final_ma(seven_run));
  std::printf("  best architecture:\n%s\n",
              seven.describe(searchspace::Architecture::from_key(seven_key))
                  .c_str());

  // (3) RL round anatomy: where the idle time comes from.
  std::printf("(3) RL synchronization anatomy (128 nodes):\n");
  const hpc::SimResult rl_run = simulate_rl(
      space, {.seed = seed}, oracle, bench::paper_cluster(128, seed + 2));
  const auto part = hpc::rl_partition(128);
  std::printf(
      "  agents=%zu workers/agent=%zu idle nodes=%zu rounds=%zu "
      "utilization=%.3f evaluations=%zu\n",
      part.agents, part.workers_per_agent, part.idle_nodes, rl_run.rounds,
      rl_run.utilization, rl_run.num_evaluations());
  std::printf(
      "  (every round waits for the slowest of %zu concurrent trainings —\n"
      "   with lognormal durations the max/mean ratio alone caps "
      "utilization near 0.5)\n\n",
      part.workers);

  const bool shape_holds = final_ma(full_run) > final_ma(no_skip_run) - 0.02 &&
                           rl_run.utilization < 0.7;
  std::printf("shape check: %s\n", shape_holds ? "PASS" : "MISMATCH");
  return shape_holds ? 0 : 1;
}
