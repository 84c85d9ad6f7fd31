// Scaling study on the simulated Theta cluster.
//
// Reproduces the paper's §IV-D methodology at arbitrary node counts: runs
// AE, RL and RS campaigns of a chosen simulated wall time and reports
// utilization, throughput and search quality. Also demonstrates the real
// shared-memory path: the same aging-evolution search executed by worker
// shards (hpc::PoolShard) with genuinely concurrent evaluations.
//
// Usage: scaling_study [nodes] [minutes] [metrics-out]
// (defaults: 128, 180, no telemetry). With a third argument, the whole
// study runs under a metrics registry and writes a telemetry.json
// sidecar there — including every simulator's busy-fraction curve and
// best-reward timeline as data series.
#include <cstdio>
#include <cstdlib>

#include "core/nas_driver.hpp"
#include "core/surrogate.hpp"
#include "hpc/cluster_sim.hpp"
#include "hpc/parallel_for.hpp"
#include "obs/json_export.hpp"
#include "obs/metrics.hpp"
#include "search/aging_evolution.hpp"
#include "search/random_search.hpp"

int main(int argc, char** argv) {
  using namespace geonas;
  const std::size_t nodes =
      argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : 128;
  const double minutes = argc > 2 ? std::atof(argv[2]) : 180.0;
  const char* metrics_out = argc > 3 ? argv[3] : nullptr;

  obs::MetricsRegistry registry;
  if (metrics_out != nullptr) {
    obs::set_registry(&registry);
    hpc::register_kernel_metrics();
  }

  const searchspace::StackedLSTMSpace space;
  core::SurrogateEvaluator oracle(space);
  hpc::ClusterConfig cluster;
  cluster.nodes = nodes;
  cluster.wall_time_seconds = minutes * 60.0;
  cluster.seed = 11;

  std::printf("simulated Theta campaign: %zu nodes, %.0f minutes\n\n", nodes,
              minutes);

  search::AgingEvolution ae(space, {.population_size = 100, .sample_size = 10,
                                    .seed = 11});
  const hpc::SimResult ae_run = simulate_async(ae, oracle, cluster);
  search::RandomSearch rs(space, 11);
  const hpc::SimResult rs_run = simulate_async(rs, oracle, cluster);
  const hpc::SimResult rl_run =
      simulate_rl(space, {.seed = 11}, oracle, cluster);

  auto report = [](const char* name, const hpc::SimResult& run) {
    const auto [t, ma] = run.reward_trajectory(100);
    double best = -1e300;
    for (const auto& e : run.evals) best = std::max(best, e.reward);
    std::printf(
        "%-3s evaluations=%6zu utilization=%.3f final-MA=%.3f best=%.3f "
        "unique>0.96=%zu\n",
        name, run.num_evaluations(), run.utilization,
        ma.empty() ? 0.0 : ma.back(), best, run.unique_high_performers(0.96));
  };
  report("AE", ae_run);
  report("RS", rs_run);
  report("RL", rl_run);

  // Real shared-memory workers: the asynchronous campaign pattern executed
  // by actual threads (the surrogate stands in for per-node trainings).
  std::printf("\nreal parallel campaign (4 worker shards, 2000 "
              "evaluations):\n");
  search::AgingEvolution ae_local(space, {.population_size = 100,
                                          .sample_size = 10, .seed = 13});
  const core::LocalSearchResult local =
      core::run_local_search_parallel(ae_local, oracle, 2000, 4, 13);
  std::printf("best reward %.3f over %zu evaluations\n", local.best_reward,
              local.history.size());

  if (metrics_out != nullptr) {
    obs::set_registry(nullptr);  // all campaigns joined: quiescent
    obs::write_telemetry_file(registry, metrics_out);
    std::printf("telemetry written to %s\n", metrics_out);
  }
  return 0;
}
