// The two pipeline workloads: emulator-build (the quick-scale Table-II
// path from nothing to a forecast) and nas-campaign (parallel real-
// training NAS over a prepared pipeline).
#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/nas_driver.hpp"
#include "core/pipeline.hpp"
#include "core/surrogate.hpp"
#include "core/training_eval.hpp"
#include "core/window_source.hpp"
#include "e2e.hpp"
#include "hpc/cluster_sim.hpp"
#include "nn/loss.hpp"
#include "nn/trainer.hpp"
#include "pod/pod.hpp"
#include "search/aging_evolution.hpp"
#include "searchspace/space.hpp"

namespace geonas::e2e {
namespace {

constexpr std::uint64_t kCampaignSeed = 2020;  // gives kWinnerKey
constexpr double kMinTestR2 = 0.80;

/// Both pipeline workloads train from fixed seeds, whatever --seed is:
/// training is bitwise deterministic per seed, so the reported R^2 is one
/// number per version of the code and a change to it is a change in
/// model quality, not in the seed. It also fixes the amount of work.
/// nas-campaign's AE seed is fixed for the same reason: every run trains
/// the same 32 architectures.
constexpr std::uint64_t kTrainSeed = 1;
constexpr std::uint64_t kNasMethodSeed = 1;
constexpr std::size_t kNasEvaluations = 32;
constexpr std::size_t kNasWorkers = 4;

core::PipelineConfig pipeline_config(const Options& options) {
  // Always the quick scale, never GEONAS_SCALE: a default-constructed
  // ExperimentSetup carries the paper grid.
  core::PipelineConfig cfg{
      .setup = core::ExperimentSetup::make(core::Scale::kQuick)};
  if (options.smoke) {
    cfg.setup.grid = {9, 18};
    cfg.setup.train_snapshots = 64;
    cfg.setup.total_snapshots = 96;
    cfg.setup.search_epochs = 1;
    cfg.setup.posttrain_epochs = 2;
  }
  return cfg;
}

/// bench::find_best_ae_architecture, with the method wrapped so the
/// search layer's own share can be measured.
searchspace::Architecture find_winner(
    const searchspace::StackedLSTMSpace& space, Result& result) {
  core::SurrogateEvaluator oracle(space);
  search::AgingEvolution ae(space, bench::paper_ae_config(kCampaignSeed));
  TimedMethod method(ae);
  const hpc::SimResult sim = simulate_async(
      method, oracle, bench::paper_cluster(128, kCampaignSeed));
  double best = -1e300;
  std::string best_key;
  for (const auto& e : sim.evals) {
    if (e.reward > best) {
      best = e.reward;
      best_key = e.arch_key;
    }
  }
  result.stages["search.ask_tell"] += method.seconds();
  result.search_evals += sim.evals.size();
  return searchspace::Architecture::from_key(best_key);
}

/// Traced runs only: replays prepare()'s data and POD calls (same
/// chunking, fresh generator so no warm cache) to split its time into
/// generation, fit and projection.
void replay_prepare(const core::PipelineConfig& cfg,
                    const data::LandMask& mask, Result& result) {
  const core::ExperimentSetup& setup = cfg.setup;
  const data::SyntheticSST sst(cfg.sst);
  Matrix train;
  timed(result, "data.generate",
        [&] { train = sst.snapshots(mask, 0, setup.train_snapshots); });
  result.snapshots_generated += setup.train_snapshots;
  pod::POD pod;
  timed(result, "pod.fit", [&] {
    pod.fit(train, {.num_modes = setup.num_modes, .subtract_mean = true});
  });
  constexpr std::size_t kChunk = 64;
  for (std::size_t w0 = 0; w0 < setup.total_snapshots; w0 += kChunk) {
    const std::size_t count = std::min(kChunk, setup.total_snapshots - w0);
    Matrix chunk;
    if (w0 + count <= setup.train_snapshots) {
      chunk = train.slice_cols(w0, w0 + count);
    } else {
      timed(result, "data.generate",
            [&] { chunk = sst.snapshots(mask, w0, count); });
      result.snapshots_generated += count;
    }
    timed(result, "pod.project", [&] { (void)pod.project(chunk); });
  }
}

nn::TrainConfig posttrain_config(const core::ExperimentSetup& setup,
                                 std::uint64_t seed) {
  // bench::posttrain's schedule (2e-3 with step decay), trained from the
  // window view instead of the materialized split.
  return {.epochs = setup.posttrain_epochs,
          .batch_size = 64,
          .learning_rate = 2e-3,
          .lr_step_decay = 0.4,
          .seed = seed};
}

bool all_finite(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

}  // namespace

Result run_emulator_build(const Options& options) {
  Result result;
  result.op = "emulator build";
  const core::PipelineConfig cfg = pipeline_config(options);
  const core::ExperimentSetup& setup = cfg.setup;
  const searchspace::StackedLSTMSpace space;

  // Set-up: the pipeline object (land mask) only; everything that turns
  // the SST record into a forecast is the build.
  const obs::StopWatch run_watch;
  std::optional<core::PODLSTMPipeline> pipeline;
  const double setup_s =
      median_setup_seconds(options, [&] { pipeline.emplace(cfg); });

  const obs::StopWatch build_watch;
  timed(result, "core.prepare", [&] { pipeline->prepare(); });
  searchspace::Architecture arch;
  timed(result, "search.surrogate_campaign",
        [&] { arch = find_winner(space, result); });
  nn::GraphNetwork net = space.build(arch);
  net.init_params(kTrainSeed);
  const core::WindowExampleSource train(pipeline->train_window_view(),
                                        pipeline->split_indices().train);
  const core::WindowExampleSource val(pipeline->train_window_view(),
                                      pipeline->split_indices().val);
  timed(result, "nn.train", [&] {
    (void)nn::Trainer(posttrain_config(setup, kTrainSeed))
        .fit(net, train, &val);
  });
  Matrix forecast;
  Tensor3 leads;
  data::WindowedDataset test;
  timed(result, "core.forecast", [&] {
    forecast = pipeline->forecast_coefficients(net, setup.train_snapshots,
                                               setup.total_snapshots);
    leads = pipeline->lead_predictions(net, setup.train_snapshots,
                                       setup.total_snapshots);
    test = pipeline->windows(setup.train_snapshots, setup.total_snapshots);
  });
  const double test_r2 = pipeline->window_r2(test.y, leads);
  const double build_s = build_watch.seconds();

  result.check("forecast_finite",
               all_finite(forecast.flat()) && std::isfinite(test_r2));
  result.check("winner_key", arch.key() == kWinnerKey);
  if (!options.smoke) result.check("test_r2_floor", test_r2 >= kMinTestR2);
  result.attempted = 1;
  result.failed = result.all_passed() ? 0 : 1;
  result.info["winner"] = arch.key();

  result.metric("setup_s", setup_s, "s");
  result.metric("op_ms", build_s * 1e3, "ms");
  result.metric("ops_per_s", 1.0 / build_s, "1/s");
  result.metric("r2", test_r2, "R2");
  end_measured_phase(result, run_watch);
  // Share of the build inside timed calls; the per-layer split is only
  // trusted (and the traced run only passes) at 90% or more.
  result.coverage = (result.stage("core.prepare") +
                     result.stage("search.surrogate_campaign") +
                     result.stage("nn.train") +
                     result.stage("core.forecast")) /
                    build_s;

  if (options.traced) {
    result.check("span_coverage", result.coverage >= 0.9);
    replay_prepare(cfg, pipeline->mask(), result);
    probe_model(net, setup.window, setup.num_modes, options.seed, result);
  }
  return result;
}

Result run_nas_campaign(const Options& options) {
  Result result;
  result.op = "training evaluation";
  core::PipelineConfig cfg = pipeline_config(options);
  // The campaign trains and validates on the training period only, so the
  // record stops there: prepare() then produces the same windows without
  // generating and projecting the test decades.
  cfg.setup.total_snapshots = cfg.setup.train_snapshots;
  const core::ExperimentSetup& setup = cfg.setup;
  const searchspace::StackedLSTMSpace space;

  // Set-up is one prepare(), too long to repeat within a run.
  const obs::StopWatch run_watch;
  core::PODLSTMPipeline pipeline(cfg);
  const double setup_s =
      timed(result, "core.prepare", [&] { pipeline.prepare(); });

  const core::WindowExampleSource train(pipeline.train_window_view(),
                                        pipeline.split_indices().train);
  const core::WindowExampleSource val(pipeline.train_window_view(),
                                      pipeline.split_indices().val);
  core::TrainingEvaluator trainer(
      space, train, &val,
      nn::TrainConfig{.epochs = setup.search_epochs, .batch_size = 64});
  TimedEvaluator evaluator(trainer, "nn.train");
  search::AgingEvolution ae(
      space, search::AgingEvolutionConfig{
                 .population_size = 100, .sample_size = 10,
                 .seed = kNasMethodSeed});
  TimedMethod method(ae);
  const std::size_t evaluations = options.smoke ? 2 : kNasEvaluations;
  const std::size_t workers = options.smoke ? 2 : kNasWorkers;

  core::LocalSearchResult campaign;
  const double wall = timed(result, "core.local_search", [&] {
    campaign = core::run_local_search_parallel(method, evaluator, evaluations,
                                               workers, kTrainSeed);
  });

  const std::vector<EvalRecord> records = evaluator.records();
  std::vector<double> eval_seconds;
  std::vector<std::string> keys;
  std::size_t finite = 0;
  double busy = 0.0;
  for (const EvalRecord& r : records) {
    eval_seconds.push_back(r.seconds);
    keys.push_back(r.key);
    busy += r.seconds;
    if (std::isfinite(r.reward)) ++finite;
  }
  std::sort(keys.begin(), keys.end());
  std::string joined;
  for (const std::string& k : keys) joined += k + ";";

  result.attempted = evaluations;
  result.failed = evaluations - std::min(evaluations, finite);
  result.check("evaluations_completed",
               campaign.history.size() == evaluations &&
                   records.size() == evaluations);
  result.check("rewards_finite", finite == records.size() &&
                                     std::isfinite(campaign.best_reward));
  result.info["arch_set_digest"] = digest(joined);
  result.info["best_arch"] = campaign.best.key();

  result.metric("setup_s", setup_s, "s");
  result.metric("op_ms", median(eval_seconds) * 1e3, "ms");
  result.metric("p90_ms", quantile(eval_seconds, 0.9) * 1e3, "ms");
  result.metric("ops_per_s", static_cast<double>(evaluations) / wall, "1/s");
  result.metric("r2", campaign.best_reward, "R2");
  end_measured_phase(result, run_watch);
  result.coverage =
      (result.stage("core.prepare") + result.stage("core.local_search")) /
      result.trace_wall_s;
  result.worker_busy_frac = busy / (static_cast<double>(workers) * wall);
  result.stages["search.ask_tell"] = method.seconds();
  result.search_evals = records.size();
  result.stages["nn.train"] = busy;

  if (options.traced) {
    replay_prepare(cfg, pipeline.mask(), result);
    nn::GraphNetwork net = space.build(campaign.best);
    net.init_params(options.seed);
    probe_model(net, setup.window, setup.num_modes, options.seed, result);
  }
  return result;
}

}  // namespace geonas::e2e
