// geonas command-line tool.
//
// Drives the library's main workflows from the shell, operating on the
// binary snapshot/mask files of data/snapshot_io.hpp so real gridded data
// can be substituted for the synthetic generator:
//
//   geonas_cli generate  --out snaps.bin --mask mask.bin
//                        [--nlat 45] [--nlon 90] [--weeks 427] [--start 0]
//                        [--seed 2020]
//   geonas_cli pod       --snapshots snaps.bin [--modes 5]
//   geonas_cli search    --evaluations 500 [--method ae|rs|ppo] [--seed 1]
//                        [--checkpoint ckpt.bin] [--checkpoint-every 50]
//                        [--resume 1] [--retries 3] [--eval-timeout 0]
//                        [--memoize 1] [--workers 1]
//                        [--train 1] [--epochs 10]
//                        [--master 1] [--nodes 8] [--wall-time 10800]
//                        [--port 0] [--bind 127.0.0.1] [--stop-after 0]
//                        [--cluster-seed 7]
//   geonas_cli worker    --port PORT [--host 127.0.0.1] [--name worker]
//                        [--connect-attempts 40]
//                        [--train 1] [--epochs 10]
//   geonas_cli train     --snapshots snaps.bin [--modes 5] [--window 8]
//                        [--arch GENE-KEY] [--epochs 60] [--seed 1]
//                        [--weights-out weights.bin]
//   geonas_cli serve     --arch GENE-KEY [--weights weights.bin]
//                        [--modes 5] [--window 8] [--streams 4]
//                        [--max-batch 32] [--max-delay-ms 0.5]
//                        [--requests 20000] [--seed 1]
//
// Each subcommand takes exactly the options listed for it (and the two
// metrics options below); any other --key fails with exit status 1, so
// a typo or a retired flag is never silently ignored.
//
// `serve` freezes the architecture (trained weights from --weights, or
// seeded initial weights for smoke runs) into a forward-only
// serve::FrozenPlan, spins up a micro-batching ServeEngine with
// --streams parallel model streams, fires --requests seeded forecast
// windows through it, and reports batched throughput. With metrics
// enabled the queue-wait / batch-size / end-to-end latency histograms
// land in telemetry.json and the p50/p90/p99 are printed at exit.
//
// Observability: every subcommand accepts --metrics-out PATH (write a
// versioned telemetry.json sidecar at exit; implies --metrics 1) and
// --metrics 0/1 (force-disable/enable; enabled without a path writes
// telemetry.json in the working directory). Telemetry is a separate
// artifact: campaign outputs, checkpoints, and weights are bitwise
// identical with metrics on or off.
//
// `search` explores the paper's stacked-LSTM space against the calibrated
// surrogate evaluator and prints the best architecture's gene key, which
// `train` accepts to run a real training on the snapshot file. With
// `--train 1` the search instead evaluates every candidate by genuinely
// training it on the synthetic POD-LSTM pipeline for `--epochs` epochs
// (the paper's actual campaign loop; much slower than the surrogate, so
// size --evaluations accordingly).
//
// Fault tolerance: `--checkpoint` atomically rewrites a versioned binary
// checkpoint every `--checkpoint-every` evaluations (and at the end);
// `--resume 1` continues a killed campaign from it — same method, same
// seed — and replays the uninterrupted trajectory bitwise. `--retries`
// retries throwing/diverged evaluations with a reseeded training before
// counting the evaluation as failed. `--memoize 1` caches outcomes on
// the canonical architecture key so duplicate candidates (common under
// mutation-based search) are never re-trained; the cache rides in the
// checkpoint.
//
// Distributed campaigns: `search --master 1` runs the TCP master — it
// owns the search method and the deterministic campaign clock (the
// cluster simulator's event logic over --nodes virtual slots within
// --wall-time simulated seconds) and farms evaluations out to `worker`
// processes over localhost/LAN sockets. Workers join and leave freely;
// the trajectory depends only on the campaign config, never on worker
// count or timing, so the run is resumable (--checkpoint/--resume) and
// bitwise comparable to the in-process simulator.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/nas_driver.hpp"
#include "core/pipeline.hpp"
#include "hpc/net/master.hpp"
#include "hpc/net/worker.hpp"
#include "hpc/parallel_for.hpp"
#include "obs/json_export.hpp"
#include "obs/metrics.hpp"
#include "core/reporting.hpp"
#include "core/surrogate.hpp"
#include "core/training_eval.hpp"
#include "core/window_source.hpp"
#include "data/landmask.hpp"
#include "data/snapshot_io.hpp"
#include "data/sst.hpp"
#include "data/windowing.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "pod/pod.hpp"
#include "search/aging_evolution.hpp"
#include "search/ppo.hpp"
#include "search/random_search.hpp"
#include "searchspace/space.hpp"
#include "serve/engine.hpp"
#include "serve/frozen_plan.hpp"

namespace {

using namespace geonas;

/// Checked integer parse for --flag values: the whole token must be
/// consumed, so "--epochs 10x" or "--seed 1e3" fail loudly (naming the
/// flag and the offending text) instead of silently truncating the way
/// bare std::stol would.
long parse_num(const std::string& flag, const std::string& text) {
  std::size_t pos = 0;
  long value = 0;
  try {
    value = std::stol(text, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + flag + ": '" + text +
                                "' is not an integer");
  }
  if (pos != text.size()) {
    throw std::invalid_argument("--" + flag + ": trailing characters '" +
                                text.substr(pos) + "' in '" + text +
                                "' (expected an integer)");
  }
  return value;
}

/// Checked real-number parse for --flag values (same whole-token
/// contract as parse_num).
double parse_real(const std::string& flag, const std::string& text) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + flag + ": '" + text +
                                "' is not a number");
  }
  if (pos != text.size()) {
    throw std::invalid_argument("--" + flag + ": trailing characters '" +
                                text.substr(pos) + "' in '" + text +
                                "' (expected a number)");
  }
  return value;
}

/// Minimal --key value argument map.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("expected --option, got '" + key + "'");
      }
      values_[key.substr(2)] = argv[i + 1];
    }
    if ((argc - first) % 2 != 0) {
      throw std::invalid_argument("dangling option without a value");
    }
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] std::string require(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::invalid_argument("missing required --" + key);
    }
    return it->second;
  }
  [[nodiscard]] long get_long(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : parse_num(key, it->second);
  }
  /// A count, size or index option: a non-negative integer, refused by
  /// name when negative instead of wrapping around in a std::size_t.
  [[nodiscard]] std::size_t get_count(const std::string& key,
                                      std::size_t fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const long value = parse_num(key, it->second);
    if (value < 0) {
      throw std::invalid_argument("--" + key + ": must be >= 0, got " +
                                  it->second);
    }
    return static_cast<std::size_t>(value);
  }
  [[nodiscard]] double get_real(const std::string& key,
                                double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : parse_real(key, it->second);
  }
  /// Throws std::invalid_argument naming the first key that is neither in
  /// `known` nor a metrics option (which every subcommand takes).
  void check_known(const std::string& command,
                   const std::vector<std::string>& known) const {
    for (const auto& entry : values_) {
      const std::string& key = entry.first;
      if (key == "metrics-out" || key == "metrics" ||
          std::find(known.begin(), known.end(), key) != known.end()) {
        continue;
      }
      throw std::invalid_argument("unknown option --" + key + " for " +
                                  command);
    }
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Installs a process-global metrics registry for the duration of one
/// subcommand and flushes the telemetry sidecar at scope exit. With
/// metrics off (the default) nothing is installed and every
/// instrumentation site stays a branch on a null pointer.
class MetricsScope {
 public:
  explicit MetricsScope(const Args& args)
      : path_(args.get("metrics-out", "")),
        enabled_(args.get_long("metrics", path_.empty() ? 0 : 1) != 0) {
    if (!enabled_) return;
    if (path_.empty()) path_ = "telemetry.json";
    registry_ = std::make_unique<obs::MetricsRegistry>();
    obs::set_registry(registry_.get());
    // Pre-register the kernel-pool section so the sidecar always carries
    // it, even for campaigns that never clear the dispatch threshold.
    hpc::register_kernel_metrics();
  }
  ~MetricsScope() {
    if (!registry_) return;
    // Uninstall before flushing; each subcommand has joined its workers
    // by now, so the registry is quiescent.
    obs::set_registry(nullptr);
    try {
      obs::write_telemetry_file(*registry_, path_);
      std::printf("telemetry written to %s\n", path_.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "telemetry write failed: %s\n", e.what());
    }
  }
  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

 private:
  std::string path_;
  bool enabled_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
};

int cmd_generate(const Args& args) {
  const data::Grid grid{args.get_count("nlat", 45),
                        args.get_count("nlon", 90)};
  const auto weeks = args.get_count("weeks", 427);
  const auto start = args.get_count("start", 0);
  data::SSTOptions options;
  options.seed = static_cast<std::uint64_t>(args.get_long("seed", 2020));

  const data::LandMask mask(grid, 7);
  const data::SyntheticSST sst(options);
  std::printf("generating %zu weekly snapshots on a %zux%zu grid (%zu ocean "
              "cells)...\n",
              weeks, grid.nlat, grid.nlon, mask.ocean_count());

  data::SnapshotRecord record{sst.snapshots(mask, start, weeks), start};
  data::write_snapshots_file(record, args.require("out"));
  std::printf("wrote %s\n", args.require("out").c_str());

  const std::string mask_path = args.get("mask", "");
  if (!mask_path.empty()) {
    data::MaskRecord mrec;
    mrec.grid = grid;
    mrec.land.assign(grid.cells(), 0);
    for (std::size_t cell = 0; cell < grid.cells(); ++cell) {
      mrec.land[cell] = mask.is_land_cell(cell) ? 1 : 0;
    }
    data::write_mask_file(mrec, mask_path);
    std::printf("wrote %s\n", mask_path.c_str());
  }
  return 0;
}

int cmd_pod(const Args& args) {
  const auto record = data::read_snapshots_file(args.require("snapshots"));
  const auto modes = args.get_count("modes", 5);
  std::printf("snapshots: %zu DoF x %zu weeks (first week %llu)\n",
              record.snapshots.rows(), record.snapshots.cols(),
              static_cast<unsigned long long>(record.first_week));
  pod::POD pod;
  pod.fit(record.snapshots, {.num_modes = modes});
  core::TextTable table({"modes", "energy captured"});
  for (std::size_t m = 1; m <= std::min<std::size_t>(10, record.snapshots.cols());
       ++m) {
    table.add_row({core::TextTable::integer(m),
                   core::TextTable::num(pod.energy_captured(m), 4)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("relative projection error at Nr=%zu: %.6f\n", modes,
              pod.empirical_projection_error(record.snapshots));
  return 0;
}

/// Builds the search method the `search` subcommand drives (nullptr for
/// an unknown name).
std::unique_ptr<search::SearchMethod> make_method(
    const std::string& name, const searchspace::StackedLSTMSpace& space,
    std::uint64_t seed) {
  if (name == "rs") {
    return std::make_unique<search::RandomSearch>(space, seed);
  }
  if (name == "ae") {
    return std::make_unique<search::AgingEvolution>(
        space, search::AgingEvolutionConfig{.population_size = 100,
                                            .sample_size = 10,
                                            .seed = seed});
  }
  if (name == "ppo") {
    return std::make_unique<search::PPOSearch>(
        space, search::PPOConfig{.seed = seed});
  }
  return nullptr;
}

/// Builds the evaluator that `search` runs locally and `worker` serves
/// over the wire: the calibrated surrogate by default, or the real
/// POD-LSTM training pipeline with --train 1. The pipeline (when used)
/// must outlive the evaluator — it owns the window tensors.
std::unique_ptr<hpc::ArchitectureEvaluator> make_oracle(
    const Args& args, const searchspace::StackedLSTMSpace& space,
    std::unique_ptr<core::PODLSTMPipeline>& pipeline) {
  const bool train_mode = args.get_long("train", 0) != 0;
  if (!train_mode) return std::make_unique<core::SurrogateEvaluator>(space);
  const auto epochs = args.get_count("epochs", 10);
  pipeline =
      std::make_unique<core::PODLSTMPipeline>(core::PipelineConfig::from_env());
  pipeline->prepare();
  const auto& split = pipeline->split();
  return std::make_unique<core::TrainingEvaluator>(
      space, split.train.x, split.train.y, split.val.x, split.val.y,
      nn::TrainConfig{.epochs = epochs, .batch_size = 64});
}

/// `search --master 1`: the distributed campaign master. Owns the search
/// method and the deterministic virtual-time clock; evaluations happen
/// in `geonas_cli worker` processes that connect to the printed port.
int cmd_search_master(const Args& args, search::SearchMethod& method,
                      const core::SearchRunOptions& run_options) {
  hpc::net::MasterOptions opts;
  opts.cluster.nodes = args.get_count("nodes", 8);
  opts.cluster.wall_time_seconds =
      args.get_real("wall-time", opts.cluster.wall_time_seconds);
  opts.cluster.seed =
      static_cast<std::uint64_t>(args.get_long("cluster-seed", 7));
  opts.bind_address = args.get("bind", "127.0.0.1");
  opts.port = static_cast<std::uint16_t>(args.get_long("port", 0));
  opts.checkpoint_path = run_options.checkpoint_path;
  opts.checkpoint_every = run_options.checkpoint_every;
  opts.resume = run_options.resume;
  opts.stop_after_evaluations = args.get_count("stop-after", 0);

  hpc::net::NetMaster master(opts);
  std::printf("master '%s' on %s:%u — %zu virtual slots, %.0f s simulated "
              "wall time\n",
              method.name().c_str(), opts.bind_address.c_str(),
              static_cast<unsigned>(master.port()), opts.cluster.nodes,
              opts.cluster.wall_time_seconds);
  std::printf("start workers with: geonas_cli worker --port %u\n",
              static_cast<unsigned>(master.port()));

  const hpc::net::MasterResult result = master.run(method);
  std::printf("%zu evaluations, utilization %.3f; %zu workers joined, %zu "
              "died, %zu tasks re-dispatched%s\n",
              result.sim.evals.size(), result.sim.utilization,
              result.workers_joined, result.worker_deaths,
              result.redispatches,
              result.stopped_early ? " (paused early)" : "");
  if (!opts.checkpoint_path.empty()) {
    std::printf("checkpoint written to %s\n", opts.checkpoint_path.c_str());
  }
  double best = -1.0;
  std::string best_key;
  for (const auto& e : result.sim.evals) {
    if (e.reward > best) {
      best = e.reward;
      best_key = e.arch_key;
    }
  }
  if (!best_key.empty()) {
    std::printf("best reward %.4f at architecture key: %s\n", best,
                best_key.c_str());
  }
  return 0;
}

int cmd_search(const Args& args) {
  const auto evaluations = args.get_count("evaluations", 500);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  const std::string method = args.get("method", "ae");

  core::SearchRunOptions options;
  options.checkpoint_path = args.get("checkpoint", "");
  options.checkpoint_every = args.get_count("checkpoint-every", 0);
  options.resume = args.get_long("resume", 0) != 0;
  options.retry.max_attempts = args.get_count("retries", 0) + 1;
  options.retry.timeout_seconds = args.get_real("eval-timeout", 0.0);
  options.memoize = args.get_long("memoize", 0) != 0;
  if (options.resume && options.checkpoint_path.empty()) {
    std::fprintf(stderr, "--resume 1 requires --checkpoint PATH\n");
    return 2;
  }

  const auto workers = args.get_count("workers", 1);
  if (workers == 0) {
    std::fprintf(stderr, "--workers must be >= 1\n");
    return 2;
  }

  const searchspace::StackedLSTMSpace space;
  const std::unique_ptr<search::SearchMethod> search_method =
      make_method(method, space, seed);
  if (!search_method) {
    std::fprintf(stderr, "unknown --method '%s' (ae|rs|ppo)\n",
                 method.c_str());
    return 2;
  }

  // --master 1: distributed campaign over TCP; evaluations run in
  // `geonas_cli worker` processes, not here.
  if (args.get_long("master", 0) != 0) {
    return cmd_search_master(args, *search_method, options);
  }

  const bool train_mode = args.get_long("train", 0) != 0;
  // --train 1: the paper's actual campaign loop — every candidate is
  // built and genuinely trained on the synthetic POD-LSTM pipeline, and
  // the reward is its validation R^2 after the epoch budget.
  std::unique_ptr<core::PODLSTMPipeline> pipeline;
  const std::unique_ptr<hpc::ArchitectureEvaluator> oracle =
      make_oracle(args, space, pipeline);
  const core::LocalSearchResult result =
      workers > 1 ? core::run_local_search_parallel(*search_method, *oracle,
                                                    evaluations, workers,
                                                    seed, options)
                  : core::run_local_search(*search_method, *oracle,
                                           evaluations, seed, options);
  std::printf("%zu evaluations, best %s %.4f\n", result.history.size(),
              train_mode ? "trained validation R2" : "surrogate reward",
              result.best_reward);
  if (options.retry.enabled()) {
    std::printf("fault policy: %zu retries, %zu evaluations failed\n",
                result.eval_retries, result.eval_failures);
  }
  if (options.memoize) {
    std::printf("memoization: %zu cache hits, %zu misses (trainings saved: "
                "%zu)\n",
                result.cache_hits, result.cache_misses, result.cache_hits);
  }
  if (!options.checkpoint_path.empty()) {
    std::printf("checkpoint written to %s\n",
                options.checkpoint_path.c_str());
  }
  std::printf("best architecture key: %s\n%s", result.best.key().c_str(),
              space.describe(result.best).c_str());
  return 0;
}

/// `worker`: joins a distributed campaign, evaluates architectures the
/// master assigns (surrogate or --train 1 real training), and exits
/// when the master shuts the campaign down or disappears.
int cmd_worker(const Args& args) {
  hpc::net::WorkerOptions options;
  options.port = static_cast<std::uint16_t>(args.get_long("port", 0));
  if (options.port == 0) {
    std::fprintf(stderr, "worker requires --port PORT (from the master's "
                         "startup banner)\n");
    return 2;
  }
  options.host = args.get("host", "127.0.0.1");
  options.name = args.get("name", "worker");
  options.connect_attempts =
      static_cast<int>(args.get_long("connect-attempts", 40));

  const searchspace::StackedLSTMSpace space;
  std::unique_ptr<core::PODLSTMPipeline> pipeline;
  const std::unique_ptr<hpc::ArchitectureEvaluator> oracle =
      make_oracle(args, space, pipeline);

  std::printf("worker '%s' connecting to %s:%u...\n", options.name.c_str(),
              options.host.c_str(), static_cast<unsigned>(options.port));
  const hpc::net::WorkerStats stats = hpc::net::run_worker(*oracle, options);
  std::printf("worker '%s' done: %zu evaluations (%s)\n",
              options.name.c_str(), stats.evaluations,
              stats.shutdown_received ? "campaign complete"
                                      : "master disconnected");
  return 0;
}

int cmd_train(const Args& args) {
  const auto record = data::read_snapshots_file(args.require("snapshots"));
  const auto modes = args.get_count("modes", 5);
  const auto window = args.get_count("window", 8);
  const auto epochs = args.get_count("epochs", 60);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 1));

  pod::POD pod;
  pod.fit(record.snapshots, {.num_modes = modes});
  Matrix coeffs = pod.project(record.snapshots);
  // Standardize per mode (LSTM-friendly scale).
  for (std::size_t m = 0; m < coeffs.rows(); ++m) {
    double mean = 0.0;
    for (std::size_t t = 0; t < coeffs.cols(); ++t) mean += coeffs(m, t);
    mean /= static_cast<double>(coeffs.cols());
    double var = 0.0;
    for (std::size_t t = 0; t < coeffs.cols(); ++t) {
      var += (coeffs(m, t) - mean) * (coeffs(m, t) - mean);
    }
    const double sd = std::sqrt(var / static_cast<double>(coeffs.cols()));
    for (std::size_t t = 0; t < coeffs.cols(); ++t) {
      coeffs(m, t) = (coeffs(m, t) - mean) / (sd > 1e-12 ? sd : 1.0);
    }
  }

  const data::WindowView view(coeffs, {.window = window});
  const data::SplitIndices split =
      data::train_val_split_indices(view.size(), 0.8, seed);
  const core::WindowExampleSource train(view, split.train);
  const core::WindowExampleSource val(view, split.val);
  std::printf("windows: %zu train / %zu val (K=%zu, Nr=%zu)\n", train.size(),
              val.size(), window, modes);

  const searchspace::StackedLSTMSpace space(
      {.input_features = modes, .output_features = modes});
  searchspace::Architecture arch;
  const std::string key = args.get("arch", "");
  if (key.empty()) {
    Rng rng(seed);
    arch = space.random_architecture(rng);
    std::printf("no --arch given; using a random architecture %s\n",
                arch.key().c_str());
  } else {
    arch = searchspace::Architecture::from_key(key);
    if (!space.valid(arch)) {
      std::fprintf(stderr, "--arch key is not a member of the space\n");
      return 2;
    }
  }

  nn::GraphNetwork net = space.build(arch);
  net.init_params(seed);
  const auto history =
      nn::Trainer({.epochs = epochs, .batch_size = 64, .learning_rate = 2e-3,
                   .lr_step_decay = 0.4, .seed = seed})
          .fit(net, train, &val);
  std::printf("final validation R2: %.4f (best %.4f)\n",
              history.val_r2.back(), history.best_val_r2());

  const std::string weights_out = args.get("weights-out", "");
  if (!weights_out.empty()) {
    nn::save_weights_file(net, weights_out);  // binary v2
    std::printf("wrote trained weights to %s\n", weights_out.c_str());
  }
  return 0;
}

int cmd_serve(const Args& args) {
  const auto modes = args.get_count("modes", 5);
  const auto window = args.get_count("window", 8);
  const auto streams = args.get_count("streams", 4);
  const auto max_batch = args.get_count("max-batch", 32);
  const double max_delay_ms = args.get_real("max-delay-ms", 0.5);
  const auto requests = args.get_count("requests", 20000);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  if (streams == 0 || max_batch == 0 || requests == 0) {
    std::fprintf(stderr,
                 "--streams, --max-batch and --requests must be >= 1\n");
    return 2;
  }

  const searchspace::StackedLSTMSpace space(
      {.input_features = modes, .output_features = modes});
  const auto arch = searchspace::Architecture::from_key(args.require("arch"));
  if (!space.valid(arch)) {
    std::fprintf(stderr, "--arch key is not a member of the space\n");
    return 2;
  }
  nn::GraphNetwork net = space.build(arch);
  const std::string weights = args.get("weights", "");
  if (weights.empty()) {
    net.init_params(seed);
    std::printf("no --weights given; serving seeded initial weights "
                "(smoke-test mode)\n");
  } else {
    nn::load_weights_file(net, weights);
    std::printf("loaded weights from %s\n", weights.c_str());
  }

  serve::FrozenPlan plan = serve::FrozenPlan::compile(net, window, max_batch);
  std::printf("%s", plan.describe().c_str());
  std::printf("workspace: %zu bytes/stream, %zu streams\n",
              plan.workspace_bytes(), streams);

  serve::ServeEngine engine(
      std::move(plan), {.streams = streams,
                        .max_delay_seconds = max_delay_ms / 1000.0});

  // A pool of seeded windows reused round-robin: the engine copies each
  // submission, so the pool only has to decorrelate neighboring batches.
  const std::size_t pool_size = std::min<std::size_t>(requests, 256);
  std::vector<std::vector<double>> pool(pool_size);
  Rng rng(seed);
  for (auto& w : pool) {
    w.resize(window * modes);
    for (double& v : w) v = rng.uniform(-2.0, 2.0);
  }

  std::vector<std::future<serve::Forecast>> futures;
  futures.reserve(requests);
  obs::StopWatch watch;
  for (std::size_t i = 0; i < requests; ++i) {
    futures.push_back(engine.submit(pool[i % pool_size]));
  }
  for (auto& f : futures) f.get();
  const double elapsed = watch.seconds();
  engine.shutdown();

  std::printf("%zu forecasts in %.3f s: %.0f requests/s\n", requests,
              elapsed, static_cast<double>(requests) / elapsed);
  if (obs::MetricsRegistry* reg = obs::registry()) {
    const obs::Histogram& e2e = reg->histogram("serve.e2e_seconds");
    const obs::Histogram& wait = reg->histogram("serve.queue_wait_seconds");
    const obs::Histogram& size = reg->histogram("serve.batch_size");
    std::printf("e2e latency: p50 %.1f us, p90 %.1f us, p99 %.1f us\n",
                e2e.percentile(50) * 1e6, e2e.percentile(90) * 1e6,
                e2e.percentile(99) * 1e6);
    std::printf("queue wait: p50 %.1f us, p99 %.1f us; mean batch %.1f "
                "(%llu batches)\n",
                wait.percentile(50) * 1e6, wait.percentile(99) * 1e6,
                size.count() > 0
                    ? size.sum() / static_cast<double>(size.count())
                    : 0.0,
                static_cast<unsigned long long>(
                    reg->counter("serve.batches").value()));
  }
  return 0;
}

/// A subcommand and the options its cmd_* function reads.
struct Subcommand {
  const char* name;
  int (*run)(const Args&);
  std::vector<std::string> options;
};

const Subcommand* find_subcommand(const std::string& name) {
  static const std::vector<Subcommand> table{
      {"generate", cmd_generate,
       {"out", "mask", "nlat", "nlon", "weeks", "start", "seed"}},
      {"pod", cmd_pod, {"snapshots", "modes"}},
      {"search", cmd_search,
       {"evaluations", "method", "seed", "checkpoint", "checkpoint-every",
        "resume", "retries", "eval-timeout", "memoize", "workers", "train",
        "epochs", "master", "nodes", "wall-time", "port", "bind",
        "stop-after", "cluster-seed"}},
      {"worker", cmd_worker,
       {"port", "host", "name", "connect-attempts", "train", "epochs"}},
      {"train", cmd_train,
       {"snapshots", "modes", "window", "arch", "epochs", "seed",
        "weights-out"}},
      {"serve", cmd_serve,
       {"arch", "weights", "modes", "window", "streams", "max-batch",
        "max-delay-ms", "requests", "seed"}},
  };
  for (const Subcommand& sub : table) {
    if (name == sub.name) return &sub;
  }
  return nullptr;
}

void usage() {
  std::fprintf(stderr,
               "usage: geonas_cli <generate|pod|search|worker|train|serve> "
               "[--option value]...\n(see the header comment of "
               "tools/geonas_cli.cpp for the full option list)\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Subcommand* sub = argc < 2 ? nullptr : find_subcommand(argv[1]);
  if (sub == nullptr) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args(argc, argv, 2);
    args.check_known(command, sub->options);
    const MetricsScope metrics(args);
    return sub->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "geonas_cli %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
