// Shared pieces of the geonas_e2e driver: run options, the result record
// every workload fills, the decorators that time the search layer from
// outside, and small measurement helpers.
//
// Layers are timed only from here, by wrapping calls into their public
// functions; nothing is added to src/. With --trace, each wrapped call
// also opens an obs::ScopedTimer span of the same name, so the exported
// telemetry shows the calls as a timeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "hpc/evaluator.hpp"
#include "nn/graph.hpp"
#include "obs/metrics.hpp"
#include "search/search_method.hpp"

namespace geonas::e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase for the serving workloads; the
  /// fixed-work workloads run their unit of work once.
  double seconds = 10.0;
  /// Tiny configs for the output-check smoke test; times are meaningless.
  bool smoke = false;
  /// An obs::MetricsRegistry is installed and per-layer metrics are
  /// reported.
  bool traced = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports. `metrics` holds the end-to-end
/// metrics and ungated extras; `layers` the per-layer metrics of a traced
/// run; `stages` wall seconds per timed call name (summed over threads).
struct Result {
  std::string op;  // what one operation of this workload is
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> layers;
  std::map<std::string, std::string> info;
  std::map<std::string, double> stages;
  /// Filled by the workload for the per-layer pass.
  double trace_wall_s = 0.0;  // set-up + measured phase of this run
  double coverage = 0.0;      // share of trace_wall_s inside timed calls
  double worker_busy_frac = 0.0;
  std::size_t search_evals = 0;
  std::size_t snapshots_generated = 0;
  double engine_overhead_frac = 0.0;

  void check(const std::string& name, bool ok);
  [[nodiscard]] bool all_passed() const;
  void metric(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] double stage(const std::string& name) const;
};

/// Times `fn` and records the seconds under `name` in `result.stages`;
/// opens a trace span of the same name when a registry is installed.
/// `name` must be a string literal (spans keep the pointer).
template <typename F>
double timed(Result& result, const char* name, F&& fn) {
  const obs::ScopedTimer span(obs::registry(), name);
  const obs::StopWatch watch;
  fn();
  const double seconds = watch.seconds();
  result.stages[name] += seconds;
  return seconds;
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for no values.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double peak_rss_mb();
/// FNV-1a over the bytes of `text`, as 16 hex digits.
[[nodiscard]] std::string digest(const std::string& text);

/// Set-ups are repeated for at least a second (and at least nine times),
/// so a run's median samples the host over a stretch of time rather than
/// at one instant; --smoke sets up once. `elapsed` counts from the first.
[[nodiscard]] inline bool more_setups(const Options& options,
                                      std::size_t done, double elapsed) {
  if (options.smoke) return done < 1;
  return done < 9 || elapsed < 1.0;
}

/// Median time of repeated `fn` calls, each a full set-up.
template <typename F>
double median_setup_seconds(const Options& options, F&& fn) {
  std::vector<double> samples;
  const obs::StopWatch total;
  while (more_setups(options, samples.size(), total.seconds())) {
    const obs::StopWatch watch;
    fn();
    samples.push_back(watch.seconds());
  }
  return median(std::move(samples));
}

/// Times every ask()/tell() of a search method (calls are serialized by
/// every driver, so the accumulator needs no lock of its own).
class TimedMethod final : public search::SearchMethod {
 public:
  explicit TimedMethod(search::SearchMethod& inner) : inner_(&inner) {}

  [[nodiscard]] searchspace::Architecture ask() override;
  void tell(const searchspace::Architecture& arch, double reward) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] double seconds() const noexcept { return seconds_; }

 private:
  search::SearchMethod* inner_;
  double seconds_ = 0.0;
};

/// One evaluation as seen from outside the evaluator.
struct EvalRecord {
  std::string key;
  double reward = 0.0;
  double seconds = 0.0;
};

/// Times every evaluate() call (spans named `span_name`) and keeps one
/// record per evaluation. Safe to call concurrently.
class TimedEvaluator final : public hpc::ArchitectureEvaluator {
 public:
  TimedEvaluator(hpc::ArchitectureEvaluator& inner, const char* span_name)
      : inner_(&inner), span_name_(span_name) {}

  [[nodiscard]] hpc::EvalOutcome evaluate(const searchspace::Architecture& arch,
                                          std::uint64_t eval_seed) override;
  [[nodiscard]] bool thread_safe() const override {
    return inner_->thread_safe();
  }
  [[nodiscard]] std::vector<EvalRecord> records() const;

 private:
  hpc::ArchitectureEvaluator* inner_;
  const char* span_name_;
  mutable std::mutex mutex_;
  std::vector<EvalRecord> records_;  // guarded by mutex_
};

/// Ends the run's measured phase: records its wall time in
/// `result.trace_wall_s` and, in a traced run, reads the kernel pool's
/// instruments (kernel.*) into the hpc.* layers, before replay_prepare and
/// probe_model add kernel work of their own.
void end_measured_phase(Result& result, const obs::StopWatch& run_watch);

/// Traced runs only: times FrozenPlan::run at batch 1 and 32 and the
/// training graph's forward_ref at batch 32 on the workload's model,
/// outside any engine, and records them as per-layer metrics.
void probe_model(nn::GraphNetwork& net, std::size_t steps,
                 std::size_t features, std::uint64_t seed, Result& result);

/// Traced runs only: derives every per-layer metric from the result's
/// timed calls and the instruments the program already exports
/// (trainer.*, serve.*; kernel.* was read by end_measured_phase). Layers
/// a workload does not call report 0.
void fill_layers(Result& result, obs::MetricsRegistry& registry);

/// The Table-II winner of the paper campaign (AE, 128 simulated nodes,
/// seed 2020); emulator-build checks it, serve-open serves it.
inline constexpr const char* kWinnerKey = "5-1-3-1-1-3-1-0-0-0-1-0-0-1";

Result run_emulator_build(const Options& options);
Result run_nas_campaign(const Options& options);
Result run_serve_open(const Options& options);
Result run_serve_burst(const Options& options);

}  // namespace geonas::e2e
