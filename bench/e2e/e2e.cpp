// Result bookkeeping, statistics, the search-layer decorators, the model
// probe and the per-layer pass shared by every workload.
#include "e2e.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "serve/frozen_plan.hpp"
#include "tensor/random.hpp"

namespace geonas::e2e {

void Result::check(const std::string& name, bool ok) {
  checks.emplace_back(name, ok);
}

bool Result::all_passed() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const auto& c) { return c.second; });
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics[name] = {value, unit};
}

void Result::layer(const std::string& name, double value,
                   const std::string& unit) {
  layers[name] = {value, unit};
}

double Result::stage(const std::string& name) const {
  const auto it = stages.find(name);
  return it == stages.end() ? 0.0 : it->second;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Linear interpolation between closest ranks (numpy's default).
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string digest(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

searchspace::Architecture TimedMethod::ask() {
  const obs::StopWatch watch;
  searchspace::Architecture arch = inner_->ask();
  seconds_ += watch.seconds();
  return arch;
}

void TimedMethod::tell(const searchspace::Architecture& arch, double reward) {
  const obs::StopWatch watch;
  inner_->tell(arch, reward);
  seconds_ += watch.seconds();
}

hpc::EvalOutcome TimedEvaluator::evaluate(const searchspace::Architecture& arch,
                                          std::uint64_t eval_seed) {
  const obs::ScopedTimer span(obs::registry(), span_name_);
  const obs::StopWatch watch;
  const hpc::EvalOutcome outcome = inner_->evaluate(arch, eval_seed);
  const double seconds = watch.seconds();
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back({arch.key(), outcome.reward, seconds});
  return outcome;
}

std::vector<EvalRecord> TimedEvaluator::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

namespace {

/// Median over five rounds of the per-call time of `calls` calls, in µs.
template <typename F>
double per_call_us(std::size_t calls, F&& fn) {
  fn();  // warm: first call binds workspaces
  std::vector<double> rounds;
  for (int r = 0; r < 5; ++r) {
    const obs::StopWatch watch;
    for (std::size_t i = 0; i < calls; ++i) fn();
    rounds.push_back(watch.seconds() * 1e6 / static_cast<double>(calls));
  }
  return median(std::move(rounds));
}

}  // namespace

void end_measured_phase(Result& result, const obs::StopWatch& run_watch) {
  const double wall = run_watch.seconds();
  result.trace_wall_s = wall;
  obs::MetricsRegistry* reg = obs::registry();
  if (reg == nullptr) return;
  result.layer("hpc.kernel.threads", reg->gauge("kernel.threads").value(),
               "count");
  result.layer("hpc.kernel.dispatches",
               static_cast<double>(reg->counter("kernel.dispatches").value()),
               "count");
  result.layer("hpc.kernel.chunks",
               static_cast<double>(reg->counter("kernel.chunks").value()),
               "count");
  result.layer("hpc.kernel.busy_share",
               reg->gauge("kernel.worker_busy_seconds").value() / wall, "frac");
  result.layer("hpc.kernel.queue_depth_p99",
               reg->histogram("kernel.queue_depth").percentile(99.0), "count");
}

void probe_model(nn::GraphNetwork& net, std::size_t steps,
                 std::size_t features, std::uint64_t seed, Result& result) {
  constexpr std::size_t kBatch = 32;
  serve::FrozenPlan plan = serve::FrozenPlan::compile(net, steps, kBatch);
  Rng rng(seed);
  Tensor3 x32(kBatch, steps, features);
  for (double& v : x32.flat()) v = rng.uniform(-2.0, 2.0);
  Tensor3 x1(1, steps, features);
  std::copy(x32.block(0).begin(), x32.block(0).end(), x1.flat().begin());

  result.layer("serve.plan_run_us.b1",
               per_call_us(200, [&] { (void)plan.run(x1); }), "us");
  result.layer("serve.plan_run_us.b32",
               per_call_us(20, [&] { (void)plan.run(x32); }), "us");
  result.layer("nn.forward_us.b32",
               per_call_us(20, [&] { (void)net.forward_ref(x32, false); }),
               "us");
}

void fill_layers(Result& result, obs::MetricsRegistry& registry) {
  const double wall = result.trace_wall_s;
  const auto share = [&](const char* stage) {
    return result.stage(stage) / wall;
  };
  const auto hist_share = [&](const char* name) {
    return registry.histogram(name).sum() / wall;
  };
  const auto count = [&](const char* name) {
    return static_cast<double>(registry.counter(name).value());
  };

  result.layer("trace.wall_s", wall, "s");
  result.layer("trace.coverage", result.coverage, "frac");

  result.layer("data.generate_share", share("data.generate"), "frac");
  result.layer("data.snapshots",
               static_cast<double>(result.snapshots_generated), "count");
  result.layer("pod.fit_share", share("pod.fit"), "frac");
  result.layer("pod.project_share", share("pod.project"), "frac");

  result.layer("core.prepare_share", share("core.prepare"), "frac");
  result.layer("core.prepare_residual_share",
               share("core.prepare") - share("data.generate") -
                   share("pod.fit") - share("pod.project"),
               "frac");
  result.layer("core.forecast_share", share("core.forecast"), "frac");
  result.layer("core.worker_busy_frac", result.worker_busy_frac, "frac");

  result.layer("search.surrogate_campaign_share",
               share("search.surrogate_campaign"), "frac");
  result.layer("search.ask_tell_share", share("search.ask_tell"), "frac");
  result.layer("search.evals", static_cast<double>(result.search_evals),
               "count");

  result.layer("nn.train_share", share("nn.train"), "frac");
  result.layer("nn.fwd_share", hist_share("trainer.forward_seconds"), "frac");
  result.layer("nn.bwd_share", hist_share("trainer.backward_seconds"), "frac");
  result.layer("nn.update_share", hist_share("trainer.update_seconds"),
               "frac");
  result.layer("nn.epochs", count("trainer.epochs"), "count");

  const obs::Histogram& e2e = registry.histogram("serve.e2e_seconds");
  const obs::Histogram& batch = registry.histogram("serve.batch_size");
  result.layer("serve.batches", count("serve.batches"), "count");
  result.layer("serve.batch_mean",
               batch.count() > 0
                   ? batch.sum() / static_cast<double>(batch.count())
                   : 0.0,
               "count");
  result.layer("serve.queue_wait_share",
               e2e.sum() > 0.0
                   ? registry.histogram("serve.queue_wait_seconds").sum() /
                         e2e.sum()
                   : 0.0,
               "frac");
  result.layer("serve.engine_overhead_frac", result.engine_overhead_frac,
               "frac");
}

}  // namespace geonas::e2e
