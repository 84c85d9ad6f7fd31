#include "hpc/async_campaign.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <vector>

#include "hpc/theta.hpp"
#include "obs/metrics.hpp"

namespace geonas::hpc {

DrawnFate draw_fate(const FailureModel& model, Rng& rng) {
  if (model.crash_prob > 0.0 && rng.bernoulli(model.crash_prob)) {
    // The node dies a uniform fraction into the evaluation and needs a
    // restart before it can request work again.
    return {EvalFate::kCrashed, rng.uniform()};
  }
  if (model.straggler_prob > 0.0 && rng.bernoulli(model.straggler_prob)) {
    // The evaluation hangs; the coordinator cuts it at the timeout
    // multiple and discards the partial result.
    return {EvalFate::kStraggler, 0.0};
  }
  if (model.lost_result_prob > 0.0 &&
      rng.bernoulli(model.lost_result_prob)) {
    return {EvalFate::kLost, 0.0};  // full duration burned, result lost
  }
  return {};
}

BusySpan busy_span(const FailureModel& model, const DrawnFate& fate,
                   double start, double duration) {
  if (fate.kind == EvalFate::kCrashed) {
    const double end = start + fate.crash_fraction * duration;
    return {end, end + model.restart_penalty_seconds};
  }
  const double end =
      start + (fate.kind == EvalFate::kStraggler
                   ? model.straggler_timeout_multiple * duration
                   : duration);
  return {end, end};
}

void count_fate(FailureCounts& counts, EvalFate fate) {
  switch (fate) {
    case EvalFate::kCrashed: ++counts.worker_crashes; break;
    case EvalFate::kStraggler: ++counts.stragglers_killed; break;
    case EvalFate::kLost: ++counts.lost_results; break;
    case EvalFate::kOk: break;
  }
}

void export_sim_telemetry(const std::string& prefix, const SimResult& result) {
  obs::MetricsRegistry* reg = obs::registry();
  if (reg == nullptr) return;
  reg->counter(prefix + ".evals").add(result.evals.size());
  reg->counter(prefix + ".worker_crashes")
      .add(result.failures.worker_crashes);
  reg->counter(prefix + ".stragglers_killed")
      .add(result.failures.stragglers_killed);
  reg->counter(prefix + ".lost_results").add(result.failures.lost_results);
  reg->gauge(prefix + ".utilization_auc").set(result.utilization);
  obs::Series& curve = reg->series(prefix + ".busy_fraction");
  for (std::size_t i = 0; i < result.busy_curve.size(); ++i) {
    curve.append(static_cast<double>(i) * kCurveDt, result.busy_curve[i]);
  }
  obs::Series& best = reg->series(prefix + ".best_reward");
  double cur = -1e300;
  for (const CompletedEval& eval : result.evals) {
    if (eval.reward > cur) {
      cur = eval.reward;
      best.append(eval.completed_at, cur);
    }
  }
  obs::Histogram& durations = reg->histogram(prefix + ".eval_seconds");
  for (const CompletedEval& eval : result.evals) {
    durations.observe(eval.duration);
  }
}

namespace {

/// The real-valued config fields a checkpoint pins, in wire order
/// (between `nodes` and `seed`).
std::array<std::pair<const char*, double>, 8> pinned_reals(
    const ClusterConfig& c) {
  return {{{"wall time", c.wall_time_seconds},
           {"coordinator service", c.coordinator_service},
           {"launch overhead", c.launch_overhead_mean},
           {"crash prob", c.failures.crash_prob},
           {"restart penalty", c.failures.restart_penalty_seconds},
           {"straggler prob", c.failures.straggler_prob},
           {"straggler multiple", c.failures.straggler_timeout_multiple},
           {"lost prob", c.failures.lost_result_prob}}};
}

void require(bool ok, const std::string& what) {
  if (!ok) {
    throw std::runtime_error(
        "AsyncCampaign: checkpoint does not match this campaign (" + what +
        " differs) — refusing to resume");
  }
}

/// Reads a field and refuses it, naming the field and its byte offset,
/// unless `valid(value)`; `expected` says what valid means.
template <typename T, typename Valid>
T read_valid(io::BinaryReader& r, T (io::BinaryReader::*read)(const char*),
             const char* field, Valid valid, const std::string& expected) {
  const std::uint64_t at = r.offset();
  const T value = (r.*read)(field);
  if (!valid(value)) {
    throw std::runtime_error(
        std::string("AsyncCampaign: checkpoint field '") + field +
        "' at byte " + std::to_string(at) + " is " + std::to_string(value) +
        ", expected " + expected + " — refusing to resume");
  }
  return value;
}

bool finite(double value) { return std::isfinite(value); }

}  // namespace

AsyncCampaign::AsyncCampaign(search::SearchMethod& method,
                             const ClusterConfig& config)
    : method_(method),
      config_(config),
      rng_(hash_combine(config.seed, 0xA51ULL)),
      tracker_(async_partition(config.nodes).total_nodes,
               config.wall_time_seconds),
      slots_(async_partition(config.nodes).workers) {}

void AsyncCampaign::start() {
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) launch(slot, 0.0);
}

void AsyncCampaign::launch(std::size_t slot, double request_time) {
  const double service_start = std::max(request_time, coordinator_free_);
  const double ask_done = service_start + config_.coordinator_service;
  coordinator_free_ = ask_done;
  const double overhead =
      config_.launch_overhead_mean > 0.0
          ? rng_.exponential(1.0 / config_.launch_overhead_mean)
          : 0.0;
  const double start = ask_done + overhead;
  if (start >= config_.wall_time_seconds) return;  // wall: the slot retires

  const std::uint64_t seq = eval_counter_++;
  // A braced list runs ask() before the fate draws: the RNG order.
  slots_[slot].launch = {.seq = seq, .slot = slot, .start = start,
                         .eval_seed = hash_combine(config_.seed, seq),
                         .arch = method_.ask(),
                         .fate = draw_fate(config_.failures, rng_),
                         .outcome = {}, .span = {}};
  enqueue(slot);
}

/// Puts the slot's new launch in flight and queues it for a source.
void AsyncCampaign::enqueue(std::size_t slot) {
  Slot& s = slots_[slot];
  s.stage = Stage::kInFlight;
  ++outstanding_;
  in_flight_starts_.emplace_back(s.launch.start, s.launch.seq, slot);
  std::push_heap(in_flight_starts_.begin(), in_flight_starts_.end(),
                 std::greater<>{});
  untaken_.emplace_back(s.launch.seq, slot);
}

const AsyncCampaign::Launch* AsyncCampaign::in_flight(
    std::uint64_t seq, std::size_t slot) const {
  const Slot& s = slots_[slot];
  return s.stage == Stage::kInFlight && s.launch.seq == seq ? &s.launch
                                                            : nullptr;
}

const AsyncCampaign::Launch* AsyncCampaign::take_launch() {
  const Launch* l = nullptr;
  // Skips a launch some source answered before it was taken.
  while (l == nullptr && !untaken_.empty()) {
    l = in_flight(untaken_.front().first, untaken_.front().second);
    untaken_.pop_front();
  }
  return l;
}

const AsyncCampaign::Launch* AsyncCampaign::awaiting(std::uint64_t seq) const {
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    if (const Launch* l = in_flight(seq, slot)) return l;
  }
  return nullptr;
}

bool AsyncCampaign::apply_outcome(const Launch& l,
                                  const EvalOutcome& outcome) {
  if (l.slot >= slots_.size() || in_flight(l.seq, l.slot) != &l) return false;
  Slot& s = slots_[l.slot];
  if (!std::isfinite(outcome.duration_seconds) ||
      outcome.duration_seconds < 0.0) {
    throw std::invalid_argument(
        "AsyncCampaign: launch " + std::to_string(l.seq) +
        " answered with duration " +
        std::to_string(outcome.duration_seconds) +
        " s; durations must be finite and >= 0");
  }
  s.stage = Stage::kAnswered;
  s.launch.outcome = outcome;
  s.launch.span = busy_span(config_.failures, l.fate, l.start,
                            outcome.duration_seconds);
  answered_.emplace_back(l.span.busy_end, l.seq, l.slot);
  std::push_heap(answered_.begin(), answered_.end(), std::greater<>{});
  return true;
}

bool AsyncCampaign::try_pop() {
  if (answered_.empty()) return false;
  while (!in_flight_starts_.empty() &&
         in_flight(std::get<1>(in_flight_starts_.front()),
                   std::get<2>(in_flight_starts_.front())) == nullptr) {
    std::pop_heap(in_flight_starts_.begin(), in_flight_starts_.end(),
                  std::greater<>{});
    in_flight_starts_.pop_back();
  }
  // Admissible iff no in-flight launch can finish before it: every
  // in-flight launch ends at or after its (start, seq).
  if (!in_flight_starts_.empty() &&
      in_flight_starts_.front() < answered_.front()) {
    return false;
  }
  std::pop_heap(answered_.begin(), answered_.end(), std::greater<>{});
  const std::size_t slot = std::get<2>(answered_.back());
  answered_.pop_back();
  Slot& s = slots_[slot];
  s.stage = Stage::kIdle;
  --outstanding_;

  const Launch& done = s.launch;
  tracker_.add_busy(done.start, done.span.busy_end);
  if (done.span.busy_end > config_.wall_time_seconds) {
    return true;  // the wall cut it: the node was busy, no result
  }
  if (done.fate.kind == EvalFate::kOk) {
    method_.tell(done.arch, done.outcome.reward);
    result_.evals.push_back({done.span.busy_end, done.outcome.reward,
                             done.outcome.duration_seconds,
                             done.outcome.params, done.arch.key()});
  } else {
    // Failed evaluations never reach tell(); the asynchronous design
    // shrugs — only this worker's slot is affected.
    count_fate(result_.failures, done.fate.kind);
  }
  launch(slot, done.span.resume_at);  // overwrites `done`
  return true;
}

SimResult AsyncCampaign::result() && {
  result_.utilization = tracker_.utilization_auc();
  result_.busy_curve = tracker_.busy_fraction_curve(kCurveDt);
  return std::move(result_);
}

void AsyncCampaign::save(io::BinaryWriter& w) const {
  w.str(method_.name());
  w.u64(config_.nodes);
  for (const auto& [name, value] : pinned_reals(config_)) w.f64(value);
  w.u64(config_.seed);

  search::write_rng_state(w, rng_);
  w.f64(coordinator_free_);
  w.u64(eval_counter_);
  w.u64(result_.evals.size());
  for (const CompletedEval& e : result_.evals) {
    w.f64(e.completed_at);
    w.f64(e.reward);
    w.f64(e.duration);
    w.u64(e.params);
    w.str(e.arch_key);
  }
  const FailureCounts& f = result_.failures;
  for (const std::size_t n : {f.worker_crashes, f.stragglers_killed,
                              f.lost_results}) {
    w.u64(n);
  }
  w.u64(tracker_.intervals().size());
  for (const auto& [s, e] : tracker_.intervals()) {
    w.f64(s);
    w.f64(e);
  }

  // Outcomes are not saved: a resumed source re-evaluates every
  // outstanding launch, and evaluation is a pure function of
  // (arch, eval_seed = hash(seed, seq)).
  std::vector<const Launch*> launches;
  for (const Slot& s : slots_) {
    if (s.stage != Stage::kIdle) launches.push_back(&s.launch);
  }
  std::ranges::sort(launches, {}, [](const Launch* l) { return l->seq; });
  w.u64(launches.size());
  for (const Launch* l : launches) {
    w.u64(l->seq);
    w.u64(l->slot);
    w.f64(l->start);
    w.u8(static_cast<std::uint8_t>(l->fate.kind));
    w.f64(l->fate.crash_fraction);
    search::write_architecture(w, l->arch);
  }
  method_.save(w);
}

void AsyncCampaign::load(io::BinaryReader& r) {
  require(r.str("method") == method_.name(), "search method");
  require(r.u64("nodes") == config_.nodes, "nodes");
  for (const auto& [name, value] : pinned_reals(config_)) {
    require(r.f64(name) == value, name);
  }
  require(r.u64("seed") == config_.seed, "seed");

  search::read_rng_state(r, rng_);
  coordinator_free_ = read_valid(r, &io::BinaryReader::f64,
                                 "coordinator_free", finite, "finite");
  eval_counter_ = r.u64("eval_counter");
  // Braced lists read their fields in order. No reserve() from file
  // counts: a corrupt count must fail on the stream, not the allocator.
  const std::uint64_t evals = r.u64("evals");
  for (std::uint64_t i = 0; i < evals; ++i) {
    result_.evals.push_back(
        {r.f64("completed_at"), r.f64("reward"), r.f64("duration"),
         static_cast<std::size_t>(r.u64("params")), r.str("arch_key")});
  }
  result_.failures = {static_cast<std::size_t>(r.u64("worker_crashes")),
                      static_cast<std::size_t>(r.u64("stragglers_killed")),
                      static_cast<std::size_t>(r.u64("lost_results"))};
  const std::uint64_t n_intervals = r.u64("intervals");
  std::vector<std::pair<double, double>> intervals;
  for (std::uint64_t i = 0; i < n_intervals; ++i) {
    intervals.push_back({r.f64("interval_start"), r.f64("interval_end")});
  }
  tracker_.restore_intervals(std::move(intervals));

  std::uint64_t lowest = 0;  // outstanding seqs ascend strictly
  const std::uint64_t count = r.u64("outstanding");
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t seq = read_valid(
        r, &io::BinaryReader::u64, "seq",
        [&](std::uint64_t v) { return v >= lowest && v < eval_counter_; },
        "in [" + std::to_string(lowest) + ", eval_counter " +
            std::to_string(eval_counter_) + ")");
    lowest = seq + 1;
    const std::uint64_t slot = read_valid(
        r, &io::BinaryReader::u64, "slot",
        [&](std::uint64_t v) {
          return v < slots_.size() && slots_[v].stage == Stage::kIdle;
        },
        "a free slot below " + std::to_string(slots_.size()));
    Launch& l = slots_[slot].launch;
    l.seq = seq;
    l.slot = static_cast<std::size_t>(slot);
    l.start = read_valid(r, &io::BinaryReader::f64, "start", finite, "finite");
    l.fate.kind = static_cast<EvalFate>(read_valid(
        r, &io::BinaryReader::u8, "fate",
        [](std::uint8_t v) { return v <= 3; }, "0-3"));
    l.fate.crash_fraction = read_valid(
        r, &io::BinaryReader::f64, "crash_fraction",
        [](double v) { return v >= 0.0 && v < 1.0; }, "in [0, 1)");
    l.arch = search::read_architecture(r);
    l.eval_seed = hash_combine(config_.seed, seq);
    enqueue(l.slot);
  }
  method_.load(r);
}

}  // namespace geonas::hpc
