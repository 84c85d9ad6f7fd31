// The asynchronous campaign core: the one owner of the rules behind
// simulate_async (cluster_sim.hpp) and the TCP master (net/master.hpp).
// A source takes each launch and answers it later; launches pop in
// (busy_end, seq) order, and only when their (busy_end, seq) precedes the
// (start, seq) of every launch still in flight, since no evaluation ends
// before it starts. Answers arriving in any order therefore commit
// exactly as simulate_async's in-process source commits them. DESIGN.md
// §5 has the full rules and the GEONASNC v2 checkpoint layout.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "hpc/cluster_sim.hpp"
#include "hpc/evaluator.hpp"
#include "hpc/utilization.hpp"
#include "io/binary.hpp"
#include "search/search_method.hpp"
#include "tensor/random.hpp"

namespace geonas::hpc {

/// Sampling interval of every campaign's busy-fraction curve (s).
inline constexpr double kCurveDt = 60.0;

/// What became of a launched evaluation; the values are GEONASNC wire
/// values.
enum class EvalFate : std::uint8_t { kOk, kCrashed, kStraggler, kLost };

/// A fate drawn at launch; crash_fraction (how far into the evaluation
/// the node dies, in [0, 1)) is drawn iff kCrashed.
struct DrawnFate {
  EvalFate kind = EvalFate::kOk;
  double crash_fraction = 0.0;
};

/// Every probability is guarded so a zero-rate model consumes no RNG
/// draws — failure-free configs stay bitwise identical.
[[nodiscard]] DrawnFate draw_fate(const FailureModel& model, Rng& rng);

/// When the node frees up (completion, crash, or straggler cut) and when
/// its worker may request work again.
struct BusySpan {
  double busy_end = 0.0;
  double resume_at = 0.0;
};
[[nodiscard]] BusySpan busy_span(const FailureModel& model,
                                 const DrawnFate& fate, double start,
                                 double duration);

void count_fate(FailureCounts& counts, EvalFate fate);

/// Exports a finished campaign into the obs registry under `prefix`
/// (e.g. "sim.async.ae"): the busy curve (x = simulated seconds), the
/// best-reward timeline, and the failure/eval tallies.
void export_sim_telemetry(const std::string& prefix, const SimResult& result);

class AsyncCampaign {
 public:
  static constexpr char kCheckpointMagic[] = "GEONASNC";
  static constexpr std::uint32_t kCheckpointVersion = 2;

  struct Launch {
    std::uint64_t seq = 0;  // the eval counter at launch
    std::size_t slot = 0;   // worker slot, relaunched when this pops
    double start = 0.0;
    std::uint64_t eval_seed = 0;
    searchspace::Architecture arch;
    DrawnFate fate;       // drawn after arch is asked
    EvalOutcome outcome;  // valid once answered
    BusySpan span;        // valid once answered
  };

  /// `method` must outlive the campaign.
  AsyncCampaign(search::SearchMethod& method, const ClusterConfig& config);

  /// Starts a fresh campaign: one launch per worker slot at t = 0.
  void start();
  /// The next launch no source has taken, in seq order, or nullptr;
  /// after load(), every outstanding launch. Valid until it pops.
  [[nodiscard]] const Launch* take_launch();
  /// Launch `seq` while it awaits its outcome, else nullptr (a scan of
  /// the worker slots).
  [[nodiscard]] const Launch* awaiting(std::uint64_t seq) const;
  /// Answers `l`; false, changing nothing, when `l` no longer awaits an
  /// outcome (a duplicate). Throws std::invalid_argument for a negative
  /// or non-finite duration, which would break admissibility.
  bool apply_outcome(const Launch& l, const EvalOutcome& outcome);
  /// Pops the next launch in (busy_end, seq) order if admissible: tells
  /// the method (or counts the failure), records the evaluation and
  /// relaunches the slot; a launch the wall cut only retires its slot.
  /// False when a source must answer first, or when outstanding() == 0.
  bool try_pop();

  [[nodiscard]] std::size_t outstanding() const noexcept {
    return outstanding_;
  }
  /// Completed (told) evaluations so far.
  [[nodiscard]] std::size_t evaluations() const noexcept {
    return result_.evals.size();
  }
  /// The result, utilization and busy curve included; consumes the
  /// campaign.
  [[nodiscard]] SimResult result() &&;

  /// The core's checkpoint block: method name, config, campaign state,
  /// outstanding launches (without outcomes), method state. load() fills
  /// a campaign that was never started; it throws std::runtime_error on
  /// a mismatched campaign or a value save() could not have written, and
  /// the campaign is then unusable.
  void save(io::BinaryWriter& writer) const;
  void load(io::BinaryReader& reader);

 private:
  enum class Stage : std::uint8_t { kIdle, kInFlight, kAnswered };
  /// A slot holds at most one outstanding launch: it relaunches only
  /// when that launch pops.
  struct Slot {
    Stage stage = Stage::kIdle;
    Launch launch;
  };
  using Key = std::tuple<double, std::uint64_t, std::size_t>;  // t, seq, slot

  void launch(std::size_t slot, double request_time);
  void enqueue(std::size_t slot);
  [[nodiscard]] const Launch* in_flight(std::uint64_t seq,
                                        std::size_t slot) const;

  search::SearchMethod& method_;
  ClusterConfig config_;
  Rng rng_;
  UtilizationTracker tracker_;
  double coordinator_free_ = 0.0;
  std::uint64_t eval_counter_ = 0;
  SimResult result_;

  std::vector<Slot> slots_;
  std::size_t outstanding_ = 0;
  // Min-heaps of (start, seq, slot) for launches in flight (keys of ones
  // answered since are dropped at the top) and (busy_end, seq, slot) for
  // answered ones.
  std::vector<Key> in_flight_starts_;
  std::vector<Key> answered_;
  std::deque<std::pair<std::uint64_t, std::size_t>> untaken_;  // seq, slot
};

}  // namespace geonas::hpc
