// Node-utilization accounting (paper §IV-D, Table III).
//
// The paper computes node utilization as the trapezoidal area under the
// observed busy-node curve divided by the ideal (all nodes busy for the
// whole wall time). UtilizationTracker collects per-node busy intervals
// and produces both the scalar AUC ratio and a sampled busy-fraction
// curve for trajectory plots (Fig 9).
#pragma once

#include <cstddef>
#include <vector>

namespace geonas::hpc {

class UtilizationTracker {
 public:
  UtilizationTracker(std::size_t nodes, double wall_time_seconds);

  /// Records a half-open busy interval [start, end) on any node; intervals
  /// beyond the wall time are clipped.
  void add_busy(double start, double end);

  /// AUC(observed busy curve) / AUC(all nodes busy) via the trapezoidal
  /// rule on the step curve.
  [[nodiscard]] double utilization_auc() const;

  /// Busy-node fraction sampled every `dt` seconds (curve for plots).
  [[nodiscard]] std::vector<double> busy_fraction_curve(double dt) const;

  [[nodiscard]] std::size_t nodes() const noexcept { return nodes_; }

  /// Recorded (already clipped) busy intervals, in insertion order.
  /// AsyncCampaign serializes these into campaign checkpoints so a
  /// resumed campaign reports the same utilization as an uninterrupted
  /// one.
  [[nodiscard]] const std::vector<std::pair<double, double>>& intervals()
      const noexcept {
    return intervals_;
  }
  /// Replaces the recorded intervals (checkpoint resume).
  void restore_intervals(std::vector<std::pair<double, double>> intervals) {
    intervals_ = std::move(intervals);
  }

 private:
  std::size_t nodes_;
  double wall_;
  std::vector<std::pair<double, double>> intervals_;
};

}  // namespace geonas::hpc
