// The end-to-end POD-LSTM pipeline (paper Fig. 1).
//
// Owns the synthetic SST record, fits POD on the training-period
// snapshots, extracts windowed coefficient examples, and provides the
// forecasting operations every experiment needs: seq-to-seq coefficient
// forecasts from true past windows (non-autoregressive, §IV-B), per-lead
// predictions for the weekly RMSE breakdown (Table I), and full-field
// reconstruction through the retained basis.
#pragma once

#include <optional>

#include "core/scale.hpp"
#include "data/comparators.hpp"
#include "data/landmask.hpp"
#include "data/sst.hpp"
#include "data/windowing.hpp"
#include "nn/graph.hpp"
#include "pod/pod.hpp"

namespace geonas::core {

struct PipelineConfig {
  ExperimentSetup setup;
  data::SSTOptions sst{};

  [[nodiscard]] static PipelineConfig from_env() {
    return {.setup = ExperimentSetup::from_env()};
  }
};

class PODLSTMPipeline {
 public:
  explicit PODLSTMPipeline(PipelineConfig config);

  /// Generates the training snapshots, fits the POD basis, projects the
  /// entire record, and builds the window view and its train/val index
  /// split. Must be called before any other member.
  void prepare();

  [[nodiscard]] const PipelineConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const data::LandMask& mask() const noexcept { return mask_; }
  [[nodiscard]] const data::SyntheticSST& sst() const noexcept { return sst_; }
  [[nodiscard]] const pod::POD& pod() const noexcept { return pod_; }

  /// Raw POD coefficients of the full record, Nr x total_snapshots; column
  /// w is snapshot week w.
  [[nodiscard]] const Matrix& coefficients() const noexcept { return coeffs_; }
  /// Per-mode standardized coefficients (zero mean / unit variance on the
  /// training period). Networks and baselines train in this space — raw
  /// POD coefficients are O(100) and would saturate LSTM gates.
  [[nodiscard]] const Matrix& scaled_coefficients() const noexcept {
    return scaled_coeffs_;
  }
  /// Training-period slice of the raw coefficients.
  [[nodiscard]] Matrix train_coefficients() const;
  /// Test-period slice of the raw coefficients.
  [[nodiscard]] Matrix test_coefficients() const;

  /// Maps one scaled coefficient vector (Nr values) back to raw space.
  [[nodiscard]] std::vector<double> unscale(
      std::span<const double> scaled_column) const;

  /// The 80/20 windowed training split (in scaled-coefficient space),
  /// materialized per call: example i of split().train is
  /// train_window_view()'s example split_indices().train[i] (same for
  /// val). Training paths that need no copy use the view directly.
  [[nodiscard]] data::SplitDataset split() const;
  /// Zero-copy window view over the scaled training-period coefficients
  /// (the examples split() materializes). Valid after prepare(); stays
  /// valid for the pipeline's lifetime.
  [[nodiscard]] const data::WindowView& train_window_view() const {
    require_prepared("train_window_view");
    return *train_view_;
  }
  /// Which view examples belong to the train/validation split (the same
  /// permutation split() used). Pair with train_window_view() and
  /// core::WindowExampleSource to train without materialized windows.
  [[nodiscard]] const data::SplitIndices& split_indices() const noexcept {
    return split_indices_;
  }
  /// All windowed examples (scaled space) over weeks [week0, week1).
  [[nodiscard]] data::WindowedDataset windows(std::size_t week0,
                                              std::size_t week1) const;

  /// Tiled seq-to-seq coefficient forecast for weeks [week0, week1):
  /// every forecast window consumes the TRUE previous K weeks (the paper's
  /// non-autoregressive protocol). The first K columns of the result are
  /// a copy of the truth (no prediction exists for them). Returns Nr x
  /// (week1 - week0).
  [[nodiscard]] Matrix forecast_coefficients(nn::GraphNetwork& net,
                                             std::size_t week0,
                                             std::size_t week1) const;

  /// Stride-1 per-lead predictions over weeks [week0, week1): result
  /// [n_windows, K, Nr] in SCALED space (matching windows()), where entry
  /// (w, l, :) predicts week week0 + w + K + l from the true window
  /// starting at week0 + w. Use unscale() per (w, l) row before
  /// reconstructing fields.
  [[nodiscard]] Tensor3 lead_predictions(nn::GraphNetwork& net,
                                         std::size_t week0,
                                         std::size_t week1) const;

  /// Truth ocean-flattened field for one week (Nh vector).
  [[nodiscard]] std::vector<double> truth_field(std::size_t week) const;
  /// Reconstructed ocean field from one coefficient column (Nr values).
  [[nodiscard]] std::vector<double> reconstruct_field(
      std::span<const double> coefficient_column) const;

  /// R^2 between predicted and true target windows over a week range —
  /// the Table II metric. The same windows are used for every method.
  [[nodiscard]] double window_r2(const Tensor3& truth,
                                 const Tensor3& predicted) const;

 private:
  PipelineConfig cfg_;
  data::LandMask mask_;
  data::SyntheticSST sst_;
  pod::POD pod_;
  Matrix coeffs_;
  Matrix scaled_coeffs_;
  std::vector<double> scale_mean_;
  std::vector<double> scale_std_;
  // Training-period slice backing train_view_ (the view is non-owning).
  Matrix train_scaled_coeffs_;
  std::optional<data::WindowView> train_view_;
  data::SplitIndices split_indices_;
  bool prepared_ = false;

  void require_prepared(const char* who) const;
  /// Validates a [week0, week1) range: ordered, within the record, and
  /// long enough for at least one 2K window. Throws with every value
  /// named. Ordering is checked before any week1 - week0 arithmetic.
  void require_week_range(const char* who, std::size_t week0,
                          std::size_t week1) const;
};

}  // namespace geonas::core
