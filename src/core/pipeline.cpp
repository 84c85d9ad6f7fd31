#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "nn/loss.hpp"
#include "nn/trainer.hpp"

namespace geonas::core {

namespace {
/// The windowed examples' train/validation split (paper §II-B).
constexpr double kTrainFraction = 0.8;
constexpr std::uint64_t kSplitSeed = 1234;
}  // namespace

PODLSTMPipeline::PODLSTMPipeline(PipelineConfig config)
    : cfg_(config), mask_(config.setup.grid), sst_(config.sst) {}

void PODLSTMPipeline::prepare() {
  const auto& setup = cfg_.setup;

  // Fit POD on training-period snapshots only (paper: 1981-1989); the
  // basis and temporal mean are then reused for the test period.
  const Matrix train_snaps = sst_.snapshots(mask_, 0, setup.train_snapshots);
  pod_.fit(train_snaps, {.num_modes = setup.num_modes, .subtract_mean = true});

  // Project the full record in chunks so the full-scale grid never holds
  // all 1,914 snapshots at once. A chunk ends where training ends, so the
  // training weeks all come from train_snaps and none is generated twice.
  coeffs_.resize(setup.num_modes, setup.total_snapshots);
  constexpr std::size_t kChunk = 64;
  for (std::size_t w0 = 0, count = 0; w0 < setup.total_snapshots;
       w0 += count) {
    const bool training = w0 < setup.train_snapshots;
    const std::size_t end =
        training ? setup.train_snapshots : setup.total_snapshots;
    count = std::min(kChunk, end - w0);
    const Matrix chunk = training ? train_snaps.slice_cols(w0, w0 + count)
                                  : sst_.snapshots(mask_, w0, count);
    const Matrix a = pod_.project(chunk);
    for (std::size_t c = 0; c < count; ++c) {
      for (std::size_t m = 0; m < setup.num_modes; ++m) {
        coeffs_(m, w0 + c) = a(m, c);
      }
    }
  }

  // Per-mode standardization on training-period statistics: raw POD
  // coefficients are O(sqrt(Nh)) and would saturate LSTM gates.
  scale_mean_.assign(setup.num_modes, 0.0);
  scale_std_.assign(setup.num_modes, 1.0);
  for (std::size_t m = 0; m < setup.num_modes; ++m) {
    double acc = 0.0;
    for (std::size_t t = 0; t < setup.train_snapshots; ++t) {
      acc += coeffs_(m, t);
    }
    scale_mean_[m] = acc / static_cast<double>(setup.train_snapshots);
    double var = 0.0;
    for (std::size_t t = 0; t < setup.train_snapshots; ++t) {
      const double d = coeffs_(m, t) - scale_mean_[m];
      var += d * d;
    }
    scale_std_[m] =
        std::sqrt(var / static_cast<double>(setup.train_snapshots));
    if (scale_std_[m] < 1e-12) scale_std_[m] = 1.0;
  }
  scaled_coeffs_.resize(setup.num_modes, setup.total_snapshots);
  for (std::size_t m = 0; m < setup.num_modes; ++m) {
    for (std::size_t t = 0; t < setup.total_snapshots; ++t) {
      scaled_coeffs_(m, t) = (coeffs_(m, t) - scale_mean_[m]) / scale_std_[m];
    }
  }

  prepared_ = true;  // coefficients are in place; accessors are valid now

  // Windowed examples (scaled space) over the training period, split
  // 80/20 as a view plus index lists: training gathers batches straight
  // from the view, and split() materializes the examples on request.
  train_scaled_coeffs_ = scaled_coeffs_.slice_cols(0, setup.train_snapshots);
  train_view_.emplace(train_scaled_coeffs_,
                      data::WindowConfig{.window = setup.window, .stride = 1});
  split_indices_ = data::train_val_split_indices(train_view_->size(),
                                                 kTrainFraction, kSplitSeed);
}

data::SplitDataset PODLSTMPipeline::split() const {
  const data::WindowView& view = train_window_view();
  const auto gather = [&view](const std::vector<std::size_t>& idx) {
    data::WindowedDataset out{
        Tensor3(idx.size(), view.window(), view.features()),
        Tensor3(idx.size(), view.window(), view.features())};
    for (std::size_t i = 0; i < idx.size(); ++i) {
      view.gather_x(idx[i], out.x.block(i));
      view.gather_y(idx[i], out.y.block(i));
    }
    return out;
  };
  return {gather(split_indices_.train), gather(split_indices_.val)};
}

std::vector<double> PODLSTMPipeline::unscale(
    std::span<const double> scaled_column) const {
  require_prepared("unscale");
  if (scaled_column.size() != cfg_.setup.num_modes) {
    throw std::invalid_argument("PODLSTMPipeline::unscale: wrong size");
  }
  std::vector<double> raw(scaled_column.size());
  for (std::size_t m = 0; m < raw.size(); ++m) {
    raw[m] = scaled_column[m] * scale_std_[m] + scale_mean_[m];
  }
  return raw;
}

void PODLSTMPipeline::require_prepared(const char* who) const {
  if (!prepared_) {
    throw std::logic_error(std::string("PODLSTMPipeline::") + who +
                           " called before prepare()");
  }
}

Matrix PODLSTMPipeline::train_coefficients() const {
  require_prepared("train_coefficients");
  return coeffs_.slice_cols(0, cfg_.setup.train_snapshots);
}

Matrix PODLSTMPipeline::test_coefficients() const {
  require_prepared("test_coefficients");
  return coeffs_.slice_cols(cfg_.setup.train_snapshots,
                            cfg_.setup.total_snapshots);
}

data::WindowedDataset PODLSTMPipeline::windows(std::size_t week0,
                                               std::size_t week1) const {
  require_prepared("windows");
  require_week_range("windows", week0, week1);
  const Matrix range = scaled_coeffs_.slice_cols(week0, week1);
  return data::WindowView(range, {.window = cfg_.setup.window, .stride = 1})
      .materialize();
}

void PODLSTMPipeline::require_week_range(const char* who, std::size_t week0,
                                         std::size_t week1) const {
  const std::size_t k = cfg_.setup.window;
  const std::size_t total = cfg_.setup.total_snapshots;
  // Ordered checks: week0 < week1 must hold before any week1 - week0
  // arithmetic (the subtraction underflows on size_t otherwise, which
  // used to let an inverted range slip past the 2K length check).
  if (week0 >= week1 || week1 > total) {
    throw std::invalid_argument(
        std::string("PODLSTMPipeline::") + who + ": bad week range [week0=" +
        std::to_string(week0) + ", week1=" + std::to_string(week1) +
        "): need week0 < week1 <= total_snapshots=" + std::to_string(total));
  }
  if (week1 - week0 < 2 * k) {
    throw std::invalid_argument(
        std::string("PODLSTMPipeline::") + who + ": week range [week0=" +
        std::to_string(week0) + ", week1=" + std::to_string(week1) +
        ") spans " + std::to_string(week1 - week0) +
        " weeks but one window needs 2K = " + std::to_string(2 * k) +
        " (K=window=" + std::to_string(k) + ")");
  }
}

Matrix PODLSTMPipeline::forecast_coefficients(nn::GraphNetwork& net,
                                              std::size_t week0,
                                              std::size_t week1) const {
  require_prepared("forecast_coefficients");
  const std::size_t k = cfg_.setup.window;
  const std::size_t nr = cfg_.setup.num_modes;
  require_week_range("forecast_coefficients", week0, week1);
  const std::size_t t = week1 - week0;

  // Window starts tile the range with stride K; a final overlapping window
  // covers any remainder so every week >= K gets exactly one (or for the
  // tail, the freshest) prediction.
  std::vector<std::size_t> starts;
  for (std::size_t s = 0; s + 2 * k <= t; s += k) starts.push_back(s);
  if (starts.empty() || starts.back() + 2 * k < t) {
    starts.push_back(t - 2 * k);
  }

  Tensor3 inputs(starts.size(), k, nr);
  for (std::size_t w = 0; w < starts.size(); ++w) {
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t m = 0; m < nr; ++m) {
        inputs(w, i, m) = scaled_coeffs_(m, week0 + starts[w] + i);
      }
    }
  }
  const Tensor3 preds = nn::Trainer::predict(net, inputs);

  Matrix out(nr, t);
  // Unforecastable warm-up: copy the truth for the first K weeks.
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t m = 0; m < nr; ++m) out(m, i) = coeffs_(m, week0 + i);
  }
  for (std::size_t w = 0; w < starts.size(); ++w) {
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t col = starts[w] + k + i;
      for (std::size_t m = 0; m < nr; ++m) {
        out(m, col) = preds(w, i, m) * scale_std_[m] + scale_mean_[m];
      }
    }
  }
  return out;
}

Tensor3 PODLSTMPipeline::lead_predictions(nn::GraphNetwork& net,
                                          std::size_t week0,
                                          std::size_t week1) const {
  require_prepared("lead_predictions");
  const data::WindowedDataset set = windows(week0, week1);
  return nn::Trainer::predict(net, set.x);
}

std::vector<double> PODLSTMPipeline::truth_field(std::size_t week) const {
  return mask_.flatten(sst_.field(mask_.grid(), week));
}

std::vector<double> PODLSTMPipeline::reconstruct_field(
    std::span<const double> coefficient_column) const {
  require_prepared("reconstruct_field");
  if (coefficient_column.size() != cfg_.setup.num_modes) {
    throw std::invalid_argument(
        "PODLSTMPipeline::reconstruct_field: wrong coefficient count");
  }
  Matrix column(cfg_.setup.num_modes, 1);
  for (std::size_t m = 0; m < coefficient_column.size(); ++m) {
    column(m, 0) = coefficient_column[m];
  }
  const Matrix field = pod_.reconstruct(column);
  return {field.flat().begin(), field.flat().end()};
}

double PODLSTMPipeline::window_r2(const Tensor3& truth,
                                  const Tensor3& predicted) const {
  return nn::r2_metric(truth, predicted);
}

}  // namespace geonas::core
