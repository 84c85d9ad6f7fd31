#include "nn/trainer.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "tensor/random.hpp"

namespace geonas::nn {

double TrainHistory::best_val_r2() const {
  if (val_r2.empty()) return -std::numeric_limits<double>::infinity();
  return *std::max_element(val_r2.begin(), val_r2.end());
}

std::vector<std::size_t> lr_decay_epochs(std::size_t epochs) {
  std::vector<std::size_t> steps;
  for (const std::size_t step : {epochs / 2, epochs * 3 / 4}) {
    if (step == 0) continue;  // never decay before any full-rate epoch
    if (steps.empty() || steps.back() != step) steps.push_back(step);
  }
  return steps;
}

namespace {

/// Global gradient-norm clip per step; stabilizes deep skip-heavy stacks.
constexpr double kGradClipNorm = 10.0;

/// Gathers the examples at `idx` into persistent batch buffers (resized in
/// place; allocation-free once their capacity covers the batch shape).
void gather_batch(const ExampleSource& src, std::span<const std::size_t> idx,
                  Tensor3& xb, Tensor3& yb) {
  xb.ensure_shape(idx.size(), src.x_steps(), src.x_features());
  yb.ensure_shape(idx.size(), src.y_steps(), src.y_features());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    src.gather_x(idx[i], xb.block(i));
    src.gather_y(idx[i], yb.block(i));
  }
}

}  // namespace

void predict_into(GraphNetwork& net, const ExampleSource& src, Tensor3& out,
                  Tensor3& x_scratch, std::size_t batch_size) {
  const std::size_t n = src.size();
  if (n == 0) {
    out = {};
    return;
  }
  batch_size = std::max<std::size_t>(1, batch_size);
  bool first = true;
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t end = std::min(start + batch_size, n);
    x_scratch.ensure_shape(end - start, src.x_steps(), src.x_features());
    for (std::size_t i = 0; i < end - start; ++i) {
      src.gather_x(start + i, x_scratch.block(i));
    }
    const Tensor3& pb = net.forward_ref(x_scratch, /*training=*/false);
    if (first) {
      out.ensure_shape(n, pb.dim1(), pb.dim2());
      first = false;
    }
    for (std::size_t i = 0; i < pb.dim0(); ++i) {
      const auto sb = pb.block(i);
      auto db = out.block(start + i);
      std::copy(sb.begin(), sb.end(), db.begin());
    }
  }
}

TrainHistory Trainer::fit(GraphNetwork& net, const ExampleSource& train,
                          const ExampleSource* val) const {
  const std::size_t n = train.size();
  if (n == 0) {
    throw std::invalid_argument("Trainer::fit: bad training example count");
  }
  if (val != nullptr && val->size() == 0) val = nullptr;
  const std::size_t bs = std::max<std::size_t>(1, cfg_.batch_size);

  Adam optimizer(net.parameters(), net.gradients(),
                 {.learning_rate = cfg_.learning_rate});
  // Hoisted: net.gradients() builds a fresh vector per call, which must
  // not happen once per batch.
  const std::vector<Matrix*> grad_list = net.gradients();
  Rng rng(cfg_.seed);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  // Persistent step buffers: sized on the first batch, reused afterwards.
  // The graph's own workspaces live in its arena; these cover everything
  // the trainer feeds it, so the steady-state step never touches the heap.
  Tensor3 xb, yb, grad;
  Tensor3 val_pred, val_scratch, y_val;
  if (val != nullptr) {
    y_val.ensure_shape(val->size(), val->y_steps(), val->y_features());
    for (std::size_t e = 0; e < val->size(); ++e) {
      val->gather_y(e, y_val.block(e));
    }
  }

  const std::vector<std::size_t> decay_epochs = lr_decay_epochs(cfg_.epochs);
  // Telemetry: per-epoch forward/backward/update wall time, LR, and loss
  // curves. `timed` gates every clock read so a disabled registry costs
  // one null check per fit. Histograms/series are looked up per epoch
  // (not per batch) to keep the enabled path cheap too.
  obs::MetricsRegistry* reg = obs::registry();
  const obs::ScopedTimer fit_span(reg, "trainer.fit");
  const bool timed = reg != nullptr;
  obs::StopWatch lap;
  TrainHistory history;
  for (std::size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
    const obs::ScopedTimer epoch_span(reg, "trainer.epoch");
    if (cfg_.lr_step_decay != 1.0 &&
        std::find(decay_epochs.begin(), decay_epochs.end(), epoch) !=
            decay_epochs.end()) {
      optimizer.set_learning_rate(optimizer.learning_rate() *
                                  cfg_.lr_step_decay);
    }
    rng.shuffle(std::span<std::size_t>(order));
    double epoch_loss = 0.0;
    double fwd_seconds = 0.0, bwd_seconds = 0.0, opt_seconds = 0.0;
    for (std::size_t start = 0; start < n; start += bs) {
      const std::size_t end = std::min(start + bs, n);
      const std::span<const std::size_t> idx(order.data() + start, end - start);
      gather_batch(train, idx, xb, yb);

      net.zero_grad();
      if (timed) lap.reset();
      const Tensor3& pred = net.forward_ref(xb, /*training=*/true);
      if (timed) fwd_seconds += lap.lap();
      // mse_loss is a per-element mean; weight each batch by its example
      // count so a short final batch does not skew the epoch average.
      epoch_loss += mse_loss(yb, pred) * static_cast<double>(end - start);
      if (timed) lap.reset();
      mse_grad_into(yb, pred, grad);
      net.backward_ref(grad);
      clip_gradients_by_norm(grad_list, kGradClipNorm);
      if (timed) bwd_seconds += lap.lap();
      optimizer.step();
      // Eager re-pack of the weight panels the step just invalidated, so
      // the next forward (or a serve freeze) starts warm; counted as
      // update time since it is part of applying the step.
      net.repack_weights();
      if (timed) opt_seconds += lap.lap();
    }
    history.train_loss.push_back(epoch_loss / static_cast<double>(n));

    if (val != nullptr) {
      predict_into(net, *val, val_pred, val_scratch);
      history.val_loss.push_back(mse_loss(y_val, val_pred));
      history.val_r2.push_back(r2_metric(y_val, val_pred));
    }
    if (timed) {
      const auto e = static_cast<double>(epoch);
      reg->counter("trainer.epochs").add(1);
      reg->histogram("trainer.forward_seconds").observe(fwd_seconds);
      reg->histogram("trainer.backward_seconds").observe(bwd_seconds);
      reg->histogram("trainer.update_seconds").observe(opt_seconds);
      reg->gauge("trainer.learning_rate").set(optimizer.learning_rate());
      reg->series("trainer.train_loss").append(e, history.train_loss.back());
      if (!history.val_loss.empty()) {
        reg->series("trainer.val_loss").append(e, history.val_loss.back());
        reg->series("trainer.val_r2").append(e, history.val_r2.back());
      }
    }
  }
  return history;
}

TrainHistory Trainer::fit(GraphNetwork& net, const Tensor3& x,
                          const Tensor3& y, const Tensor3& x_val,
                          const Tensor3& y_val) const {
  if (x.dim0() == 0 || x.dim0() != y.dim0()) {
    throw std::invalid_argument("Trainer::fit: bad training example count");
  }
  if (x_val.dim0() != y_val.dim0()) {
    throw std::invalid_argument("Trainer::fit: bad validation example count");
  }
  const TensorPairSource train(x, y);
  if (x_val.dim0() == 0) return fit(net, train, nullptr);
  const TensorPairSource val(x_val, y_val);
  return fit(net, train, &val);
}

Tensor3 Trainer::predict(GraphNetwork& net, const Tensor3& x,
                         std::size_t batch_size) {
  if (x.dim0() == 0) return {};
  const TensorPairSource src(x, x);
  Tensor3 out, scratch;
  predict_into(net, src, out, scratch, batch_size);
  return out;
}

}  // namespace geonas::nn
