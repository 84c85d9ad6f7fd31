#include "serve/frozen_plan.hpp"

#include <stdexcept>
#include <utility>

namespace geonas::serve {

namespace {

/// The graph input's width. Every node before the first width-pinning
/// layer (LSTM/Dense) keeps its input's width, so that layer's input
/// width is node 0's.
std::size_t input_width(const nn::GraphNetwork& net) {
  for (std::size_t i = 1; i < net.node_count(); ++i) {
    const std::size_t width = net.node_layer(i)->in_features();
    if (width != 0) return width;
  }
  throw std::invalid_argument(
      "FrozenPlan: cannot infer the input width (no layer pins it)");
}

}  // namespace

FrozenPlan FrozenPlan::compile(const nn::GraphNetwork& net, std::size_t steps,
                               std::size_t max_batch) {
  if (steps == 0 || max_batch == 0) {
    throw std::invalid_argument("FrozenPlan: steps and max_batch must be > 0");
  }
  if (net.node_count() < 2 || net.output_id() == 0) {
    throw std::invalid_argument("FrozenPlan: network has no computational "
                                "nodes");
  }
  return {net.clone(), steps, max_batch};
}

FrozenPlan::FrozenPlan(nn::GraphNetwork net, std::size_t steps,
                       std::size_t max_batch)
    : net_(std::move(net)),
      steps_(steps),
      max_batch_(max_batch),
      in_features_(input_width(net_)) {
  net_.bind({max_batch_, steps_, in_features_, /*training=*/false});
  // A batch-1 forward packs the forward weight panels, so the first
  // run() is already warm.
  const Tensor3 window(1, steps_, in_features_);
  out_features_ = net_.forward_ref(window, /*training=*/false).dim2();
}

FrozenPlan FrozenPlan::clone_stream() const {
  return {net_.clone(), steps_, max_batch_};
}

const Tensor3& FrozenPlan::run(const Tensor3& input) {
  const std::size_t batch = input.dim0();
  if (batch == 0 || batch > max_batch_ || input.dim1() != steps_ ||
      input.dim2() != in_features_) {
    throw std::invalid_argument(
        "FrozenPlan::run: input [" + std::to_string(batch) + ", " +
        std::to_string(input.dim1()) + ", " + std::to_string(input.dim2()) +
        "] does not fit plan capacity [1.." + std::to_string(max_batch_) +
        ", " + std::to_string(steps_) + ", " + std::to_string(in_features_) +
        "]");
  }
  return net_.forward_ref(input, /*training=*/false);
}

std::string FrozenPlan::describe() const {
  return "FrozenPlan: steps=" + std::to_string(steps_) +
         " max_batch=" + std::to_string(max_batch_) +
         " in=" + std::to_string(in_features_) +
         " out=" + std::to_string(out_features_) + "\n" + net_.describe();
}

}  // namespace geonas::serve
