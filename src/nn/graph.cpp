#include "nn/graph.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "hpc/parallel_for.hpp"
#include "tensor/gemm_kernel.hpp"

namespace geonas::nn {

namespace {

/// Rough cost of packing one double (a strided gather and a store,
/// ~1.5 ns), in blocked-GEMM flops of the same duration. Sizes the
/// parallel_for threshold test of the re-pack fork-join.
constexpr double kPackFlopsPerDouble = 8.0;

/// Doubles in the panel a pack site holds.
std::size_t packed_doubles(const PackSite& site) {
  const std::size_t rows = site.weights->rows(), cols = site.weights->cols();
  return site.trans == Trans::kTranspose ? detail::packed_b_doubles(cols, rows)
                                         : detail::packed_b_doubles(rows, cols);
}

}  // namespace

GraphNetwork::GraphNetwork() {
  // geonas-lint: allow(hot-path-alloc) construction: node 0 placeholder
  nodes_.emplace_back();
}

std::size_t GraphNetwork::add_node(std::unique_ptr<Layer> layer,
                                   std::vector<std::size_t> input_ids) {
  if (!layer) throw std::invalid_argument("GraphNetwork: null layer");
  if (input_ids.empty()) {
    throw std::invalid_argument("GraphNetwork: node needs at least one input");
  }
  for (std::size_t id : input_ids) {
    if (id >= nodes_.size()) {
      throw std::invalid_argument(
          "GraphNetwork: input id refers to a node that does not exist yet");
    }
  }
  if (layer->arity() != input_ids.size()) {
    throw std::invalid_argument("GraphNetwork: layer arity " +
                                std::to_string(layer->arity()) +
                                " != input count " +
                                std::to_string(input_ids.size()));
  }
  Node node;
  node.layer = std::move(layer);
  node.inputs = std::move(input_ids);
  // geonas-lint: allow(hot-path-alloc) graph construction
  nodes_.push_back(std::move(node));
  output_ = nodes_.size() - 1;
  bound_ = {};  // force a rebind
  grad_cache_.clear();
  pack_sites_.clear();
  pack_offsets_.clear();
  return output_;
}

GraphNetwork GraphNetwork::clone() const {
  GraphNetwork copy;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    copy.add_node(nodes_[i].layer->clone(), nodes_[i].inputs);
  }
  copy.set_output(output_);
  return copy;
}

void GraphNetwork::set_output(std::size_t node_id) {
  if (node_id >= nodes_.size()) {
    throw std::invalid_argument("GraphNetwork::set_output: bad node id");
  }
  output_ = node_id;
}

void GraphNetwork::init_params(std::uint64_t seed) {
  Rng rng(seed);
  for (auto& node : nodes_) {
    if (node.layer) node.layer->init_params(rng);
  }
}

void GraphNetwork::bind(const WorkspaceShape& shape) {
  // Cold path: runs once per grown shape, so the allocations below
  // (arena slabs, buffer capacity, error text) never recur per batch.
  bound_ = {};  // a throwing bind leaves the graph unbound
  if (!arena_) arena_ = std::make_unique<tensor::Arena>();
  arena_->reset();
  nodes_[0].out_features = shape.features;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    const std::size_t in_feat = nodes_[node.inputs[0]].out_features;
    for (std::size_t id : node.inputs) {
      if (nodes_[id].out_features != in_feat) {
        throw std::invalid_argument(
            "GraphNetwork: node " + std::to_string(i) +
            " has inputs of different widths: node " +
            std::to_string(node.inputs[0]) + " is " + std::to_string(in_feat) +
            " wide, node " + std::to_string(id) + " is " +
            std::to_string(nodes_[id].out_features));
      }
    }
    node.out_features = node.layer->output_features(in_feat);
    WorkspaceShape layer_shape = shape;
    layer_shape.features = in_feat;
    node.layer->bind(*arena_, layer_shape);
    node.activation.ensure_shape(shape.batch, shape.steps, node.out_features);
    // geonas-lint: allow(hot-path-alloc) bind time, once per grown shape
    node.in_ptrs.reserve(node.inputs.size());
    // geonas-lint: allow(hot-path-alloc) bind time, once per grown shape
    node.grad_ptrs.reserve(node.inputs.size());
    // geonas-lint: allow(hot-path-alloc) bind time, once per grown shape
    node.grad_scratch.resize(node.inputs.size());
  }
  bound_ = shape;
  arena_->export_stats();
}

Tensor3 GraphNetwork::forward(const Tensor3& input, bool training) {
  return forward_ref(input, training);
}

const Tensor3& GraphNetwork::forward_ref(const Tensor3& input, bool training) {
  if (nodes_.size() < 2 || output_ == 0) {
    throw std::logic_error("GraphNetwork: no computational nodes");
  }
  if (!bound_.fits(input, training)) bind(bound_.grown(input, training));
  // Only a training forward's input must outlive the call.
  external_input_ = training ? &input : nullptr;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    // Sized at the bound batch by bind(): a smaller batch reuses it.
    node.activation.ensure_shape(input.dim0(), input.dim1(),
                                 node.out_features);
    node.in_ptrs.clear();
    for (std::size_t id : node.inputs) {
      // geonas-lint: allow(hot-path-alloc) capacity reserved at bind
      node.in_ptrs.push_back(id == 0 ? &input : &nodes_[id].activation);
    }
    node.layer->forward_into(node.in_ptrs, node.activation, training);
  }
  return nodes_[output_].activation;
}

Tensor3 GraphNetwork::backward(const Tensor3& grad_output) {
  return backward_ref(grad_output);
}

const Tensor3& GraphNetwork::backward_ref(const Tensor3& grad_output) {
  if (external_input_ == nullptr) {
    throw std::logic_error("GraphNetwork: backward without a training "
                           "forward");
  }
  for (auto& node : nodes_) node.grad_set = false;

  for (std::size_t i = nodes_.size(); i-- > 1;) {
    Node& node = nodes_[i];
    const bool is_output = i == output_;
    if (!is_output && !node.grad_set) {
      continue;  // node not on a path to the output
    }
    // Each input slot's gradient is written directly into the source
    // node's buffer on first visit; fan-out slots go through the node's
    // scratch tensor and accumulate after the layer call. Layers fully
    // overwrite every slot, so direct writes need no pre-zeroing.
    node.grad_ptrs.clear();
    for (std::size_t k = 0; k < node.inputs.size(); ++k) {
      Node& src = nodes_[node.inputs[k]];
      const Tensor3& shape_of =
          node.inputs[k] == 0 ? *external_input_ : src.activation;
      if (!src.grad_set) {
        src.grad.ensure_shape(shape_of.dim0(), shape_of.dim1(),
                              shape_of.dim2());
        // geonas-lint: allow(hot-path-alloc) capacity reserved at bind
        node.grad_ptrs.push_back(&src.grad);
        src.grad_set = true;
      } else {
        node.grad_scratch[k].ensure_shape(shape_of.dim0(), shape_of.dim1(),
                                          shape_of.dim2());
        // geonas-lint: allow(hot-path-alloc) capacity reserved at bind
        node.grad_ptrs.push_back(&node.grad_scratch[k]);
      }
    }
    node.layer->backward_into(is_output ? grad_output : node.grad,
                              node.grad_ptrs);
    for (std::size_t k = 0; k < node.inputs.size(); ++k) {
      if (node.grad_ptrs[k] != &node.grad_scratch[k]) continue;
      Node& src = nodes_[node.inputs[k]];
      auto dst = src.grad.flat();
      const auto add = node.grad_scratch[k].flat();
      if (dst.size() != add.size()) {
        throw std::logic_error("GraphNetwork: fan-out gradient shape clash");
      }
      for (std::size_t j = 0; j < dst.size(); ++j) dst[j] += add[j];
    }
  }
  if (!nodes_[0].grad_set) {
    throw std::logic_error("GraphNetwork: input unreachable from output");
  }
  return nodes_[0].grad;
}

void GraphNetwork::zero_grad() {
  // Zeroes through a cached pointer list: Layer::zero_grad() builds its
  // gradient vector per call, which would put one allocation per layer
  // on every batch (zero_grad runs before each training step).
  if (grad_cache_.empty()) grad_cache_ = gradients();
  for (Matrix* g : grad_cache_) g->fill(0.0);
}

void GraphNetwork::repack_weights() {
  if (pack_offsets_.empty()) {
    // Cold: once per graph structure.
    pack_offsets_.push_back(0);  // geonas-lint: allow(hot-path-alloc) collected once per structure
    for (const Node& node : nodes_) {
      if (!node.layer) continue;
      for (const PackSite& site : node.layer->pack_sites()) {
        // geonas-lint: allow(hot-path-alloc) collected once per structure
        pack_sites_.push_back(site);
        // geonas-lint: allow(hot-path-alloc) collected once per structure
        pack_offsets_.push_back(pack_offsets_.back() + packed_doubles(site));
      }
    }
  }
  // One fork-join over the packed doubles of every site: a chunk
  // re-packs the sites that start inside it, so chunks balance by packed
  // size. Each site writes only its own panel and reads only its
  // weights, whose versions the optimizer bumped before the fork.
  const std::size_t total = pack_offsets_.back();
  hpc::parallel_for(
      0, total, kPackFlopsPerDouble * static_cast<double>(total), 1,
      [&](std::size_t lo, std::size_t hi) {
        auto it = std::lower_bound(pack_offsets_.begin(),
                                   pack_offsets_.end() - 1, lo);
        for (; it != pack_offsets_.end() - 1 && *it < hi; ++it) {
          pack_sites_[static_cast<std::size_t>(it - pack_offsets_.begin())]
              .ensure();
        }
      });
}

std::vector<Matrix*> GraphNetwork::parameters() {
  std::vector<Matrix*> out;
  for (auto& node : nodes_) {
    if (!node.layer) continue;
    // geonas-lint: allow(hot-path-alloc) cold: optimizer/serializer setup
    for (Matrix* p : node.layer->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<Matrix*> GraphNetwork::gradients() {
  std::vector<Matrix*> out;
  for (auto& node : nodes_) {
    if (!node.layer) continue;
    // geonas-lint: allow(hot-path-alloc) cold: cached by zero_grad
    for (Matrix* g : node.layer->gradients()) out.push_back(g);
  }
  return out;
}

std::size_t GraphNetwork::param_count() {
  std::size_t n = 0;
  for (auto& node : nodes_) {
    if (node.layer) n += node.layer->param_count();
  }
  return n;
}

std::string GraphNetwork::to_dot(const std::string& graph_name) const {
  std::ostringstream os;
  os << "digraph " << graph_name << " {\n  rankdir=BT;\n"
     << "  node [shape=box, fontname=\"Helvetica\"];\n"
     << "  n0 [label=\"Input\", style=filled, fillcolor=lightgray];\n";
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    os << "  n" << i << " [label=\"" << nodes_[i].layer->name() << "\"";
    if (i == output_) os << ", style=filled, fillcolor=lightblue";
    os << "];\n";
  }
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    for (std::size_t src : nodes_[i].inputs) {
      os << "  n" << src << " -> n" << i << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string GraphNetwork::describe() const {
  std::ostringstream os;
  os << "node 0: Input\n";
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    os << "node " << i << ": " << nodes_[i].layer->name() << " <- (";
    for (std::size_t k = 0; k < nodes_[i].inputs.size(); ++k) {
      os << nodes_[i].inputs[k] << (k + 1 < nodes_[i].inputs.size() ? ", " : "");
    }
    os << ")" << (i == output_ ? "  [output]" : "") << "\n";
  }
  return os.str();
}

}  // namespace geonas::nn
