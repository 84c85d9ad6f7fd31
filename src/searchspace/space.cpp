#include "searchspace/space.hpp"

#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "nn/merge.hpp"

namespace geonas::searchspace {

StackedLSTMSpace::StackedLSTMSpace(SpaceConfig config)
    : cfg_(std::move(config)) {
  if (cfg_.num_variable_nodes == 0) {
    throw std::invalid_argument("StackedLSTMSpace: need at least one node");
  }
  if (cfg_.operations.size() < 2) {
    throw std::invalid_argument(
        "StackedLSTMSpace: need at least two operations per variable node");
  }
  const std::size_t m = cfg_.num_variable_nodes;
  op_gene_index_.resize(m);
  skip_slots_.resize(m + 1);

  // Gene layout follows the paper's Fig. 2 node ordering: skip-connection
  // variable nodes are inserted immediately before their incumbent node.
  for (std::size_t p = 0; p <= m; ++p) {
    // Skip genes into position p: sources are the skip_depth nearest
    // non-immediate predecessors (the immediate predecessor is p-1);
    // position -1 denotes the graph input.
    if (p >= 1) {
      const long lowest =
          static_cast<long>(p) - 1 - static_cast<long>(cfg_.skip_depth);
      for (long src = static_cast<long>(p) - 2; src >= std::max(-1L, lowest);
           --src) {
        skip_slots_[p].push_back({gene_choices_.size(), src});
        gene_choices_.push_back(2);
        skip_gene_.push_back(true);
      }
    }
    if (p < m) {
      op_gene_index_[p] = gene_choices_.size();
      gene_choices_.push_back(cfg_.operations.size());
      skip_gene_.push_back(false);
    }
  }
}

std::uint64_t StackedLSTMSpace::cardinality() const noexcept {
  std::uint64_t total = 1;
  for (std::size_t c : gene_choices_) {
    if (total > std::numeric_limits<std::uint64_t>::max() / c) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    total *= c;
  }
  return total;
}

Architecture StackedLSTMSpace::random_architecture(Rng& rng) const {
  Architecture arch;
  arch.genes.reserve(num_genes());
  for (std::size_t c : gene_choices_) {
    arch.genes.push_back(static_cast<int>(rng.uniform_index(c)));
  }
  return arch;
}

Architecture StackedLSTMSpace::mutate(const Architecture& parent,
                                      Rng& rng) const {
  if (!valid(parent)) {
    throw std::invalid_argument("StackedLSTMSpace::mutate: invalid parent");
  }
  Architecture child = parent;
  const std::size_t gene = rng.uniform_index(num_genes());
  const std::size_t choices = gene_choices_[gene];
  // Re-draw uniformly among the *other* values of the chosen gene.
  const auto shift = 1 + rng.uniform_index(choices - 1);
  child.genes[gene] = static_cast<int>(
      (static_cast<std::size_t>(child.genes[gene]) + shift) % choices);
  return child;
}

bool StackedLSTMSpace::valid(const Architecture& arch) const noexcept {
  if (arch.genes.size() != num_genes()) return false;
  for (std::size_t g = 0; g < arch.genes.size(); ++g) {
    if (arch.genes[g] < 0 ||
        static_cast<std::size_t>(arch.genes[g]) >= gene_choices_[g]) {
      return false;
    }
  }
  return true;
}

nn::GraphNetwork StackedLSTMSpace::build(const Architecture& arch) const {
  if (!valid(arch)) {
    throw std::invalid_argument("StackedLSTMSpace::build: invalid genes");
  }
  const std::size_t m = cfg_.num_variable_nodes;
  nn::GraphNetwork net;

  // Chain-position node outputs: out[p + 1] for position p, out[0] = input.
  std::vector<std::size_t> out_id(m + 2);
  std::vector<std::size_t> out_width(m + 2);
  out_id[0] = nn::GraphNetwork::input_id();
  out_width[0] = cfg_.input_features;

  for (std::size_t p = 0; p <= m; ++p) {
    std::size_t cur_id = out_id[p];
    std::size_t cur_width = out_width[p];

    // Merge active skip connections into this position's input: project
    // each source to the incumbent width with an activation-free Dense,
    // sum, then ReLU (paper §III-A / §IV).
    std::vector<std::size_t> merge_inputs{cur_id};
    for (const SkipSlot& slot : skips_into(p)) {
      if (arch.genes[slot.gene] == 0) continue;
      const std::size_t src_index =
          static_cast<std::size_t>(slot.source_position + 1);
      const std::size_t src_id = out_id[src_index];
      const std::size_t src_width = out_width[src_index];
      const std::size_t proj = net.add_node(
          std::make_unique<nn::Dense>(src_width, cur_width,
                                      nn::Activation::kIdentity),
          {src_id});
      merge_inputs.push_back(proj);
    }
    if (merge_inputs.size() > 1) {
      cur_id = net.add_node(
          std::make_unique<nn::AddMerge>(merge_inputs.size()),
          merge_inputs);
    }

    if (p < m) {
      const NodeOp& op =
          cfg_.operations[static_cast<std::size_t>(arch.genes[op_gene_index(p)])];
      if (op.is_identity()) {
        out_id[p + 1] = cur_id;
        out_width[p + 1] = cur_width;
      } else {
        out_id[p + 1] = net.add_node(
            std::make_unique<nn::LSTM>(cur_width, op.units), {cur_id});
        out_width[p + 1] = op.units;
      }
    } else {
      // Constant output node: LSTM(output_features), fixed for every
      // architecture in the space.
      out_id[p + 1] = net.add_node(
          std::make_unique<nn::LSTM>(cur_width, cfg_.output_features),
          {cur_id});
      out_width[p + 1] = cfg_.output_features;
    }
  }
  net.set_output(out_id[m + 1]);
  return net;
}

std::size_t StackedLSTMSpace::param_count(const Architecture& arch) const {
  nn::GraphNetwork net = build(arch);
  return net.param_count();
}

StackedLSTMSpace::Stats StackedLSTMSpace::stats(const Architecture& arch) const {
  if (!valid(arch)) {
    throw std::invalid_argument("StackedLSTMSpace::stats: invalid genes");
  }
  Stats s;
  const std::size_t m = cfg_.num_variable_nodes;

  // Analytic walk mirroring build(): track node-output widths so skip
  // projections and LSTM kernels are costed without allocating a network.
  // LSTM(in -> u): 4u(in + u + 1); Dense(in -> out): (in + 1) * out.
  std::vector<std::size_t> out_width(m + 2);
  out_width[0] = cfg_.input_features;
  std::vector<std::size_t> active_widths;
  for (std::size_t p = 0; p <= m; ++p) {
    const std::size_t cur_width = out_width[p];
    for (const SkipSlot& slot : skips_into(p)) {
      if (arch.genes[slot.gene] == 0) continue;
      ++s.active_skips;
      const std::size_t src_width =
          out_width[static_cast<std::size_t>(slot.source_position + 1)];
      s.params += (src_width + 1) * cur_width;
    }
    if (p < m) {
      const NodeOp& op = cfg_.operations[static_cast<std::size_t>(
          arch.genes[op_gene_index(p)])];
      if (op.is_identity()) {
        out_width[p + 1] = cur_width;
      } else {
        ++s.active_lstm_nodes;
        s.total_units += op.units;
        active_widths.push_back(op.units);
        s.params += 4 * op.units * (cur_width + op.units + 1);
        out_width[p + 1] = op.units;
      }
    } else {
      const std::size_t out = cfg_.output_features;
      s.params += 4 * out * (cur_width + out + 1);
      out_width[p + 1] = out;
    }
  }
  // Width inversions: active LSTM pairs where a later layer is wider than
  // an earlier one (used by the surrogate fitness landscape).
  for (std::size_t i = 0; i < active_widths.size(); ++i) {
    for (std::size_t j = i + 1; j < active_widths.size(); ++j) {
      if (active_widths[j] > active_widths[i]) ++s.width_inversions;
    }
  }
  return s;
}

std::string StackedLSTMSpace::describe(const Architecture& arch) const {
  if (!valid(arch)) {
    throw std::invalid_argument("StackedLSTMSpace::describe: invalid genes");
  }
  std::ostringstream os;
  os << "Input(" << cfg_.input_features << ")\n";
  const std::size_t m = cfg_.num_variable_nodes;
  for (std::size_t p = 0; p <= m; ++p) {
    for (const SkipSlot& slot : skips_into(p)) {
      if (arch.genes[slot.gene] == 0) continue;
      os << "  skip from "
         << (slot.source_position < 0
                 ? std::string("input")
                 : "node " + std::to_string(slot.source_position))
         << " (Dense projection + add + ReLU)\n";
    }
    if (p < m) {
      const NodeOp& op =
          cfg_.operations[static_cast<std::size_t>(arch.genes[op_gene_index(p)])];
      os << "node " << p << ": " << op.label() << "\n";
    } else {
      os << "output: LSTM(" << cfg_.output_features << ") [constant]\n";
    }
  }
  return os.str();
}

}  // namespace geonas::searchspace
