// The stacked-LSTM NAS search space (paper §III-A).
//
// The space is a chain of m variable LSTM nodes between a fixed input and
// a fixed constant LSTM(Nr) output node. Each variable node chooses from
// an operation list (Identity or LSTM with one of several widths). Before
// every chain position p >= 1 (including the output node) the space
// inserts binary skip-connection variable nodes selecting direct
// connections from earlier outputs, bypassing the immediate predecessor;
// candidate sources are the `skip_depth` nearest non-immediate
// predecessors (nearest first), the graph input included. With m = 5 and
// skip_depth = 2 this yields the paper's 9 skip-connection nodes; with
// m = 2 it yields the 3 shown in the paper's Fig. 2.
//
// When a skip connection is active, the source tensor passes through a
// projection Dense layer (no activation) to the width of the incumbent
// tensor, the tensors are summed, and ReLU is applied after the add — the
// exact semantics of §III-A/§IV.
//
// Gene layout (matching the node ordering in the paper's Fig. 2):
//   [op(node_0)],
//   [skips(node_1)..., op(node_1)],
//   ...,
//   [skips(node_{m-1})..., op(node_{m-1})],
//   [skips(output)...]
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/graph.hpp"
#include "searchspace/architecture.hpp"
#include "tensor/random.hpp"

namespace geonas::searchspace {

/// One operation choice at a recurrent variable node.
struct NodeOp {
  std::size_t units = 0;  // 0 means Identity

  [[nodiscard]] bool is_identity() const noexcept { return units == 0; }
  [[nodiscard]] std::string label() const {
    if (is_identity()) return "Identity";
    return "LSTM(" + std::to_string(units) + ")";
  }
};

struct SpaceConfig {
  /// Number of variable LSTM nodes m (paper: 5, also the max stack depth).
  std::size_t num_variable_nodes = 5;
  /// Operation list at each variable node (paper: Identity + LSTM width
  /// 16/32/64/80/96).
  std::vector<NodeOp> operations = {{0}, {16}, {32}, {64}, {80}, {96}};
  /// How many non-immediate predecessors each position may skip-connect
  /// from (2 reproduces the paper's skip-node counts).
  std::size_t skip_depth = 2;
  /// Input feature width (Nr POD coefficients; paper: 5).
  std::size_t input_features = 5;
  /// Output feature width, realized as a constant LSTM(out) node.
  std::size_t output_features = 5;
};

class StackedLSTMSpace {
 public:
  explicit StackedLSTMSpace(SpaceConfig config = SpaceConfig{});

  [[nodiscard]] const SpaceConfig& config() const noexcept { return cfg_; }

  /// Total genes = m operation genes + skip genes.
  [[nodiscard]] std::size_t num_genes() const noexcept {
    return gene_choices_.size();
  }
  [[nodiscard]] std::size_t num_operation_genes() const noexcept {
    return cfg_.num_variable_nodes;
  }
  [[nodiscard]] std::size_t num_skip_genes() const noexcept {
    return num_genes() - num_operation_genes();
  }
  /// Number of choices at gene g (operation-list size or 2 for skips).
  [[nodiscard]] std::size_t choices_at(std::size_t gene) const {
    return gene_choices_.at(gene);
  }
  [[nodiscard]] bool is_skip_gene(std::size_t gene) const {
    return skip_gene_.at(gene);
  }

  /// Cardinality of the space: prod_g choices_at(g). Saturates at
  /// uint64 max (never reached for realistic configs).
  [[nodiscard]] std::uint64_t cardinality() const noexcept;

  /// Uniform random architecture.
  [[nodiscard]] Architecture random_architecture(Rng& rng) const;

  /// The paper's mutation: pick one gene uniformly, re-draw uniformly among
  /// the other values of that gene.
  [[nodiscard]] Architecture mutate(const Architecture& parent,
                                    Rng& rng) const;

  /// True when the gene vector is a member of this space.
  [[nodiscard]] bool valid(const Architecture& arch) const noexcept;

  /// Materialize the architecture as a trainable network. The input node
  /// carries cfg_.input_features features; the network ends in the
  /// constant LSTM(output_features) node. Weights are uninitialized; call
  /// init_params().
  [[nodiscard]] nn::GraphNetwork build(const Architecture& arch) const;

  /// Trainable parameter count of the realized network (cheap: no
  /// training-state allocation beyond the build).
  [[nodiscard]] std::size_t param_count(const Architecture& arch) const;

  /// Structural statistics used by reports and the surrogate evaluator.
  struct Stats {
    std::size_t active_lstm_nodes = 0;   // variable nodes realized as LSTM
    std::size_t total_units = 0;         // sum of active LSTM widths
    std::size_t active_skips = 0;        // skip genes set to 1
    std::size_t params = 0;              // total trainable parameters
    std::size_t width_inversions = 0;    // later-wider-than-earlier pairs
  };
  [[nodiscard]] Stats stats(const Architecture& arch) const;

  /// Human-readable multi-line description (Fig. 4-style inventory).
  [[nodiscard]] std::string describe(const Architecture& arch) const;

 private:
  /// Index into `genes` of the operation gene for variable node k.
  [[nodiscard]] std::size_t op_gene_index(std::size_t node) const {
    return op_gene_index_.at(node);
  }
  /// Skip gene indices targeting chain position p (0..m; m = output node),
  /// ordered nearest-source-first, with the chain position of each source.
  struct SkipSlot {
    std::size_t gene;
    long source_position;  // -1 = graph input, else variable node index
  };
  [[nodiscard]] const std::vector<SkipSlot>& skips_into(std::size_t position)
      const {
    return skip_slots_.at(position);
  }

  SpaceConfig cfg_;
  std::vector<std::size_t> gene_choices_;
  std::vector<bool> skip_gene_;
  std::vector<std::size_t> op_gene_index_;
  std::vector<std::vector<SkipSlot>> skip_slots_;  // indexed by position 0..m
};

}  // namespace geonas::searchspace
