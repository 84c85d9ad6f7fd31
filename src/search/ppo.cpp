#include "search/ppo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/stats.hpp"

namespace geonas::search {

PPOAgent::PPOAgent(const searchspace::StackedLSTMSpace& space, PPOConfig config,
                   std::uint64_t agent_seed)
    : space_(&space),
      cfg_(config),
      rng_(hash_combine(config.seed, agent_seed)) {
  logits_.reserve(space.num_genes());
  for (std::size_t g = 0; g < space.num_genes(); ++g) {
    logits_.emplace_back(1, space.choices_at(g), 0.0);  // uniform start
  }
}

std::vector<double> PPOAgent::softmax_row(std::size_t gene) const {
  const Matrix& row = logits_[gene];
  double max_logit = row(0, 0);
  for (std::size_t c = 1; c < row.cols(); ++c) {
    max_logit = std::max(max_logit, row(0, c));
  }
  std::vector<double> probs(row.cols());
  double z = 0.0;
  for (std::size_t c = 0; c < row.cols(); ++c) {
    probs[c] = std::exp(row(0, c) - max_logit);
    z += probs[c];
  }
  for (double& p : probs) p /= z;
  return probs;
}

double PPOAgent::action_probability(std::size_t gene,
                                    std::size_t choice) const {
  const auto probs = softmax_row(gene);
  return probs.at(choice);
}

searchspace::Architecture PPOAgent::ask() {
  searchspace::Architecture arch;
  arch.genes.reserve(space_->num_genes());
  for (std::size_t g = 0; g < space_->num_genes(); ++g) {
    const auto probs = softmax_row(g);
    double u = rng_.uniform();
    std::size_t pick = probs.size() - 1;
    for (std::size_t c = 0; c < probs.size(); ++c) {
      if (u < probs[c]) {
        pick = c;
        break;
      }
      u -= probs[c];
    }
    arch.genes.push_back(static_cast<int>(pick));
  }
  return arch;
}

double PPOAgent::log_prob(const std::vector<Matrix>& logits,
                          const searchspace::Architecture& arch) const {
  double lp = 0.0;
  for (std::size_t g = 0; g < logits.size(); ++g) {
    const Matrix& row = logits[g];
    double max_logit = row(0, 0);
    for (std::size_t c = 1; c < row.cols(); ++c) {
      max_logit = std::max(max_logit, row(0, c));
    }
    double z = 0.0;
    for (std::size_t c = 0; c < row.cols(); ++c) {
      z += std::exp(row(0, c) - max_logit);
    }
    const auto a = static_cast<std::size_t>(arch.genes[g]);
    lp += row(0, a) - max_logit - std::log(z);
  }
  return lp;
}

std::vector<Matrix> PPOAgent::compute_gradient(
    const std::vector<Sample>& batch) {
  if (batch.empty()) {
    throw std::invalid_argument("PPOAgent::compute_gradient: empty batch");
  }
  for (const Sample& s : batch) {
    if (!space_->valid(s.arch)) {
      throw std::invalid_argument("PPOAgent: foreign architecture in batch");
    }
  }

  // Advantage: batch-standardized reward (the value baseline).
  std::vector<double> rewards(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) rewards[i] = batch[i].reward;
  const double baseline = mean(rewards);
  double sd = stddev(rewards);
  if (sd < 1e-8) sd = 1.0;
  std::vector<double> advantage(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    advantage[i] = (rewards[i] - baseline) / sd;
  }

  // Old-policy log-probabilities are frozen at batch start.
  std::vector<double> old_lp(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    old_lp[i] = log_prob(logits_, batch[i].arch);
  }

  // Several clipped-surrogate SGD epochs on a scratch copy; the returned
  // gradient is the total ascent direction (new - start) / lr so that
  // apply_gradient(all-reduced mean) moves every agent identically.
  std::vector<Matrix> theta = logits_;
  const std::size_t n = batch.size();

  for (std::size_t epoch = 0; epoch < cfg_.sgd_epochs; ++epoch) {
    // Per-gene softmax under the scratch policy.
    std::vector<std::vector<double>> probs(theta.size());
    for (std::size_t g = 0; g < theta.size(); ++g) {
      const Matrix& row = theta[g];
      double mx = row(0, 0);
      for (std::size_t c = 1; c < row.cols(); ++c) mx = std::max(mx, row(0, c));
      double z = 0.0;
      probs[g].resize(row.cols());
      for (std::size_t c = 0; c < row.cols(); ++c) {
        probs[g][c] = std::exp(row(0, c) - mx);
        z += probs[g][c];
      }
      for (double& p : probs[g]) p /= z;
    }

    std::vector<Matrix> grad;
    grad.reserve(theta.size());
    for (const Matrix& row : theta) grad.emplace_back(1, row.cols(), 0.0);

    for (std::size_t i = 0; i < n; ++i) {
      const double new_lp = log_prob(theta, batch[i].arch);
      const double ratio = std::exp(new_lp - old_lp[i]);
      const double a = advantage[i];
      // Clipped surrogate (eq. 9): gradient only flows when the unclipped
      // branch is active.
      const bool clipped = (a > 0.0 && ratio > 1.0 + cfg_.clip_epsilon) ||
                           (a < 0.0 && ratio < 1.0 - cfg_.clip_epsilon);
      if (clipped) continue;
      const double scale = ratio * a / static_cast<double>(n);
      for (std::size_t g = 0; g < theta.size(); ++g) {
        const auto act = static_cast<std::size_t>(batch[i].arch.genes[g]);
        // d log pi / d theta_{g,c} = [c == act] - pi_c.
        for (std::size_t c = 0; c < probs[g].size(); ++c) {
          grad[g](0, c) += scale * ((c == act ? 1.0 : 0.0) - probs[g][c]);
        }
      }
    }

    // Entropy bonus: dH/dtheta_c = -pi_c * (log pi_c + H).
    for (std::size_t g = 0; g < theta.size(); ++g) {
      double entropy = 0.0;
      for (double p : probs[g]) {
        if (p > 0.0) entropy -= p * std::log(p);
      }
      for (std::size_t c = 0; c < probs[g].size(); ++c) {
        const double p = probs[g][c];
        if (p > 0.0) {
          grad[g](0, c) += -cfg_.entropy_coef * p * (std::log(p) + entropy);
        }
      }
    }

    for (std::size_t g = 0; g < theta.size(); ++g) {
      for (std::size_t c = 0; c < theta[g].cols(); ++c) {
        theta[g](0, c) += cfg_.learning_rate * grad[g](0, c);
      }
    }
  }

  std::vector<Matrix> total;
  total.reserve(theta.size());
  for (std::size_t g = 0; g < theta.size(); ++g) {
    Matrix d(1, theta[g].cols());
    for (std::size_t c = 0; c < d.cols(); ++c) {
      d(0, c) = (theta[g](0, c) - logits_[g](0, c)) / cfg_.learning_rate;
    }
    total.push_back(std::move(d));
  }
  return total;
}

void PPOAgent::apply_gradient(const std::vector<Matrix>& gradient) {
  if (gradient.size() != logits_.size()) {
    throw std::invalid_argument("PPOAgent::apply_gradient: stack size clash");
  }
  for (std::size_t g = 0; g < logits_.size(); ++g) {
    require_same_shape(logits_[g], gradient[g], "apply_gradient");
    for (std::size_t c = 0; c < logits_[g].cols(); ++c) {
      logits_[g](0, c) += cfg_.learning_rate * gradient[g](0, c);
    }
  }
}

void PPOAgent::save(io::BinaryWriter& writer) const {
  write_rng_state(writer, rng_);
  writer.u64(logits_.size());
  for (const Matrix& row : logits_) {
    const auto flat = row.flat();
    writer.f64_array(flat.data(), flat.size());
  }
}

void PPOAgent::load(io::BinaryReader& reader) {
  read_rng_state(reader, rng_);
  const std::uint64_t genes = reader.u64("PPO logit row count");
  if (genes != logits_.size()) {
    throw std::runtime_error(
        "PPOAgent::load: checkpoint has " + std::to_string(genes) +
        " logit rows, this search space needs " +
        std::to_string(logits_.size()));
  }
  for (Matrix& row : logits_) reader.f64_array("PPO logits", row.flat());
}

PPOSearch::PPOSearch(const searchspace::StackedLSTMSpace& space,
                     PPOConfig config, std::size_t batch_size)
    : space_(&space), batch_size_(batch_size), agent_(space, config, 0) {
  if (batch_size_ == 0) {
    throw std::invalid_argument("PPOSearch: zero batch size");
  }
}

searchspace::Architecture PPOSearch::ask() { return agent_.ask(); }

void PPOSearch::tell(const searchspace::Architecture& arch, double reward) {
  if (!space_->valid(arch)) {
    throw std::invalid_argument("PPOSearch::tell: foreign architecture");
  }
  batch_.push_back({arch, reward});
  ++told_;
  if (batch_.size() >= batch_size_) {
    // One-agent all-reduce degenerates to applying the own gradient.
    agent_.apply_gradient(agent_.compute_gradient(batch_));
    batch_.clear();
    ++updates_;
  }
}

void PPOSearch::save(io::BinaryWriter& writer) const {
  writer.u64(batch_size_);
  agent_.save(writer);
  writer.u64(told_);
  writer.u64(updates_);
  writer.u64(batch_.size());
  for (const PPOAgent::Sample& sample : batch_) {
    write_architecture(writer, sample.arch);
    writer.f64(sample.reward);
  }
}

void PPOSearch::load(io::BinaryReader& reader) {
  const std::uint64_t batch_size = reader.u64("PPO batch size");
  if (batch_size != batch_size_) {
    throw std::runtime_error(
        "PPOSearch::load: checkpoint batch size " +
        std::to_string(batch_size) + " != configured " +
        std::to_string(batch_size_));
  }
  agent_.load(reader);
  told_ = reader.u64("PPO evaluations told");
  updates_ = reader.u64("PPO update count");
  const std::uint64_t pending = reader.u64("PPO pending batch count");
  if (pending >= batch_size_) {
    throw std::runtime_error(
        "PPOSearch::load: pending batch exceeds the batch size");
  }
  batch_.clear();
  for (std::uint64_t i = 0; i < pending; ++i) {
    searchspace::Architecture arch = read_architecture(reader);
    const double reward = reader.f64("PPO pending reward");
    if (!space_->valid(arch)) {
      throw std::runtime_error(
          "PPOSearch::load: checkpointed sample is not a member of the "
          "current search space");
    }
    batch_.push_back({std::move(arch), reward});
  }
}

std::vector<Matrix> all_reduce_mean_gradients(
    const std::vector<std::vector<Matrix>>& per_agent) {
  if (per_agent.empty()) {
    throw std::invalid_argument("all_reduce_mean_gradients: no agents");
  }
  std::vector<Matrix> out = per_agent[0];
  for (std::size_t a = 1; a < per_agent.size(); ++a) {
    if (per_agent[a].size() != out.size()) {
      throw std::invalid_argument(
          "all_reduce_mean_gradients: agent stack size clash");
    }
    for (std::size_t g = 0; g < out.size(); ++g) {
      out[g] += per_agent[a][g];
    }
  }
  const double inv = 1.0 / static_cast<double>(per_agent.size());
  for (Matrix& m : out) m *= inv;
  return out;
}

}  // namespace geonas::search
