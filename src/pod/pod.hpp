// Proper orthogonal decomposition via the method of snapshots.
//
// Implements eqs. (1)-(8) of the paper: snapshot matrix assembly with
// temporal mean removal, the Ns x Ns correlation eigenproblem, basis
// truncation to Nr modes, coefficient extraction, reconstruction, and the
// analytic projection-error identity. The decomposition is fitted on
// training snapshots only; the retained basis is then reused to project
// and reconstruct test-period data (paper Fig. 1).
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/matrix.hpp"

namespace geonas::pod {

/// Configuration for a POD fit.
struct PODConfig {
  /// Number of retained modes Nr (paper uses 5 for the SST task).
  std::size_t num_modes = 5;
  /// Remove the temporal mean before decomposition (eq. 2).
  bool subtract_mean = true;
};

/// A fitted POD basis.
///
/// Snapshots are stored column-wise: S in R^{Nh x Ns} (eq. 1), where Nh is
/// the (masked, flattened) spatial degree-of-freedom count and Ns is the
/// number of snapshots.
class POD {
 public:
  POD() = default;

  /// Fit the decomposition to column-wise `snapshots` (Nh x Ns).
  /// Throws std::invalid_argument when num_modes > Ns, snapshots are
  /// empty or hold a NaN/inf (named with its (row, column)).
  void fit(const Matrix& snapshots, const PODConfig& config);

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] std::size_t num_modes() const noexcept { return basis_.cols(); }
  [[nodiscard]] std::size_t num_dof() const noexcept { return basis_.rows(); }

  /// Reduced basis psi in R^{Nh x Nr} (eq. 5); columns are orthonormal.
  [[nodiscard]] const Matrix& basis() const noexcept { return basis_; }
  /// Temporal mean q-bar (eq. 2); empty when subtract_mean was false.
  [[nodiscard]] const std::vector<double>& temporal_mean() const noexcept {
    return mean_;
  }
  /// All Ns correlation-matrix eigenvalues, descending.
  [[nodiscard]] const std::vector<double>& eigenvalues() const noexcept {
    return eigenvalues_;
  }

  /// Coefficients A = psi^T S-hat in R^{Nr x Ns} (eq. 6) for arbitrary
  /// snapshots (the mean fitted on training data is removed first).
  [[nodiscard]] Matrix project(const Matrix& snapshots) const;

  /// Reconstruction S-tilde = psi A + mean (eq. 7). coefficients is Nr x Ns.
  [[nodiscard]] Matrix reconstruct(const Matrix& coefficients) const;

  /// Fraction of variance captured by the leading `modes` eigenvalues:
  /// sum_{i<=modes} lambda_i / sum_i lambda_i (lambda clipped at 0).
  [[nodiscard]] double energy_captured(std::size_t modes) const;

  /// Analytic relative projection error of eq. (8) for the retained basis:
  /// sum_{i>Nr} lambda_i^2 / sum_i lambda_i^2.
  [[nodiscard]] double analytic_projection_error() const;

  /// Empirical relative projection error of given snapshots through the
  /// retained basis (left-hand side of eq. 8 when applied to the training
  /// set).
  [[nodiscard]] double empirical_projection_error(const Matrix& snapshots) const;

 private:
  [[nodiscard]] Matrix center(const Matrix& snapshots) const;

  Matrix basis_;
  std::vector<double> mean_;
  std::vector<double> eigenvalues_;
  bool fitted_ = false;
};

}  // namespace geonas::pod
