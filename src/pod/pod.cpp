#include "pod/pod.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/blas.hpp"
#include "tensor/linalg.hpp"

namespace geonas::pod {

void POD::fit(const Matrix& snapshots, const PODConfig& config) {
  const std::size_t nh = snapshots.rows();
  const std::size_t ns = snapshots.cols();
  if (nh == 0 || ns == 0) {
    throw std::invalid_argument("POD::fit: empty snapshot matrix");
  }
  if (config.num_modes == 0 || config.num_modes > ns) {
    throw std::invalid_argument("POD::fit: num_modes must be in [1, Ns]");
  }
  // One NaN or inf would spread through the mean and the correlation
  // matrix into every mode.
  require_finite(snapshots, "POD::fit");

  if (config.subtract_mean) {
    mean_.assign(nh, 0.0);
    for (std::size_t j = 0; j < ns; ++j) {
      for (std::size_t i = 0; i < nh; ++i) mean_[i] += snapshots(i, j);
    }
    for (double& v : mean_) v /= static_cast<double>(ns);
  } else {
    mean_.clear();
  }
  const Matrix centered = center(snapshots);

  // Method of snapshots: C = S^T S in R^{Ns x Ns} (eq. 3). Ns is small
  // (hundreds) even when Nh is tens of thousands.
  const Matrix corr = matmul_at_b(centered, centered);
  const EigenResult eig = eigen_symmetric(corr);
  eigenvalues_ = eig.eigenvalues;
  // Numerical noise can push trailing eigenvalues slightly negative.
  for (double& lambda : eigenvalues_) lambda = std::max(lambda, 0.0);

  // Basis: theta = S W (eq. 4), then normalize the leading Nr columns to
  // obtain the orthonormal reduced basis psi (eq. 5). Column i of theta
  // has norm sqrt(lambda_i).
  const std::size_t nr = config.num_modes;
  const Matrix w = eig.eigenvectors.slice_cols(0, nr);
  Matrix theta = matmul(centered, w);  // Nh x Nr
  basis_.resize(nh, nr);
  for (std::size_t j = 0; j < nr; ++j) {
    const double norm = std::sqrt(std::max(eigenvalues_[j], 0.0));
    if (norm <= 1e-300) {
      throw std::domain_error(
          "POD::fit: requested mode has (numerically) zero energy; "
          "reduce num_modes");
    }
    for (std::size_t i = 0; i < nh; ++i) basis_(i, j) = theta(i, j) / norm;
  }
  fitted_ = true;
}

Matrix POD::center(const Matrix& snapshots) const {
  if (mean_.empty()) return snapshots;
  if (snapshots.rows() != mean_.size()) {
    throw std::invalid_argument("POD: snapshot DoF count does not match fit");
  }
  Matrix out = snapshots;
  for (std::size_t j = 0; j < out.cols(); ++j) {
    for (std::size_t i = 0; i < out.rows(); ++i) out(i, j) -= mean_[i];
  }
  return out;
}

Matrix POD::project(const Matrix& snapshots) const {
  if (!fitted_) throw std::logic_error("POD::project before fit");
  const Matrix centered = center(snapshots);
  return matmul_at_b(basis_, centered);  // Nr x Ns (eq. 6)
}

Matrix POD::reconstruct(const Matrix& coefficients) const {
  if (!fitted_) throw std::logic_error("POD::reconstruct before fit");
  if (coefficients.rows() != basis_.cols()) {
    throw std::invalid_argument(
        "POD::reconstruct: coefficient row count != retained modes");
  }
  Matrix out = matmul(basis_, coefficients);  // Nh x Ns (eq. 7)
  if (!mean_.empty()) {
    for (std::size_t j = 0; j < out.cols(); ++j) {
      for (std::size_t i = 0; i < out.rows(); ++i) out(i, j) += mean_[i];
    }
  }
  return out;
}

double POD::energy_captured(std::size_t modes) const {
  if (!fitted_) throw std::logic_error("POD::energy_captured before fit");
  modes = std::min(modes, eigenvalues_.size());
  double head = 0.0, total = 0.0;
  for (std::size_t i = 0; i < eigenvalues_.size(); ++i) {
    total += eigenvalues_[i];
    if (i < modes) head += eigenvalues_[i];
  }
  return total == 0.0 ? 1.0 : head / total;
}

double POD::analytic_projection_error() const {
  // Eq. (8): the relative squared L2 projection error equals the tail
  // eigenvalue mass of the correlation matrix. (The paper's eq. 8 prints
  // lambda_i^2; since lambda_i are already squared singular values of S,
  // the dimensionally consistent identity — which our empirical test
  // verifies to machine precision — uses lambda_i.)
  if (!fitted_) throw std::logic_error("POD before fit");
  const std::size_t nr = basis_.cols();
  double tail = 0.0, total = 0.0;
  for (std::size_t i = 0; i < eigenvalues_.size(); ++i) {
    total += eigenvalues_[i];
    if (i >= nr) tail += eigenvalues_[i];
  }
  return total == 0.0 ? 0.0 : tail / total;
}

double POD::empirical_projection_error(const Matrix& snapshots) const {
  if (!fitted_) throw std::logic_error("POD before fit");
  const Matrix centered = center(snapshots);
  const Matrix coeffs = matmul_at_b(basis_, centered);
  const Matrix approx = matmul(basis_, coeffs);
  double num = 0.0, den = 0.0;
  const auto cf = centered.flat();
  const auto af = approx.flat();
  for (std::size_t i = 0; i < cf.size(); ++i) {
    const double d = cf[i] - af[i];
    num += d * d;
    den += cf[i] * cf[i];
  }
  return den == 0.0 ? 0.0 : num / den;
}

}  // namespace geonas::pod
