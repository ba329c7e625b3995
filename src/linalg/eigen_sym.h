#ifndef DISTSKETCH_LINALG_EIGEN_SYM_H_
#define DISTSKETCH_LINALG_EIGEN_SYM_H_

#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

namespace distsketch {

/// Eigendecomposition X = V diag(lambda) V^T of a real symmetric matrix.
/// Eigenvalues are sorted in non-increasing order; V's columns are the
/// matching orthonormal eigenvectors.
struct SymmetricEigenResult {
  std::vector<double> eigenvalues;
  Matrix eigenvectors;
};

/// Options for the symmetric eigensolver.
struct EigenSymOptions {
  /// Relative deflation tolerance of the QL iteration: a subdiagonal
  /// entry is treated as zero once it falls below tol times the adjacent
  /// diagonal mass. Floored at machine epsilon internally.
  double tol = 1e-12;
  /// Maximum implicit-QL iterations spent on any single eigenvalue.
  int max_sweeps = 60;
};

/// Reusable scratch for the eigensolver. Callers on a hot path (FD's
/// repeated shrinks, the spectral kernel) keep one of these alive so the
/// working copy, the eigenvector accumulator and the sort permutation
/// stop being reallocated on every call.
struct EigenSymWorkspace {
  Matrix v;                   // working copy -> Q^T -> eigenvector rows
  std::vector<double> evals;  // unsorted eigenvalues
  std::vector<double> off;    // subdiagonal and Householder p/q scratch
  std::vector<size_t> order;  // sort permutation
};

/// Eigendecomposition of a symmetric d-by-d matrix by Householder
/// tridiagonalization (full symmetric storage, Q^T accumulated in place)
/// followed by implicit-shift QL iteration — roughly an order of
/// magnitude fewer flops than cyclic Jacobi at the d <= 128 sizes the
/// sketches use, and exactly as deterministic (pure serial schedule).
/// Returns InvalidArgument if X is empty or not square; mild asymmetry is
/// averaged away before the reduction.
StatusOr<SymmetricEigenResult> ComputeSymmetricEigen(
    const Matrix& x, const EigenSymOptions& options = {});

/// Workspace-reusing form: writes into `out` (reusing its storage) and
/// keeps all scratch in `ws`. `ws` may be null, in which case a local
/// workspace is used. Behaviour is bit-identical to ComputeSymmetricEigen.
Status ComputeSymmetricEigenInto(const Matrix& x, SymmetricEigenResult* out,
                                 EigenSymWorkspace* ws,
                                 const EigenSymOptions& options = {});

}  // namespace distsketch

#endif  // DISTSKETCH_LINALG_EIGEN_SYM_H_
