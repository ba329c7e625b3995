#ifndef DISTSKETCH_LINALG_SPECTRAL_KERNEL_H_
#define DISTSKETCH_LINALG_SPECTRAL_KERNEL_H_

#include <vector>

#include "common/status.h"
#include "linalg/eigen_sym.h"
#include "linalg/matrix.h"
#include "linalg/svd.h"

namespace distsketch {

/// Which factorization computes (Sigma, V^T).
enum class SpectralRoute {
  /// Gram route for tall inputs (rows >= cols) unless a conditioning
  /// check vetoes it; one-sided Jacobi otherwise.
  kAuto,
  /// Always eigendecompose A^T A. Callers that only consume sigma^2
  /// force this: the eigensolve delivers lambda = sigma^2 directly, so
  /// the Gram's squared condition number costs them nothing. (FD's shrink
  /// works in that space too and runs the same route inline, in
  /// FdColumnShrink.)
  kGram,
  /// Always one-sided Jacobi (the accuracy reference).
  kJacobi,
};

/// Options for ComputeSigmaVt.
struct SpectralKernelOptions {
  SpectralRoute route = SpectralRoute::kAuto;
};

/// (Sigma, V) of an m-by-d matrix: sigma non-increasing, V d-by-r with
/// orthonormal columns, r = min(m, d). U is never formed — the sketch
/// protocols only consume agg(A) = diag(sigma) V^T (paper §3.1.1), and
/// dropping U is a large part of the kernel's speed advantage.
struct SpectralResult {
  std::vector<double> singular_values;
  Matrix v;
  SpectralRoute route_used = SpectralRoute::kJacobi;

  /// agg(A) = diag(sigma) V^T: the r-by-d aggregated form whose row j is
  /// sigma_j v_j^T (§3.1.1).
  Matrix AggregatedForm() const;

  /// The first k right singular vectors as a d-by-k orthonormal matrix
  /// (k clamped to r).
  Matrix TopRightSingularVectors(size_t k) const;

  /// sum_{i>k} sigma_i^2 (the squared tail energy; k clamped).
  double TailEnergy(size_t k) const;
};

/// Reusable scratch arena for ComputeSigmaVt. Hot-path callers — FD's
/// repeated shrinks, the adaptive sketch's Decomp — keep one alive across
/// calls so the Gram matrix, the eigensolver scratch and the rescaled
/// copy reuse their allocations instead of hitting the allocator on every
/// factorization. Not thread-safe; one workspace per caller.
struct SvdWorkspace {
  Matrix gram;
  Matrix scaled;  // rescaled copy of extreme-scale inputs
  SymmetricEigenResult eig;
  EigenSymWorkspace eig_ws;
  // FdGramShrink's kept eigenvectors and shrunk rows U_keep^T B.
  Matrix u_keep;
  Matrix w;
};

/// Computes (Sigma, V^T) of an m-by-d matrix by the cheapest valid route:
///
///  - Gram route (tall inputs): accumulate A^T A with fixed-chunk
///    parallelism, eigensolve the d-by-d Gram, take sigma_j = sqrt(lambda_j)
///    and V = eigenvectors. One pass over the data plus an O(d^3)
///    eigensolve, versus Jacobi's O(m d^2) per sweep.
///  - Jacobi route: ComputeSvdSigmaV (one-sided Jacobi, threaded
///    round-robin ordering, no U).
///
/// Inputs whose max-abs entry falls outside [1e-100, 1e100] are rescaled
/// first so squared quantities stay inside double range on either route;
/// sigma is scaled back on output. Under kAuto a conditioning check
/// abandons the Gram route when lambda_min/lambda_max of A^T A is at or
/// below 1e-13: forming the Gram squares the condition number, so past
/// that the trailing singular values carry no correct digits and the
/// kernel redoes the factorization with Jacobi. Forced kGram skips the
/// check.
///
/// Deterministic for a fixed input at any thread count. `ws` may be null.
StatusOr<SpectralResult> ComputeSigmaVt(
    const Matrix& a, const SpectralKernelOptions& options = {},
    SvdWorkspace* ws = nullptr);

}  // namespace distsketch

#endif  // DISTSKETCH_LINALG_SPECTRAL_KERNEL_H_
