#ifndef DISTSKETCH_LINALG_SVD_H_
#define DISTSKETCH_LINALG_SVD_H_

#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

namespace distsketch {

/// Reduced singular value decomposition A = U diag(sigma) V^T with
/// U (m-by-r), V (d-by-r) orthonormal-column matrices and r = min(m, d).
/// Singular values are sorted in non-increasing order (paper §1.1).
struct SvdResult {
  Matrix u;
  std::vector<double> singular_values;
  Matrix v;

  /// Reassembles U diag(sigma) V^T (testing aid).
  Matrix Reconstruct() const;

  /// The "aggregated" form agg(A) = diag(sigma) V^T used by SVS (§3.1.1):
  /// an r-by-d matrix whose rows are the scaled right singular vectors.
  Matrix AggregatedForm() const;

  /// The best rank-k approximation [A]_k = U_k diag(sigma_k) V_k^T.
  /// k is clamped to r.
  Matrix RankKApproximation(size_t k) const;

  /// sum_{i>k} sigma_i^2 = ||A - [A]_k||_F^2 (the tail energy; k clamped).
  double TailEnergy(size_t k) const;

  /// The first k right singular vectors as a d-by-k orthonormal matrix
  /// (k clamped to r).
  Matrix TopRightSingularVectors(size_t k) const;
};

/// Computes the reduced SVD of an m-by-d matrix via one-sided Jacobi
/// (with Householder-QR preprocessing for inputs taller than 1.2 times
/// their width, and via the transpose for wide inputs). The Jacobi
/// sweeps follow a fixed round-robin pairing schedule whose disjoint
/// column pairs run on the global thread pool when it is available —
/// results are bit-identical for any thread count (including 1) because
/// the schedule never changes and pairs touch disjoint state.
/// Deterministic; accurate to ~1e-12 relative for well-scaled inputs:
/// sweeps stop once every column pair's normalized coherence is at most
/// 1e-12.
///
/// If Jacobi exhausts its 60 sweeps, it is retried once in place with
/// doubled sweeps and a mildly relaxed threshold (logged to stderr);
/// if that also fails the decomposition falls through to a Gram-route
/// eigensolve of A^T A before any error is surfaced, so NumericalError is
/// only returned when both Jacobi and the eigensolver give up.
/// Returns InvalidArgument on an empty input.
StatusOr<SvdResult> ComputeSvd(const Matrix& a);

/// Sigma and V only — U is never formed. For tall inputs this skips both
/// the Q*U reconstruction of the QR path and U's normalization pass, so
/// it is strictly cheaper than ComputeSvd whenever the left factor is not
/// needed (every sketch protocol: they consume agg(A) = diag(sigma) V^T).
/// `sigma` is non-increasing, `v` is d-by-r. Same retry/fallback behaviour
/// as ComputeSvd. Prefer the dispatching ComputeSigmaVt in
/// linalg/spectral_kernel.h, which also considers the Gram route.
Status ComputeSvdSigmaV(const Matrix& a, std::vector<double>* sigma,
                        Matrix* v);

/// Convenience: singular values only (non-increasing).
StatusOr<std::vector<double>> SingularValues(const Matrix& a);

}  // namespace distsketch

#endif  // DISTSKETCH_LINALG_SVD_H_
