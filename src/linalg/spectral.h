#ifndef DISTSKETCH_LINALG_SPECTRAL_H_
#define DISTSKETCH_LINALG_SPECTRAL_H_

#include "linalg/matrix.h"

namespace distsketch {

/// Spectral norm ||X||_2 = max |eigenvalue| of a symmetric matrix, via
/// power iteration (for symmetric X, ||X x|| / ||x|| converges to
/// |lambda_max|). This is the workhorse for covariance error
/// ||A^T A - B^T B||_2 and is O(d^2) per iteration. Three seeded random
/// restarts (the max estimate is returned) guard against an unlucky start
/// vector orthogonal to the leading eigenspace; each stops once
/// successive estimates agree to 1e-10 relative, or after 1000
/// iterations.
double SymmetricSpectralNorm(const Matrix& x);

/// Spectral norm (largest singular value) of a general m-by-n matrix via
/// power iteration on A^T A without forming it (same schedule).
double SpectralNorm(const Matrix& a);

/// Exact spectral norm of a symmetric matrix via the Jacobi eigensolver
/// (slower; used by tests to validate the power-iteration path).
double SymmetricSpectralNormExact(const Matrix& x);

}  // namespace distsketch

#endif  // DISTSKETCH_LINALG_SPECTRAL_H_
