#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/eigen_sym_solver.h"
#include "linalg/simd_dispatch.h"
#include "linalg/simd_kernels_internal.h"

namespace distsketch {
namespace {

// Scalar kernel policy of the solver body: plain loops, one rounding per
// operation (this TU is built with -ffp-contract=off).
struct ScalarEigenKernels {
  static double Dot(const double* x, const double* y, size_t n) {
    double acc = 0.0;
    for (size_t k = 0; k < n; ++k) acc += x[k] * y[k];
    return acc;
  }
  static void Axpy(double* y, const double* x, double alpha, size_t n) {
    for (size_t k = 0; k < n; ++k) y[k] += alpha * x[k];
  }
  static void Rank2(double* z, const double* u, const double* q, double a,
                    double b, size_t n) {
    for (size_t k = 0; k < n; ++k) z[k] -= a * q[k] + b * u[k];
  }
  static void Rotate(double* a, double* b, size_t n, double s, double c) {
    for (size_t k = 0; k < n; ++k) {
      const double f = b[k];
      b[k] = s * a[k] + c * f;
      a[k] = c * a[k] - s * f;
    }
  }
};

}  // namespace

namespace simd_internal {

bool SymEigenScalar(double* z, size_t n, double* d, double* e, double eps,
                    int max_iters) {
  return eigen_internal::SymmetricEigenSolve<ScalarEigenKernels>(
      z, n, d, e, eps, max_iters);
}

}  // namespace simd_internal

Status ComputeSymmetricEigenInto(const Matrix& x, SymmetricEigenResult* out,
                                 EigenSymWorkspace* ws,
                                 const EigenSymOptions& options) {
  if (x.empty()) {
    return Status::InvalidArgument("ComputeSymmetricEigen: empty input");
  }
  if (x.rows() != x.cols()) {
    return Status::InvalidArgument("ComputeSymmetricEigen: not square");
  }
  const size_t n = x.rows();
  EigenSymWorkspace local;
  if (ws == nullptr) ws = &local;

  // Work on a symmetrized copy (average the triangles so mild asymmetry
  // from floating-point Gram computations cannot bias the reduction). Each
  // average is written to both triangles, so the copy is exactly
  // symmetric, as the solver requires. The solver reduces it, accumulates
  // Q^T over it and diagonalizes in place: row j of z ends as the
  // eigenvector of d[j].
  Matrix& z = ws->v;
  z.SetZero(n, n);
  double amax = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      const double v = 0.5 * (x(i, j) + x(j, i));
      z(i, j) = v;
      z(j, i) = v;
      amax = std::max(amax, std::abs(v));
    }
  }
  // Below 2^-600 the small eigenvalues' Givens steps run on subnormal
  // numbers, where s and c lose precision: the vectors drift from
  // orthogonal, and QL can stall once the relative deflation threshold
  // underflows to zero. Such inputs are scaled up by an exact power of
  // two and the eigenvalues scaled back; every other input is untouched.
  int shift = 0;
  if (amax > 0.0 && amax < 0x1p-600) {
    shift = -std::ilogb(amax);
    for (size_t k = 0; k < n * n; ++k) {
      z.data()[k] = std::ldexp(z.data()[k], shift);
    }
  }
  ws->evals.resize(n);
  ws->off.resize(n);
  std::vector<double>& d = ws->evals;
  std::vector<double>& e = ws->off;
  if (n == 1) {
    d[0] = z(0, 0);
    z(0, 0) = 1.0;
  } else {
    CountSimdKernelCall("eigen");
    // The deflation test is relative to the neighbouring diagonal mass, so
    // tol acts like a relative eigenvalue tolerance; it is floored at
    // machine epsilon because the iteration cannot resolve below that.
    const double eps =
        std::max(options.tol, std::numeric_limits<double>::epsilon());
    if (!ActiveSimd().sym_eigen(z.data(), n, d.data(), e.data(), eps,
                                options.max_sweeps)) {
      return Status::NumericalError(
          "ComputeSymmetricEigen: QL iteration failed to converge");
    }
  }

  // Stable insertion sort into non-increasing order (n is small, and
  // std::stable_sort would allocate its merge buffer on every call).
  std::vector<size_t>& order = ws->order;
  order.resize(n);
  for (size_t i = 0; i < n; ++i) {
    size_t k = i;
    for (; k > 0 && d[order[k - 1]] < d[i]; --k) order[k] = order[k - 1];
    order[k] = i;
  }
  out->eigenvalues.resize(n);
  out->eigenvectors.SetZero(n, n);
  for (size_t jj = 0; jj < n; ++jj) {
    const size_t j = order[jj];
    out->eigenvalues[jj] = shift == 0 ? d[j] : std::ldexp(d[j], -shift);
    const double* vj = z.data() + j * n;
    for (size_t i = 0; i < n; ++i) out->eigenvectors(i, jj) = vj[i];
  }
  return Status::OK();
}

StatusOr<SymmetricEigenResult> ComputeSymmetricEigen(
    const Matrix& x, const EigenSymOptions& options) {
  SymmetricEigenResult out;
  DS_RETURN_IF_ERROR(ComputeSymmetricEigenInto(x, &out, nullptr, options));
  return out;
}

}  // namespace distsketch
