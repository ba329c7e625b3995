#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/blas.h"
#include "linalg/simd_dispatch.h"

namespace distsketch {
namespace {

// Householder reduction of the symmetric matrix held in z to tridiagonal
// form (EISPACK tred2 with accumulation). On return d holds the diagonal,
// e the subdiagonal in e[1..n-1], and z the accumulated orthogonal
// transform Q with A = Q T Q^T. Every O(n^3) loop walks rows: the strided
// column sums of textbook tred2 are regrouped so each row is read once
// per step, while every g_j still sums its terms in tred2's order, so the
// result is bit-identical to the column-walking loops. `g` is n doubles
// of scratch.
void TridiagonalReduce(const SimdKernelTable& kern, Matrix& z,
                       std::vector<double>& d, std::vector<double>& e,
                       std::vector<double>& g) {
  const size_t n = z.rows();
  for (size_t i = n - 1; i >= 1; --i) {
    const size_t l = i - 1;
    double h = 0.0;
    if (l > 0) {
      double scale = 0.0;
      for (size_t k = 0; k <= l; ++k) scale += std::abs(z(i, k));
      if (scale == 0.0) {
        e[i] = z(i, l);
      } else {
        for (size_t k = 0; k <= l; ++k) {
          z(i, k) /= scale;
          h += z(i, k) * z(i, k);
        }
        double f = z(i, l);
        double gi = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * gi;
        h -= f * gi;
        z(i, l) = f - gi;
        f = 0.0;
        const double* zi = z.data() + i * n;
        // g_j = sum_{k<=j} z(j,k) z(i,k) + sum_{j<k<=l} z(k,j) z(i,k),
        // accumulated in e[j]: the contiguous row dots first, then the
        // strided terms added row k by row k (ascending k, as tred2).
        for (size_t j = 0; j <= l; ++j) {
          z(j, i) = zi[j] / h;
          e[j] = kern.dot(z.data() + j * n, zi, j + 1);
        }
        for (size_t k = 1; k <= l; ++k) {
          const double* zk = z.data() + k * n;
          const double zik = zi[k];
          for (size_t j = 0; j < k; ++j) e[j] += zk[j] * zik;
        }
        for (size_t j = 0; j <= l; ++j) {
          e[j] /= h;
          f += e[j] * zi[j];
        }
        const double hh = f / (h + h);
        for (size_t j = 0; j <= l; ++j) {
          f = zi[j];
          gi = e[j] - hh * f;
          e[j] = gi;
          kern.axpy2(z.data() + j * n, e.data(), zi, f, gi, j + 1);
        }
      }
    } else {
      e[i] = z(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  // Back-accumulation of the reflectors: for each step, all g_j =
  // sum_k z(i,k) z(k,j) first (ascending k), then the rank-one update
  // z(k,j) -= g_j z(k,i) row by row.
  for (size_t i = 0; i < n; ++i) {
    if (d[i] != 0.0) {
      const double* zi = z.data() + i * n;
      std::fill(g.begin(), g.begin() + i, 0.0);
      for (size_t k = 0; k < i; ++k) {
        const double* zk = z.data() + k * n;
        const double zik = zi[k];
        for (size_t j = 0; j < i; ++j) g[j] += zik * zk[j];
      }
      for (size_t k = 0; k < i; ++k) {
        double* zk = z.data() + k * n;
        const double zki = zk[i];
        for (size_t j = 0; j < i; ++j) zk[j] -= g[j] * zki;
      }
    }
    d[i] = z(i, i);
    z(i, i) = 1.0;
    for (size_t j = 0; j < i; ++j) {
      z(i, j) = 0.0;
      z(j, i) = 0.0;
    }
  }
}

// sqrt(x^2 + y^2) for the QL chase. std::hypot's overflow- and
// underflow-safe scaling costs more than the rest of a Givens step, and
// it is only needed when a square can leave the double range: outside
// max(|x|, |y|) in [1e-150, 1e150] this defers to it.
inline double Pythag(double x, double y) {
  const double m = std::max(std::abs(x), std::abs(y));
  if (m >= 1e-150 && m <= 1e150) return std::sqrt(x * x + y * y);
  return std::hypot(x, y);
}

// Implicit-shift QL iteration on the tridiagonal (d, e) produced above
// (EISPACK tql2). zt holds the transposed accumulator Q^T, so tql2's
// rotation of columns i, i+1 of Q is a rotation of two contiguous rows;
// on return row j of zt is the eigenvector of d[j]. Returns false if an
// eigenvalue fails to converge within max_iters iterations.
bool TridiagonalQl(const SimdKernelTable& kern, Matrix& zt,
                   std::vector<double>& d, std::vector<double>& e, double eps,
                   int max_iters) {
  const size_t n = zt.rows();
  if (n == 1) return true;
  for (size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  for (size_t l = 0; l < n; ++l) {
    int iter = 0;
    size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= eps * dd) break;
      }
      if (m != l) {
        if (iter++ == max_iters) return false;
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = Pythag(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        bool underflow = false;
        for (size_t i = m; i-- > l;) {
          double f = s * e[i];
          const double b = c * e[i];
          r = Pythag(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            // Off-diagonal underflowed to zero mid-chase: deflate here
            // and restart the search for this eigenvalue.
            d[i + 1] -= p;
            e[m] = 0.0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          kern.ql_rotate_rows(zt.data() + i * n, zt.data() + (i + 1) * n, n,
                              s, c);
        }
        if (underflow) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  return true;
}

// In-place transpose of the square matrix z.
void TransposeInPlace(Matrix& z) {
  const size_t n = z.rows();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) std::swap(z(i, j), z(j, i));
  }
}

}  // namespace

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
  // from floating-point Gram computations cannot bias the reduction); the
  // copy is overwritten by the accumulated transform, which QL then
  // carries transposed: row j of z ends as the eigenvector of d[j].
  Matrix& z = ws->v;
  z.SetZero(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) z(i, j) = 0.5 * (x(i, j) + x(j, i));
  }
  // Below 2^-600 the small eigenvalues' Givens steps run on subnormal
  // numbers, where s and c lose precision: the vectors drift from
  // orthogonal, and QL can stall once the relative deflation threshold
  // underflows to zero. Such inputs are scaled up by an exact power of
  // two and the eigenvalues scaled back; every other input is untouched.
  double amax = 0.0;
  for (size_t k = 0; k < n * n; ++k) {
    amax = std::max(amax, std::abs(z.data()[k]));
  }
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
    const SimdKernelTable& kern = ActiveSimd();
    CountSimdKernelCall("eigen");
    ws->acc.resize(n);
    TridiagonalReduce(kern, z, d, e, ws->acc);
    TransposeInPlace(z);
    // The deflation test is relative to the neighbouring diagonal mass, so
    // tol acts like a relative eigenvalue tolerance; it is floored at
    // machine epsilon because the iteration cannot resolve below that.
    const double eps =
        std::max(options.tol, std::numeric_limits<double>::epsilon());
    if (!TridiagonalQl(kern, z, d, e, eps, options.max_sweeps)) {
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
