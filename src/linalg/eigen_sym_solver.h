#ifndef DISTSKETCH_LINALG_EIGEN_SYM_SOLVER_H_
#define DISTSKETCH_LINALG_EIGEN_SYM_SOLVER_H_

// The symmetric eigensolver body, templated on a kernel policy and
// instantiated once per SIMD backend: the scalar instance lives in
// eigen_sym.cc, the vector ones in eigen_sym_avx2.cc / eigen_sym_avx512.cc,
// which are compiled with their ISA flags plus -ffp-contract=off so every
// fused multiply-add is an explicit one. Internal; reached through
// SimdKernelTable::sym_eigen.
//
// A policy K provides, on contiguous arrays of length n:
//   double K::Dot(x, y, n)             sum x[k] y[k]
//   void   K::Axpy(y, x, alpha, n)     y[k] += alpha x[k]
//   void   K::Rank2(z, u, q, a, b, n)  z[k] -= a*q[k] + b*u[k], unfused
//                                      and in that order
//   void   K::Rotate(a, b, n, s, c)    a <- c a - s b, b <- s a + c b

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

namespace distsketch {
namespace eigen_internal {

// sqrt(x^2 + y^2) for the QL chase. std::hypot's overflow- and
// underflow-safe scaling costs more than the rest of a Givens step, and
// it is only needed when a square can leave the double range: outside
// max(|x|, |y|) in [1e-150, 1e150] this defers to it.
inline double Pythag(double x, double y) {
  const double m = std::max(std::abs(x), std::abs(y));
  if (m >= 1e-150 && m <= 1e150) return std::sqrt(x * x + y * y);
  return std::hypot(x, y);
}

// Householder reduction of the symmetric n x n matrix z (both triangles
// stored) to tridiagonal form, EISPACK tred2 order: step i folds row i
// into the leading i x i block. On return d[i] holds the step's h (0 when
// the step was skipped), e[1..n-1] the subdiagonal, the diagonal of the
// tridiagonal is left on z's diagonal, and row i of z holds reflector i's
// vector u in columns [0, i).
//
// Both triangles of the active block are kept, so p = A u / h is one
// contiguous row dot per entry, and h enters as a reciprocal: no step
// divides element-wise. Row j takes z -= u_j q + q_j u unfused: entry
// (j, k) subtracts u_j q_k + q_j u_k and its mirror (k, j) subtracts
// u_k q_j + q_k u_j, the same two products added in swapped order, so the
// block stays exactly symmetric.
template <class K>
void HouseholderReduce(double* z, size_t n, double* d, double* e) {
  for (size_t i = n - 1; i >= 1; --i) {
    double* u = z + i * n;
    double h = i > 1 ? K::Dot(u, u, i) : 0.0;
    // tred2 scales the row by its 1-norm so that h = u^T u cannot leave
    // the double range. A power of two does that exactly, and short of
    // under- or overflow changes no bit of e[i] or of the update (u_j q_k
    // is invariant), so it is only applied when h is outside
    // [2^-500, 2^500].
    int shift = 0;
    if (i > 1 && !(h >= 0x1p-500 && h <= 0x1p500)) {
      double amax = 0.0;
      for (size_t k = 0; k < i; ++k) amax = std::max(amax, std::abs(u[k]));
      if (amax > 0.0 && amax <= std::numeric_limits<double>::max()) {
        shift = -std::ilogb(amax);
        for (size_t k = 0; k < i; ++k) u[k] = std::ldexp(u[k], shift);
        h = K::Dot(u, u, i);
      }
    }
    if (h == 0.0) {
      e[i] = u[i - 1];
      d[i] = 0.0;
      continue;
    }
    const double f = u[i - 1];
    const double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
    e[i] = shift == 0 ? g : std::ldexp(g, -shift);
    h -= f * g;
    u[i - 1] = f - g;
    // The update only grows h, so 1/h stays finite.
    const double inv_h = 1.0 / h;
    // p = A u / h, then q = p - (u^T p / 2h) u, both in e[0, i), which
    // only later steps' subdiagonal entries will overwrite.
    for (size_t j = 0; j < i; ++j) e[j] = K::Dot(z + j * n, u, i) * inv_h;
    const double hh = K::Dot(e, u, i) * (0.5 * inv_h);
    K::Axpy(e, u, -hh, i);
    for (size_t j = 0; j < i; ++j) K::Rank2(z + j * n, u, e, u[j], e[j], i);
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
}

// Accumulates Q^T = P_1 P_2 ... P_{n-1} in place over the reduced z, row
// by row: at step i the leading i x i block holds the product so far and
// each of its rows r takes r -= (r . u / h) u with u reflector i (row i).
// Only then are row and column i set to the identity's, which overwrites
// reflector i and nothing a later step reads. On return d holds the
// tridiagonal's diagonal and z = Q^T with A = Q T Q^T.
template <class K>
void AccumulateTransposed(double* z, size_t n, double* d) {
  for (size_t i = 0; i < n; ++i) {
    double* u = z + i * n;
    if (d[i] != 0.0) {
      const double inv_h = 1.0 / d[i];
      for (size_t r = 0; r < i; ++r) {
        double* row = z + r * n;
        K::Axpy(row, u, -(K::Dot(row, u, i) * inv_h), i);
      }
    }
    d[i] = u[i];
    u[i] = 1.0;
    for (size_t j = 0; j < i; ++j) {
      u[j] = 0.0;
      z[j * n + i] = 0.0;
    }
  }
}

// Implicit-shift QL iteration on the tridiagonal (d, e) (EISPACK tql2).
// zt holds Q^T, so tql2's rotation of columns i, i+1 of Q is a rotation
// of two contiguous rows; on return row j of zt is the eigenvector of
// d[j]. Returns false if an eigenvalue fails to converge within
// max_iters iterations.
template <class K>
bool TridiagonalQl(double* zt, size_t n, double* d, double* e, double eps,
                   int max_iters) {
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
          K::Rotate(zt + i * n, zt + (i + 1) * n, n, s, c);
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

// The whole solve for n >= 2: z (exactly symmetric, both triangles) is
// reduced, accumulated into Q^T and diagonalized in place. On return d
// holds the unsorted eigenvalues and row j of z the eigenvector of d[j];
// e is n doubles of scratch.
template <class K>
bool SymmetricEigenSolve(double* z, size_t n, double* d, double* e,
                         double eps, int max_iters) {
  HouseholderReduce<K>(z, n, d, e);
  AccumulateTransposed<K>(z, n, d);
  return TridiagonalQl<K>(z, n, d, e, eps, max_iters);
}

}  // namespace eigen_internal
}  // namespace distsketch

#endif  // DISTSKETCH_LINALG_EIGEN_SYM_SOLVER_H_
