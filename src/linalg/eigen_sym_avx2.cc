// AVX2+FMA instance of the symmetric eigensolver body
// (eigen_sym_solver.h). Compiled with -mavx2 -mfma -ffp-contract=off (see
// src/linalg/CMakeLists.txt): the only fused operations are the explicit
// FMA intrinsics below, so the unfused rank-2 update keeps the Householder
// block exactly symmetric. Tails are masked by shape only.

#include "linalg/simd_kernels_internal.h"

#if defined(DS_SIMD_COMPILED_AVX2)

#include <immintrin.h>

#include "linalg/eigen_sym_solver.h"

namespace distsketch {
namespace simd_internal {
namespace {

// Lane mask selecting the first r <= 4 lanes.
inline __m256i TailMask(size_t r) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(r)),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

struct Avx2EigenKernels {
  // Two FMA accumulators, a masked tail into the second, and a fixed
  // (0+2, 1+3) horizontal tree.
  static double Dot(const double* x, const double* y, size_t n) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    size_t k = 0;
    for (; k + 8 <= n; k += 8) {
      acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k), _mm256_loadu_pd(y + k),
                             acc0);
      acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k + 4),
                             _mm256_loadu_pd(y + k + 4), acc1);
    }
    if (k + 4 <= n) {
      acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + k), _mm256_loadu_pd(y + k),
                             acc0);
      k += 4;
    }
    if (k < n) {
      const __m256i m = TailMask(n - k);
      acc1 = _mm256_fmadd_pd(_mm256_maskload_pd(x + k, m),
                             _mm256_maskload_pd(y + k, m), acc1);
    }
    const __m256d v = _mm256_add_pd(acc0, acc1);
    const __m128d sum2 = _mm_add_pd(_mm256_castpd256_pd128(v),
                                    _mm256_extractf128_pd(v, 1));
    return _mm_cvtsd_f64(_mm_add_sd(sum2, _mm_unpackhi_pd(sum2, sum2)));
  }

  // y = fma(alpha, x, y).
  static void Axpy(double* y, const double* x, double alpha, size_t n) {
    const __m256d va = _mm256_set1_pd(alpha);
    size_t k = 0;
    for (; k + 4 <= n; k += 4) {
      _mm256_storeu_pd(y + k, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + k),
                                              _mm256_loadu_pd(y + k)));
    }
    if (k < n) {
      const __m256i m = TailMask(n - k);
      _mm256_maskstore_pd(
          y + k, m,
          _mm256_fmadd_pd(va, _mm256_maskload_pd(x + k, m),
                          _mm256_maskload_pd(y + k, m)));
    }
  }

  // z -= a*q + b*u: two roundings of products, one of the sum, one of the
  // difference — the scalar expression exactly.
  static void Rank2(double* z, const double* u, const double* q, double a,
                    double b, size_t n) {
    const __m256d va = _mm256_set1_pd(a);
    const __m256d vb = _mm256_set1_pd(b);
    size_t k = 0;
    for (; k + 4 <= n; k += 4) {
      const __m256d t =
          _mm256_add_pd(_mm256_mul_pd(va, _mm256_loadu_pd(q + k)),
                        _mm256_mul_pd(vb, _mm256_loadu_pd(u + k)));
      _mm256_storeu_pd(z + k, _mm256_sub_pd(_mm256_loadu_pd(z + k), t));
    }
    if (k < n) {
      const __m256i m = TailMask(n - k);
      const __m256d t =
          _mm256_add_pd(_mm256_mul_pd(va, _mm256_maskload_pd(q + k, m)),
                        _mm256_mul_pd(vb, _mm256_maskload_pd(u + k, m)));
      _mm256_maskstore_pd(z + k, m,
                          _mm256_sub_pd(_mm256_maskload_pd(z + k, m), t));
    }
  }

  // a' = fma(a, c, b*(-s)), b' = fma(b, c, a*s).
  static void Rotate(double* a, double* b, size_t n, double s, double c) {
    const __m256d vc = _mm256_set1_pd(c);
    const __m256d vs = _mm256_set1_pd(s);
    const __m256d vns = _mm256_set1_pd(-s);
    size_t k = 0;
    for (; k + 4 <= n; k += 4) {
      const __m256d va = _mm256_loadu_pd(a + k);
      const __m256d vb = _mm256_loadu_pd(b + k);
      _mm256_storeu_pd(a + k, _mm256_fmadd_pd(va, vc, _mm256_mul_pd(vb, vns)));
      _mm256_storeu_pd(b + k, _mm256_fmadd_pd(vb, vc, _mm256_mul_pd(va, vs)));
    }
    if (k < n) {
      const __m256i m = TailMask(n - k);
      const __m256d va = _mm256_maskload_pd(a + k, m);
      const __m256d vb = _mm256_maskload_pd(b + k, m);
      _mm256_maskstore_pd(a + k, m,
                          _mm256_fmadd_pd(va, vc, _mm256_mul_pd(vb, vns)));
      _mm256_maskstore_pd(b + k, m,
                          _mm256_fmadd_pd(vb, vc, _mm256_mul_pd(va, vs)));
    }
  }
};

}  // namespace

bool SymEigenAvx2(double* z, size_t n, double* d, double* e, double eps,
                  int max_iters) {
  return eigen_internal::SymmetricEigenSolve<Avx2EigenKernels>(
      z, n, d, e, eps, max_iters);
}

}  // namespace simd_internal
}  // namespace distsketch

#endif  // DS_SIMD_COMPILED_AVX2
