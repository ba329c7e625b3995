// AVX-512 instance of the symmetric eigensolver body
// (eigen_sym_solver.h). Compiled with -mavx512{f,dq,bw,vl}
// -ffp-contract=off (see src/linalg/CMakeLists.txt): the only fused
// operations are the explicit FMA intrinsics below, so the unfused rank-2
// update keeps the Householder block exactly symmetric. Tails are masked
// by shape only.

#include "linalg/simd_kernels_internal.h"

#if defined(DS_SIMD_COMPILED_AVX512)

#include <immintrin.h>

#include "linalg/eigen_sym_solver.h"

namespace distsketch {
namespace simd_internal {
namespace {

// Mask selecting the first r < 8 lanes.
inline __mmask8 TailMask(size_t r) {
  return static_cast<__mmask8>((1u << r) - 1u);
}

struct Avx512EigenKernels {
  // Two FMA accumulators, a masked tail into the second, then halves
  // added and a fixed 4-lane tree (never _mm512_reduce_add_pd, whose
  // order is the compiler's choice).
  static double Dot(const double* x, const double* y, size_t n) {
    __m512d acc0 = _mm512_setzero_pd();
    __m512d acc1 = _mm512_setzero_pd();
    size_t k = 0;
    for (; k + 16 <= n; k += 16) {
      acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(x + k), _mm512_loadu_pd(y + k),
                             acc0);
      acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(x + k + 8),
                             _mm512_loadu_pd(y + k + 8), acc1);
    }
    if (k + 8 <= n) {
      acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(x + k), _mm512_loadu_pd(y + k),
                             acc0);
      k += 8;
    }
    if (k < n) {
      const __mmask8 m = TailMask(n - k);
      acc1 = _mm512_fmadd_pd(_mm512_maskz_loadu_pd(m, x + k),
                             _mm512_maskz_loadu_pd(m, y + k), acc1);
    }
    // The zero-masked extracts are the plain ones (all four lanes kept);
    // GCC 12 flags the unmasked intrinsics' undefined source operand.
    const __m512d v = _mm512_add_pd(acc0, acc1);
    const __m256d sum4 = _mm256_add_pd(_mm512_maskz_extractf64x4_pd(0xF, v, 0),
                                       _mm512_maskz_extractf64x4_pd(0xF, v, 1));
    const __m128d sum2 = _mm_add_pd(_mm256_castpd256_pd128(sum4),
                                    _mm256_extractf128_pd(sum4, 1));
    return _mm_cvtsd_f64(_mm_add_sd(sum2, _mm_unpackhi_pd(sum2, sum2)));
  }

  // y = fma(alpha, x, y).
  static void Axpy(double* y, const double* x, double alpha, size_t n) {
    const __m512d va = _mm512_set1_pd(alpha);
    size_t k = 0;
    for (; k + 8 <= n; k += 8) {
      _mm512_storeu_pd(y + k, _mm512_fmadd_pd(va, _mm512_loadu_pd(x + k),
                                              _mm512_loadu_pd(y + k)));
    }
    if (k < n) {
      const __mmask8 m = TailMask(n - k);
      _mm512_mask_storeu_pd(
          y + k, m,
          _mm512_fmadd_pd(va, _mm512_maskz_loadu_pd(m, x + k),
                          _mm512_maskz_loadu_pd(m, y + k)));
    }
  }

  // z -= a*q + b*u: two roundings of products, one of the sum, one of the
  // difference — the scalar expression exactly.
  static void Rank2(double* z, const double* u, const double* q, double a,
                    double b, size_t n) {
    const __m512d va = _mm512_set1_pd(a);
    const __m512d vb = _mm512_set1_pd(b);
    size_t k = 0;
    for (; k + 8 <= n; k += 8) {
      const __m512d t =
          _mm512_add_pd(_mm512_mul_pd(va, _mm512_loadu_pd(q + k)),
                        _mm512_mul_pd(vb, _mm512_loadu_pd(u + k)));
      _mm512_storeu_pd(z + k, _mm512_sub_pd(_mm512_loadu_pd(z + k), t));
    }
    if (k < n) {
      const __mmask8 m = TailMask(n - k);
      const __m512d t =
          _mm512_add_pd(_mm512_mul_pd(va, _mm512_maskz_loadu_pd(m, q + k)),
                        _mm512_mul_pd(vb, _mm512_maskz_loadu_pd(m, u + k)));
      _mm512_mask_storeu_pd(z + k, m,
                            _mm512_sub_pd(_mm512_maskz_loadu_pd(m, z + k), t));
    }
  }

  // a' = fma(a, c, b*(-s)), b' = fma(b, c, a*s).
  static void Rotate(double* a, double* b, size_t n, double s, double c) {
    const __m512d vc = _mm512_set1_pd(c);
    const __m512d vs = _mm512_set1_pd(s);
    const __m512d vns = _mm512_set1_pd(-s);
    size_t k = 0;
    for (; k + 8 <= n; k += 8) {
      const __m512d va = _mm512_loadu_pd(a + k);
      const __m512d vb = _mm512_loadu_pd(b + k);
      _mm512_storeu_pd(a + k, _mm512_fmadd_pd(va, vc, _mm512_mul_pd(vb, vns)));
      _mm512_storeu_pd(b + k, _mm512_fmadd_pd(vb, vc, _mm512_mul_pd(va, vs)));
    }
    if (k < n) {
      const __mmask8 m = TailMask(n - k);
      const __m512d va = _mm512_maskz_loadu_pd(m, a + k);
      const __m512d vb = _mm512_maskz_loadu_pd(m, b + k);
      _mm512_mask_storeu_pd(a + k, m,
                            _mm512_fmadd_pd(va, vc, _mm512_mul_pd(vb, vns)));
      _mm512_mask_storeu_pd(b + k, m,
                            _mm512_fmadd_pd(vb, vc, _mm512_mul_pd(va, vs)));
    }
  }
};

}  // namespace

bool SymEigenAvx512(double* z, size_t n, double* d, double* e, double eps,
                    int max_iters) {
  return eigen_internal::SymmetricEigenSolve<Avx512EigenKernels>(
      z, n, d, e, eps, max_iters);
}

}  // namespace simd_internal
}  // namespace distsketch

#endif  // DS_SIMD_COMPILED_AVX512
