// AVX-512 backend of the SimdKernelTable. Compiled with
// -mavx512f -mavx512dq -mavx512bw -mavx512vl (see
// src/linalg/CMakeLists.txt); only runs after DetectCpuFeatures()
// confirmed all four ISA bits. Same contracts as the AVX2 backend:
// float kernels inside the DESIGN.md §12 reduction envelope, integer
// pack/unpack bit-identical to scalar, tails masked by shape only.

#include "linalg/simd_kernels_internal.h"

#if defined(DS_SIMD_COMPILED_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <limits>

namespace distsketch {
namespace simd_internal {
namespace {

constexpr size_t kGemmBlockK = 64;

// Deterministic horizontal sum: halves added first, then a fixed
// 4-lane tree — never _mm512_reduce_add_pd, whose expansion order is
// the compiler's choice.
inline double HSum512(__m512d v) {
  const __m256d lo = _mm512_castpd512_pd256(v);
  const __m256d hi = _mm512_extractf64x4_pd(v, 1);
  const __m256d sum4 = _mm256_add_pd(lo, hi);
  const __m128d lo2 = _mm256_castpd256_pd128(sum4);
  const __m128d hi2 = _mm256_extractf128_pd(sum4, 1);
  const __m128d sum2 = _mm_add_pd(lo2, hi2);
  const __m128d swap = _mm_unpackhi_pd(sum2, sum2);
  return _mm_cvtsd_f64(_mm_add_sd(sum2, swap));
}

// Mask selecting the first (n - j) lanes of an 8-lane vector, for the
// ragged column tail. Depends only on shape.
inline __mmask8 TailMask(size_t j, size_t n) {
  return static_cast<__mmask8>((1u << (n - j)) - 1u);
}

void GemmNnAvx512(const double* a, size_t m, size_t kk, const double* b,
                  size_t n, double* c) {
  for (size_t k0 = 0; k0 < kk; k0 += kGemmBlockK) {
    const size_t k1 = std::min(kk, k0 + kGemmBlockK);
    for (size_t i = 0; i < m; ++i) {
      const double* ai = a + i * kk;
      double* ci = c + i * n;
      size_t k = k0;
      for (; k + 4 <= k1; k += 4) {
        const __m512d a0 = _mm512_set1_pd(ai[k]);
        const __m512d a1 = _mm512_set1_pd(ai[k + 1]);
        const __m512d a2 = _mm512_set1_pd(ai[k + 2]);
        const __m512d a3 = _mm512_set1_pd(ai[k + 3]);
        const double* b0 = b + k * n;
        const double* b1 = b0 + n;
        const double* b2 = b1 + n;
        const double* b3 = b2 + n;
        size_t j = 0;
        for (; j + 8 <= n; j += 8) {
          __m512d acc = _mm512_loadu_pd(ci + j);
          acc = _mm512_fmadd_pd(a0, _mm512_loadu_pd(b0 + j), acc);
          acc = _mm512_fmadd_pd(a1, _mm512_loadu_pd(b1 + j), acc);
          acc = _mm512_fmadd_pd(a2, _mm512_loadu_pd(b2 + j), acc);
          acc = _mm512_fmadd_pd(a3, _mm512_loadu_pd(b3 + j), acc);
          _mm512_storeu_pd(ci + j, acc);
        }
        if (j < n) {
          const __mmask8 tail = TailMask(j, n);
          __m512d acc = _mm512_maskz_loadu_pd(tail, ci + j);
          acc = _mm512_fmadd_pd(a0, _mm512_maskz_loadu_pd(tail, b0 + j), acc);
          acc = _mm512_fmadd_pd(a1, _mm512_maskz_loadu_pd(tail, b1 + j), acc);
          acc = _mm512_fmadd_pd(a2, _mm512_maskz_loadu_pd(tail, b2 + j), acc);
          acc = _mm512_fmadd_pd(a3, _mm512_maskz_loadu_pd(tail, b3 + j), acc);
          _mm512_mask_storeu_pd(ci + j, tail, acc);
        }
      }
      for (; k < k1; ++k) {
        const __m512d ak = _mm512_set1_pd(ai[k]);
        const double* bk = b + k * n;
        size_t j = 0;
        for (; j + 8 <= n; j += 8) {
          __m512d acc = _mm512_loadu_pd(ci + j);
          acc = _mm512_fmadd_pd(ak, _mm512_loadu_pd(bk + j), acc);
          _mm512_storeu_pd(ci + j, acc);
        }
        if (j < n) {
          const __mmask8 tail = TailMask(j, n);
          __m512d acc = _mm512_maskz_loadu_pd(tail, ci + j);
          acc = _mm512_fmadd_pd(ak, _mm512_maskz_loadu_pd(tail, bk + j), acc);
          _mm512_mask_storeu_pd(ci + j, tail, acc);
        }
      }
    }
  }
}

void GemmTnAvx512(const double* a, size_t kk, size_t m, const double* b,
                  size_t n, double* c) {
  for (size_t k0 = 0; k0 < kk; k0 += kGemmBlockK) {
    const size_t k1 = std::min(kk, k0 + kGemmBlockK);
    for (size_t i = 0; i < m; ++i) {
      double* ci = c + i * n;
      size_t k = k0;
      for (; k + 4 <= k1; k += 4) {
        const __m512d a0 = _mm512_set1_pd(a[k * m + i]);
        const __m512d a1 = _mm512_set1_pd(a[(k + 1) * m + i]);
        const __m512d a2 = _mm512_set1_pd(a[(k + 2) * m + i]);
        const __m512d a3 = _mm512_set1_pd(a[(k + 3) * m + i]);
        const double* b0 = b + k * n;
        const double* b1 = b0 + n;
        const double* b2 = b1 + n;
        const double* b3 = b2 + n;
        size_t j = 0;
        for (; j + 8 <= n; j += 8) {
          __m512d acc = _mm512_loadu_pd(ci + j);
          acc = _mm512_fmadd_pd(a0, _mm512_loadu_pd(b0 + j), acc);
          acc = _mm512_fmadd_pd(a1, _mm512_loadu_pd(b1 + j), acc);
          acc = _mm512_fmadd_pd(a2, _mm512_loadu_pd(b2 + j), acc);
          acc = _mm512_fmadd_pd(a3, _mm512_loadu_pd(b3 + j), acc);
          _mm512_storeu_pd(ci + j, acc);
        }
        if (j < n) {
          const __mmask8 tail = TailMask(j, n);
          __m512d acc = _mm512_maskz_loadu_pd(tail, ci + j);
          acc = _mm512_fmadd_pd(a0, _mm512_maskz_loadu_pd(tail, b0 + j), acc);
          acc = _mm512_fmadd_pd(a1, _mm512_maskz_loadu_pd(tail, b1 + j), acc);
          acc = _mm512_fmadd_pd(a2, _mm512_maskz_loadu_pd(tail, b2 + j), acc);
          acc = _mm512_fmadd_pd(a3, _mm512_maskz_loadu_pd(tail, b3 + j), acc);
          _mm512_mask_storeu_pd(ci + j, tail, acc);
        }
      }
      for (; k < k1; ++k) {
        const __m512d ak = _mm512_set1_pd(a[k * m + i]);
        const double* bk = b + k * n;
        size_t j = 0;
        for (; j + 8 <= n; j += 8) {
          __m512d acc = _mm512_loadu_pd(ci + j);
          acc = _mm512_fmadd_pd(ak, _mm512_loadu_pd(bk + j), acc);
          _mm512_storeu_pd(ci + j, acc);
        }
        if (j < n) {
          const __mmask8 tail = TailMask(j, n);
          __m512d acc = _mm512_maskz_loadu_pd(tail, ci + j);
          acc = _mm512_fmadd_pd(ak, _mm512_maskz_loadu_pd(tail, bk + j), acc);
          _mm512_mask_storeu_pd(ci + j, tail, acc);
        }
      }
    }
  }
}

void GramAccAvx512(const double* a, size_t row_begin, size_t row_end,
                   size_t d, double* g) {
  size_t k = row_begin;
  for (; k + 4 <= row_end; k += 4) {
    const double* r0 = a + k * d;
    const double* r1 = r0 + d;
    const double* r2 = r1 + d;
    const double* r3 = r2 + d;
    for (size_t i = 0; i < d; ++i) {
      const __m512d u0 = _mm512_set1_pd(r0[i]);
      const __m512d u1 = _mm512_set1_pd(r1[i]);
      const __m512d u2 = _mm512_set1_pd(r2[i]);
      const __m512d u3 = _mm512_set1_pd(r3[i]);
      double* gi = g + i * d;
      size_t j = i;
      for (; j + 8 <= d; j += 8) {
        __m512d acc = _mm512_loadu_pd(gi + j);
        acc = _mm512_fmadd_pd(u0, _mm512_loadu_pd(r0 + j), acc);
        acc = _mm512_fmadd_pd(u1, _mm512_loadu_pd(r1 + j), acc);
        acc = _mm512_fmadd_pd(u2, _mm512_loadu_pd(r2 + j), acc);
        acc = _mm512_fmadd_pd(u3, _mm512_loadu_pd(r3 + j), acc);
        _mm512_storeu_pd(gi + j, acc);
      }
      if (j < d) {
        const __mmask8 tail = TailMask(j, d);
        __m512d acc = _mm512_maskz_loadu_pd(tail, gi + j);
        acc = _mm512_fmadd_pd(u0, _mm512_maskz_loadu_pd(tail, r0 + j), acc);
        acc = _mm512_fmadd_pd(u1, _mm512_maskz_loadu_pd(tail, r1 + j), acc);
        acc = _mm512_fmadd_pd(u2, _mm512_maskz_loadu_pd(tail, r2 + j), acc);
        acc = _mm512_fmadd_pd(u3, _mm512_maskz_loadu_pd(tail, r3 + j), acc);
        _mm512_mask_storeu_pd(gi + j, tail, acc);
      }
    }
  }
  for (; k < row_end; ++k) {
    const double* row = a + k * d;
    for (size_t i = 0; i < d; ++i) {
      const __m512d ri = _mm512_set1_pd(row[i]);
      double* gi = g + i * d;
      size_t j = i;
      for (; j + 8 <= d; j += 8) {
        __m512d acc = _mm512_loadu_pd(gi + j);
        acc = _mm512_fmadd_pd(ri, _mm512_loadu_pd(row + j), acc);
        _mm512_storeu_pd(gi + j, acc);
      }
      if (j < d) {
        const __mmask8 tail = TailMask(j, d);
        __m512d acc = _mm512_maskz_loadu_pd(tail, gi + j);
        acc = _mm512_fmadd_pd(ri, _mm512_maskz_loadu_pd(tail, row + j), acc);
        _mm512_mask_storeu_pd(gi + j, tail, acc);
      }
    }
  }
}

void SyrkAccAvx512(const double* a, size_t m, size_t d, double alpha,
                   double* c) {
  size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const double* x0 = a + i * d;
    const double* x1 = x0 + d;
    size_t j = i;
    for (; j + 2 <= m; j += 2) {
      const double* y0 = a + j * d;
      const double* y1 = y0 + d;
      __m512d v00 = _mm512_setzero_pd();
      __m512d v01 = _mm512_setzero_pd();
      __m512d v10 = _mm512_setzero_pd();
      __m512d v11 = _mm512_setzero_pd();
      size_t t = 0;
      for (; t + 8 <= d; t += 8) {
        const __m512d u0 = _mm512_loadu_pd(x0 + t);
        const __m512d u1 = _mm512_loadu_pd(x1 + t);
        const __m512d w0 = _mm512_loadu_pd(y0 + t);
        const __m512d w1 = _mm512_loadu_pd(y1 + t);
        v00 = _mm512_fmadd_pd(u0, w0, v00);
        v01 = _mm512_fmadd_pd(u0, w1, v01);
        v10 = _mm512_fmadd_pd(u1, w0, v10);
        v11 = _mm512_fmadd_pd(u1, w1, v11);
      }
      if (t < d) {
        const __mmask8 tail = TailMask(t, d);
        const __m512d u0 = _mm512_maskz_loadu_pd(tail, x0 + t);
        const __m512d u1 = _mm512_maskz_loadu_pd(tail, x1 + t);
        const __m512d w0 = _mm512_maskz_loadu_pd(tail, y0 + t);
        const __m512d w1 = _mm512_maskz_loadu_pd(tail, y1 + t);
        v00 = _mm512_fmadd_pd(u0, w0, v00);
        v01 = _mm512_fmadd_pd(u0, w1, v01);
        v10 = _mm512_fmadd_pd(u1, w0, v10);
        v11 = _mm512_fmadd_pd(u1, w1, v11);
      }
      c[i * m + j] += alpha * HSum512(v00);
      c[i * m + j + 1] += alpha * HSum512(v01);
      c[(i + 1) * m + j + 1] += alpha * HSum512(v11);
      // Diagonal tile writes the lower mirror of s01; identical lane
      // schedule keeps HSum512(v10) == HSum512(v01) bit-for-bit there.
      c[(i + 1) * m + j] += alpha * HSum512(v10);
    }
    if (j < m) {
      const double* y0 = a + j * d;
      __m512d v0 = _mm512_setzero_pd();
      __m512d v1 = _mm512_setzero_pd();
      size_t t = 0;
      for (; t + 8 <= d; t += 8) {
        const __m512d w0 = _mm512_loadu_pd(y0 + t);
        v0 = _mm512_fmadd_pd(_mm512_loadu_pd(x0 + t), w0, v0);
        v1 = _mm512_fmadd_pd(_mm512_loadu_pd(x1 + t), w0, v1);
      }
      if (t < d) {
        const __mmask8 tail = TailMask(t, d);
        const __m512d w0 = _mm512_maskz_loadu_pd(tail, y0 + t);
        v0 = _mm512_fmadd_pd(_mm512_maskz_loadu_pd(tail, x0 + t), w0, v0);
        v1 = _mm512_fmadd_pd(_mm512_maskz_loadu_pd(tail, x1 + t), w0, v1);
      }
      c[i * m + j] += alpha * HSum512(v0);
      c[(i + 1) * m + j] += alpha * HSum512(v1);
    }
  }
  if (i < m) {
    const double* x0 = a + i * d;
    for (size_t j = i; j < m; ++j) {
      const double* y0 = a + j * d;
      __m512d v0 = _mm512_setzero_pd();
      size_t t = 0;
      for (; t + 8 <= d; t += 8) {
        v0 = _mm512_fmadd_pd(_mm512_loadu_pd(x0 + t),
                             _mm512_loadu_pd(y0 + t), v0);
      }
      if (t < d) {
        const __mmask8 tail = TailMask(t, d);
        v0 = _mm512_fmadd_pd(_mm512_maskz_loadu_pd(tail, x0 + t),
                             _mm512_maskz_loadu_pd(tail, y0 + t), v0);
      }
      c[i * m + j] += alpha * HSum512(v0);
    }
  }
}

// Row offsets 0, n, ..., 7n for gathering one column from 8 rows.
inline __m512i ColumnIndex(size_t n) {
  const long long ln = static_cast<long long>(n);
  return _mm512_setr_epi64(0, ln, 2 * ln, 3 * ln, 4 * ln, 5 * ln, 6 * ln,
                           7 * ln);
}

double ColDotAvx512(const double* base, size_t m, size_t n, size_t p,
                    size_t q) {
  const __m512i idx = ColumnIndex(n);
  __m512d acc = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const double* row = base + i * n;
    const __m512d vp = _mm512_i64gather_pd(idx, row + p, 8);
    const __m512d vq = _mm512_i64gather_pd(idx, row + q, 8);
    acc = _mm512_fmadd_pd(vp, vq, acc);
  }
  double apq = HSum512(acc);
  for (; i < m; ++i) {
    const double* row = base + i * n;
    apq += row[p] * row[q];
  }
  return apq;
}

void ColRotateAvx512(double* base, size_t m, size_t n, size_t p, size_t q,
                     double c, double s) {
  const __m512i idx = ColumnIndex(n);
  const __m512d vc = _mm512_set1_pd(c);
  const __m512d vs = _mm512_set1_pd(s);
  size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    double* row = base + i * n;
    const __m512d wp = _mm512_i64gather_pd(idx, row + p, 8);
    const __m512d wq = _mm512_i64gather_pd(idx, row + q, 8);
    const __m512d np = _mm512_fmsub_pd(vc, wp, _mm512_mul_pd(vs, wq));
    const __m512d nq = _mm512_fmadd_pd(vs, wp, _mm512_mul_pd(vc, wq));
    _mm512_i64scatter_pd(row + p, idx, np, 8);
    _mm512_i64scatter_pd(row + q, idx, nq, 8);
  }
  for (; i < m; ++i) {
    double* row = base + i * n;
    const double wp = row[p];
    const double wq = row[q];
    row[p] = c * wp - s * wq;
    row[q] = s * wp + c * wq;
  }
}

double DotAvx512(const double* x, const double* y, size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i),
                           acc0);
    acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i + 8),
                           _mm512_loadu_pd(y + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i),
                           acc0);
  }
  if (i < n) {
    const __mmask8 tail = TailMask(i, n);
    acc1 = _mm512_fmadd_pd(_mm512_maskz_loadu_pd(tail, x + i),
                           _mm512_maskz_loadu_pd(tail, y + i), acc1);
  }
  return HSum512(_mm512_add_pd(acc0, acc1));
}

// As MaxAbsAvx2: vmaxpd with the running max second ignores NaN, and a
// lane is flagged once it sees |x| !<= DBL_MAX. The masked tail loads
// zeros, which change neither result.
double MaxAbsAvx512(const double* x, size_t n, bool* finite) {
  const __m512d dmax = _mm512_set1_pd(std::numeric_limits<double>::max());
  __m512d m0 = _mm512_setzero_pd();
  __m512d m1 = _mm512_setzero_pd();
  __mmask8 bad = 0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d a0 = _mm512_abs_pd(_mm512_loadu_pd(x + i));
    const __m512d a1 = _mm512_abs_pd(_mm512_loadu_pd(x + i + 8));
    m0 = _mm512_max_pd(a0, m0);
    m1 = _mm512_max_pd(a1, m1);
    bad |= _mm512_cmp_pd_mask(a0, dmax, _CMP_NLE_UQ);
    bad |= _mm512_cmp_pd_mask(a1, dmax, _CMP_NLE_UQ);
  }
  for (; i < n; i += 8) {
    const __mmask8 tail = i + 8 <= n ? __mmask8{0xff} : TailMask(i, n);
    const __m512d a0 = _mm512_abs_pd(_mm512_maskz_loadu_pd(tail, x + i));
    m0 = _mm512_max_pd(a0, m0);
    bad |= _mm512_cmp_pd_mask(a0, dmax, _CMP_NLE_UQ);
  }
  *finite = bad == 0;
  return _mm512_reduce_max_pd(_mm512_max_pd(m0, m1));
}

void AxpyAvx512(double* y, const double* x, double alpha, size_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm512_storeu_pd(
        y + j, _mm512_fmadd_pd(va, _mm512_loadu_pd(x + j),
                               _mm512_loadu_pd(y + j)));
  }
  if (j < n) {
    const __mmask8 tail = TailMask(j, n);
    _mm512_mask_storeu_pd(
        y + j, tail,
        _mm512_fmadd_pd(va, _mm512_maskz_loadu_pd(tail, x + j),
                        _mm512_maskz_loadu_pd(tail, y + j)));
  }
}

// _mm512_loadu_pd takes a void*, so the unaligned byte stream is loaded
// without forming a double*; the masked tail neither reads nor writes
// past n. vaddpd rounds each lane exactly like the scalar add.
void AddF64BytesAvx512(double* y, const uint8_t* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i, _mm512_add_pd(_mm512_loadu_pd(y + i),
                             _mm512_loadu_pd(x + i * sizeof(double))));
  }
  if (i < n) {
    const __mmask8 tail = TailMask(i, n);
    _mm512_mask_storeu_pd(
        y + i, tail,
        _mm512_add_pd(_mm512_maskz_loadu_pd(tail, y + i),
                      _mm512_maskz_loadu_pd(tail, x + i * sizeof(double))));
  }
}

size_t PackWindowAvx512(const int64_t* quotients, size_t i0, size_t entries,
                        uint64_t bpe, uint8_t* bytes, size_t payload_bytes,
                        uint64_t* bit) {
  uint64_t b = *bit;
  size_t i = i0;
  if (bpe >= 2) {
    // Unsigned compare (AVX-512 native) makes the range check exact for
    // every bpe <= 63, |INT64_MIN| included.
    const __m512i thresh =
        _mm512_set1_epi64(static_cast<long long>((1ULL << (bpe - 1)) - 1));
    alignas(64) uint64_t words[8];
    while (i + 8 <= entries) {
      if (((b + 7 * bpe) >> 3) + 9 > payload_bytes) break;
      const __m512i q = _mm512_loadu_si512(quotients + i);
      const __m512i mag = _mm512_abs_epi64(q);
      if (_mm512_cmpgt_epu64_mask(mag, thresh) != 0) break;  // scalar tail
      const __m512i word =
          _mm512_or_si512(_mm512_slli_epi64(mag, 1), _mm512_srli_epi64(q, 63));
      _mm512_store_si512(words, word);
      for (int t = 0; t < 8; ++t) {
        const uint64_t byte_off = b >> 3;
        const unsigned shift = static_cast<unsigned>(b & 7);
        uint64_t chunk;
        std::memcpy(&chunk, bytes + byte_off, 8);
        chunk |= words[t] << shift;
        std::memcpy(bytes + byte_off, &chunk, 8);
        if (shift + bpe > 64) {
          bytes[byte_off + 8] |=
              static_cast<uint8_t>(words[t] >> (64 - shift));
        }
        b += bpe;
      }
      i += 8;
    }
  }
  *bit = b;
  const size_t rest = PackWindowScalar(quotients, i, entries, bpe, bytes,
                                       payload_bytes, bit);
  if (rest == SIZE_MAX) return SIZE_MAX;
  return (i - i0) + rest;
}

size_t UnpackWindowAvx512(const uint8_t* stream, size_t stream_bytes,
                          size_t i0, size_t entries, uint64_t bpe,
                          double precision, double* out, uint64_t* bit) {
  uint64_t b = *bit;
  size_t i = i0;
  // Fast path needs shift + bpe <= 64 so the 8-byte window never spills
  // (bpe <= 57); _mm512_cvtepu64_pd (DQ) rounds exactly like the scalar
  // static_cast, so decoded doubles stay bit-identical.
  if (bpe <= 57) {
    const uint64_t mask = (~0ULL) >> (64 - bpe);
    const __m512i vmask = _mm512_set1_epi64(static_cast<long long>(mask));
    const __m512i vseven = _mm512_set1_epi64(7);
    const __m512d vprec = _mm512_set1_pd(precision);
    __m512i vbit = _mm512_setr_epi64(
        static_cast<long long>(b), static_cast<long long>(b + bpe),
        static_cast<long long>(b + 2 * bpe), static_cast<long long>(b + 3 * bpe),
        static_cast<long long>(b + 4 * bpe), static_cast<long long>(b + 5 * bpe),
        static_cast<long long>(b + 6 * bpe),
        static_cast<long long>(b + 7 * bpe));
    const __m512i vstep = _mm512_set1_epi64(static_cast<long long>(8 * bpe));
    while (i + 8 <= entries) {
      if (((b + 7 * bpe) >> 3) + 8 > stream_bytes) break;
      const __m512i voff = _mm512_srli_epi64(vbit, 3);
      const __m512i vshift = _mm512_and_si512(vbit, vseven);
      const __m512i win = _mm512_i64gather_epi64(voff, stream, 1);
      const __m512i word =
          _mm512_and_si512(_mm512_srlv_epi64(win, vshift), vmask);
      const __m512i sign = _mm512_slli_epi64(word, 63);
      const __m512d v =
          _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64(word, 1)),
                        vprec);
      _mm512_storeu_pd(out + i,
                       _mm512_castsi512_pd(_mm512_xor_si512(
                           _mm512_castpd_si512(v), sign)));
      vbit = _mm512_add_epi64(vbit, vstep);
      b += 8 * bpe;
      i += 8;
    }
  }
  *bit = b;
  return (i - i0) + UnpackWindowScalar(stream, stream_bytes, i, entries, bpe,
                                       precision, out, bit);
}

}  // namespace

const SimdKernelTable& Avx512KernelTable() {
  static const SimdKernelTable table = {
      .backend = SimdBackend::kAvx512,
      .gemm_nn = GemmNnAvx512,
      .gemm_tn = GemmTnAvx512,
      .gram_acc = GramAccAvx512,
      .syrk_acc = SyrkAccAvx512,
      .col_dot = ColDotAvx512,
      .col_rotate = ColRotateAvx512,
      .dot = DotAvx512,
      .max_abs = MaxAbsAvx512,
      .sym_eigen = SymEigenAvx512,
      .axpy = AxpyAvx512,
      .add_f64_bytes = AddF64BytesAvx512,
      // Index-gather bound: the shared scalar loops (see
      // simd_kernels_internal.h).
      .scatter_axpy = ScatterAxpyScalar,
      .sparse_outer_acc = SparseOuterAccScalar,
      .pack_window = PackWindowAvx512,
      .unpack_window = UnpackWindowAvx512,
      .crc64 = Crc64KernelFor(SimdBackend::kAvx512),
  };
  return table;
}

}  // namespace simd_internal
}  // namespace distsketch

#endif  // DS_SIMD_COMPILED_AVX512
