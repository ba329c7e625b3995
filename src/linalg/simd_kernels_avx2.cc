// AVX2+FMA backend of the SimdKernelTable. Compiled with -mavx2 -mfma
// (see src/linalg/CMakeLists.txt); nothing here runs unless
// DetectCpuFeatures() confirmed the ISA at dispatch resolution.
//
// Float kernels: fused and reassociated relative to the scalar
// reference, bounded by the reduction envelope of DESIGN.md §12.
// Integer kernels (pack/unpack windows): bit-identical to scalar by
// contract. Every kernel is deterministic for a fixed input — lane
// counts and tail handling depend only on shapes, never on data.

#include "linalg/simd_kernels_internal.h"

#if defined(DS_SIMD_COMPILED_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <limits>

namespace distsketch {
namespace simd_internal {
namespace {

constexpr size_t kGemmBlockK = 64;

// Deterministic horizontal sum: lanes added in a fixed (0+2, 1+3) tree.
inline double HSum256(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d sum2 = _mm_add_pd(lo, hi);
  const __m128d swap = _mm_unpackhi_pd(sum2, sum2);
  return _mm_cvtsd_f64(_mm_add_sd(sum2, swap));
}

void GemmNnAvx2(const double* a, size_t m, size_t kk, const double* b,
                size_t n, double* c) {
  for (size_t k0 = 0; k0 < kk; k0 += kGemmBlockK) {
    const size_t k1 = std::min(kk, k0 + kGemmBlockK);
    for (size_t i = 0; i < m; ++i) {
      const double* ai = a + i * kk;
      double* ci = c + i * n;
      size_t k = k0;
      for (; k + 4 <= k1; k += 4) {
        const __m256d a0 = _mm256_broadcast_sd(ai + k);
        const __m256d a1 = _mm256_broadcast_sd(ai + k + 1);
        const __m256d a2 = _mm256_broadcast_sd(ai + k + 2);
        const __m256d a3 = _mm256_broadcast_sd(ai + k + 3);
        const double* b0 = b + k * n;
        const double* b1 = b0 + n;
        const double* b2 = b1 + n;
        const double* b3 = b2 + n;
        size_t j = 0;
        for (; j + 4 <= n; j += 4) {
          __m256d acc = _mm256_loadu_pd(ci + j);
          acc = _mm256_fmadd_pd(a0, _mm256_loadu_pd(b0 + j), acc);
          acc = _mm256_fmadd_pd(a1, _mm256_loadu_pd(b1 + j), acc);
          acc = _mm256_fmadd_pd(a2, _mm256_loadu_pd(b2 + j), acc);
          acc = _mm256_fmadd_pd(a3, _mm256_loadu_pd(b3 + j), acc);
          _mm256_storeu_pd(ci + j, acc);
        }
        for (; j < n; ++j) {
          ci[j] += ai[k] * b0[j] + ai[k + 1] * b1[j] + ai[k + 2] * b2[j] +
                   ai[k + 3] * b3[j];
        }
      }
      for (; k < k1; ++k) {
        const __m256d ak = _mm256_broadcast_sd(ai + k);
        const double* bk = b + k * n;
        size_t j = 0;
        for (; j + 4 <= n; j += 4) {
          __m256d acc = _mm256_loadu_pd(ci + j);
          acc = _mm256_fmadd_pd(ak, _mm256_loadu_pd(bk + j), acc);
          _mm256_storeu_pd(ci + j, acc);
        }
        for (; j < n; ++j) ci[j] += ai[k] * bk[j];
      }
    }
  }
}

void GemmTnAvx2(const double* a, size_t kk, size_t m, const double* b,
                size_t n, double* c) {
  for (size_t k0 = 0; k0 < kk; k0 += kGemmBlockK) {
    const size_t k1 = std::min(kk, k0 + kGemmBlockK);
    for (size_t i = 0; i < m; ++i) {
      double* ci = c + i * n;
      size_t k = k0;
      for (; k + 4 <= k1; k += 4) {
        const __m256d a0 = _mm256_broadcast_sd(a + k * m + i);
        const __m256d a1 = _mm256_broadcast_sd(a + (k + 1) * m + i);
        const __m256d a2 = _mm256_broadcast_sd(a + (k + 2) * m + i);
        const __m256d a3 = _mm256_broadcast_sd(a + (k + 3) * m + i);
        const double* b0 = b + k * n;
        const double* b1 = b0 + n;
        const double* b2 = b1 + n;
        const double* b3 = b2 + n;
        size_t j = 0;
        for (; j + 4 <= n; j += 4) {
          __m256d acc = _mm256_loadu_pd(ci + j);
          acc = _mm256_fmadd_pd(a0, _mm256_loadu_pd(b0 + j), acc);
          acc = _mm256_fmadd_pd(a1, _mm256_loadu_pd(b1 + j), acc);
          acc = _mm256_fmadd_pd(a2, _mm256_loadu_pd(b2 + j), acc);
          acc = _mm256_fmadd_pd(a3, _mm256_loadu_pd(b3 + j), acc);
          _mm256_storeu_pd(ci + j, acc);
        }
        for (; j < n; ++j) {
          ci[j] += a[k * m + i] * b0[j] + a[(k + 1) * m + i] * b1[j] +
                   a[(k + 2) * m + i] * b2[j] + a[(k + 3) * m + i] * b3[j];
        }
      }
      for (; k < k1; ++k) {
        const __m256d ak = _mm256_broadcast_sd(a + k * m + i);
        const double* bk = b + k * n;
        size_t j = 0;
        for (; j + 4 <= n; j += 4) {
          __m256d acc = _mm256_loadu_pd(ci + j);
          acc = _mm256_fmadd_pd(ak, _mm256_loadu_pd(bk + j), acc);
          _mm256_storeu_pd(ci + j, acc);
        }
        for (; j < n; ++j) ci[j] += a[k * m + i] * bk[j];
      }
    }
  }
}

void GramAccAvx2(const double* a, size_t row_begin, size_t row_end, size_t d,
                 double* g) {
  size_t k = row_begin;
  // Four rows per pass: each loaded g vector absorbs four FMAs, so the
  // load/store traffic on g is amortised 2x better than the scalar
  // two-row schedule.
  for (; k + 4 <= row_end; k += 4) {
    const double* r0 = a + k * d;
    const double* r1 = r0 + d;
    const double* r2 = r1 + d;
    const double* r3 = r2 + d;
    for (size_t i = 0; i < d; ++i) {
      const __m256d u0 = _mm256_broadcast_sd(r0 + i);
      const __m256d u1 = _mm256_broadcast_sd(r1 + i);
      const __m256d u2 = _mm256_broadcast_sd(r2 + i);
      const __m256d u3 = _mm256_broadcast_sd(r3 + i);
      double* gi = g + i * d;
      size_t j = i;
      for (; j + 4 <= d; j += 4) {
        __m256d acc = _mm256_loadu_pd(gi + j);
        acc = _mm256_fmadd_pd(u0, _mm256_loadu_pd(r0 + j), acc);
        acc = _mm256_fmadd_pd(u1, _mm256_loadu_pd(r1 + j), acc);
        acc = _mm256_fmadd_pd(u2, _mm256_loadu_pd(r2 + j), acc);
        acc = _mm256_fmadd_pd(u3, _mm256_loadu_pd(r3 + j), acc);
        _mm256_storeu_pd(gi + j, acc);
      }
      for (; j < d; ++j) {
        gi[j] += r0[i] * r0[j] + r1[i] * r1[j] + r2[i] * r2[j] +
                 r3[i] * r3[j];
      }
    }
  }
  for (; k < row_end; ++k) {
    const double* row = a + k * d;
    for (size_t i = 0; i < d; ++i) {
      const __m256d ri = _mm256_broadcast_sd(row + i);
      double* gi = g + i * d;
      size_t j = i;
      for (; j + 4 <= d; j += 4) {
        __m256d acc = _mm256_loadu_pd(gi + j);
        acc = _mm256_fmadd_pd(ri, _mm256_loadu_pd(row + j), acc);
        _mm256_storeu_pd(gi + j, acc);
      }
      for (; j < d; ++j) gi[j] += row[i] * row[j];
    }
  }
}

void SyrkAccAvx2(const double* a, size_t m, size_t d, double alpha,
                 double* c) {
  size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const double* x0 = a + i * d;
    const double* x1 = x0 + d;
    size_t j = i;
    for (; j + 2 <= m; j += 2) {
      const double* y0 = a + j * d;
      const double* y1 = y0 + d;
      __m256d v00 = _mm256_setzero_pd();
      __m256d v01 = _mm256_setzero_pd();
      __m256d v10 = _mm256_setzero_pd();
      __m256d v11 = _mm256_setzero_pd();
      size_t t = 0;
      for (; t + 4 <= d; t += 4) {
        const __m256d u0 = _mm256_loadu_pd(x0 + t);
        const __m256d u1 = _mm256_loadu_pd(x1 + t);
        const __m256d w0 = _mm256_loadu_pd(y0 + t);
        const __m256d w1 = _mm256_loadu_pd(y1 + t);
        v00 = _mm256_fmadd_pd(u0, w0, v00);
        v01 = _mm256_fmadd_pd(u0, w1, v01);
        v10 = _mm256_fmadd_pd(u1, w0, v10);
        v11 = _mm256_fmadd_pd(u1, w1, v11);
      }
      double s00 = HSum256(v00);
      double s01 = HSum256(v01);
      double s10 = HSum256(v10);
      double s11 = HSum256(v11);
      for (; t < d; ++t) {
        s00 += x0[t] * y0[t];
        s01 += x0[t] * y1[t];
        s10 += x1[t] * y0[t];
        s11 += x1[t] * y1[t];
      }
      c[i * m + j] += alpha * s00;
      c[i * m + j + 1] += alpha * s01;
      c[(i + 1) * m + j + 1] += alpha * s11;
      // On the diagonal tile (j == i) this writes the lower mirror of
      // s01; the vector schedule keeps s10 == s01 bit-for-bit there.
      c[(i + 1) * m + j] += alpha * s10;
    }
    if (j < m) {
      const double* y0 = a + j * d;
      __m256d v0 = _mm256_setzero_pd();
      __m256d v1 = _mm256_setzero_pd();
      size_t t = 0;
      for (; t + 4 <= d; t += 4) {
        const __m256d w0 = _mm256_loadu_pd(y0 + t);
        v0 = _mm256_fmadd_pd(_mm256_loadu_pd(x0 + t), w0, v0);
        v1 = _mm256_fmadd_pd(_mm256_loadu_pd(x1 + t), w0, v1);
      }
      double s0 = HSum256(v0);
      double s1 = HSum256(v1);
      for (; t < d; ++t) {
        s0 += x0[t] * y0[t];
        s1 += x1[t] * y0[t];
      }
      c[i * m + j] += alpha * s0;
      c[(i + 1) * m + j] += alpha * s1;
    }
  }
  if (i < m) {
    const double* x0 = a + i * d;
    for (size_t j = i; j < m; ++j) {
      const double* y0 = a + j * d;
      __m256d v0 = _mm256_setzero_pd();
      size_t t = 0;
      for (; t + 4 <= d; t += 4) {
        v0 = _mm256_fmadd_pd(_mm256_loadu_pd(x0 + t),
                             _mm256_loadu_pd(y0 + t), v0);
      }
      double s0 = HSum256(v0);
      for (; t < d; ++t) s0 += x0[t] * y0[t];
      c[i * m + j] += alpha * s0;
    }
  }
}

double ColDotAvx2(const double* base, size_t m, size_t n, size_t p,
                  size_t q) {
  const long long ln = static_cast<long long>(n);
  const __m256i idx = _mm256_setr_epi64x(0, ln, 2 * ln, 3 * ln);
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* row = base + i * n;
    const __m256d vp = _mm256_i64gather_pd(row + p, idx, 8);
    const __m256d vq = _mm256_i64gather_pd(row + q, idx, 8);
    acc = _mm256_fmadd_pd(vp, vq, acc);
  }
  double apq = HSum256(acc);
  for (; i < m; ++i) {
    const double* row = base + i * n;
    apq += row[p] * row[q];
  }
  return apq;
}

void ColRotateAvx2(double* base, size_t m, size_t n, size_t p, size_t q,
                   double c, double s) {
  const long long ln = static_cast<long long>(n);
  const __m256i idx = _mm256_setr_epi64x(0, ln, 2 * ln, 3 * ln);
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    double* row = base + i * n;
    const __m256d wp = _mm256_i64gather_pd(row + p, idx, 8);
    const __m256d wq = _mm256_i64gather_pd(row + q, idx, 8);
    // np = c*wp - s*wq, nq = s*wp + c*wq; no scatter in AVX2, so the
    // four lanes are stored through 128-bit extracts.
    const __m256d np = _mm256_fmsub_pd(vc, wp, _mm256_mul_pd(vs, wq));
    const __m256d nq = _mm256_fmadd_pd(vs, wp, _mm256_mul_pd(vc, wq));
    alignas(32) double sp[4];
    alignas(32) double sq[4];
    _mm256_store_pd(sp, np);
    _mm256_store_pd(sq, nq);
    row[p] = sp[0];
    row[q] = sq[0];
    row[n + p] = sp[1];
    row[n + q] = sq[1];
    row[2 * n + p] = sp[2];
    row[2 * n + q] = sq[2];
    row[3 * n + p] = sp[3];
    row[3 * n + q] = sq[3];
  }
  for (; i < m; ++i) {
    double* row = base + i * n;
    const double wp = row[p];
    const double wq = row[q];
    row[p] = c * wp - s * wq;
    row[q] = s * wp + c * wq;
  }
}

double DotAvx2(const double* x, const double* y, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4),
                           _mm256_loadu_pd(y + i + 4), acc1);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i),
                           acc0);
  }
  double acc = HSum256(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

// vmaxpd returns its second operand when the first is NaN, so with the
// running max second a NaN entry is ignored, as in the scalar kernel. A
// lane is flagged once it sees |x| !<= DBL_MAX (an infinity or a NaN).
double MaxAbsAvx2(const double* x, size_t n, bool* finite) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d dmax = _mm256_set1_pd(std::numeric_limits<double>::max());
  __m256d m0 = _mm256_setzero_pd();
  __m256d m1 = _mm256_setzero_pd();
  __m256d bad = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d a0 = _mm256_andnot_pd(sign, _mm256_loadu_pd(x + i));
    const __m256d a1 = _mm256_andnot_pd(sign, _mm256_loadu_pd(x + i + 4));
    m0 = _mm256_max_pd(a0, m0);
    m1 = _mm256_max_pd(a1, m1);
    bad = _mm256_or_pd(bad, _mm256_cmp_pd(a0, dmax, _CMP_NLE_UQ));
    bad = _mm256_or_pd(bad, _mm256_cmp_pd(a1, dmax, _CMP_NLE_UQ));
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d a0 = _mm256_andnot_pd(sign, _mm256_loadu_pd(x + i));
    m0 = _mm256_max_pd(a0, m0);
    bad = _mm256_or_pd(bad, _mm256_cmp_pd(a0, dmax, _CMP_NLE_UQ));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, _mm256_max_pd(m0, m1));
  bool tail_finite = true;
  double m = MaxAbsScalar(x + i, n - i, &tail_finite);
  for (const double lane : lanes) m = std::max(m, lane);
  *finite = tail_finite && _mm256_movemask_pd(bad) == 0;
  return m;
}

void AxpyAvx2(double* y, const double* x, double alpha, size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(
        y + j, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + j),
                               _mm256_loadu_pd(y + j)));
  }
  for (; j < n; ++j) y[j] += alpha * x[j];
}

// Byte loads (the stream is unaligned), reinterpreted as four doubles;
// vaddpd rounds each lane exactly like the scalar add.
void AddF64BytesAvx2(double* y, const uint8_t* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_castsi256_pd(_mm256_loadu_si256(
        reinterpret_cast<const __m256i_u*>(x + i * sizeof(double))));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), v));
  }
  AddF64BytesScalar(y + i, x + i * sizeof(double), n - i);
}

size_t PackWindowAvx2(const int64_t* quotients, size_t i0, size_t entries,
                      uint64_t bpe, uint8_t* bytes, size_t payload_bytes,
                      uint64_t* bit) {
  uint64_t b = *bit;
  size_t i = i0;
  // Vectorized sign/magnitude conversion and range check, four entries
  // per pass; the overlapping window ORs stay scalar (they carry a
  // store-to-load dependency through the byte stream). bpe == 63 would
  // need an unsigned 64-bit compare AVX2 lacks, so it goes scalar.
  if (bpe >= 2 && bpe <= 62) {
    const __m256i zero = _mm256_setzero_si256();
    const __m256i thresh =
        _mm256_set1_epi64x(static_cast<long long>((1ULL << (bpe - 1)) - 1));
    alignas(32) uint64_t words[4];
    while (i + 4 <= entries) {
      if (((b + 3 * bpe) >> 3) + 9 > payload_bytes) break;
      const __m256i q = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(quotients + i));
      const __m256i negmask = _mm256_cmpgt_epi64(zero, q);
      const __m256i mag =
          _mm256_sub_epi64(_mm256_xor_si256(q, negmask), negmask);
      // mag out of range when mag > thresh (signed is safe: thresh <
      // 2^62) or when mag itself went negative (|INT64_MIN|).
      const __m256i bad = _mm256_or_si256(_mm256_cmpgt_epi64(mag, thresh),
                                          _mm256_cmpgt_epi64(zero, mag));
      if (!_mm256_testz_si256(bad, bad)) break;  // scalar tail reports it
      const __m256i word = _mm256_or_si256(_mm256_slli_epi64(mag, 1),
                                           _mm256_srli_epi64(q, 63));
      _mm256_store_si256(reinterpret_cast<__m256i*>(words), word);
      for (int t = 0; t < 4; ++t) {
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
      i += 4;
    }
  }
  *bit = b;
  const size_t rest = PackWindowScalar(quotients, i, entries, bpe, bytes,
                                       payload_bytes, bit);
  if (rest == SIZE_MAX) return SIZE_MAX;
  return (i - i0) + rest;
}

size_t UnpackWindowAvx2(const uint8_t* stream, size_t stream_bytes,
                        size_t i0, size_t entries, uint64_t bpe,
                        double precision, double* out, uint64_t* bit) {
  uint64_t b = *bit;
  size_t i = i0;
  // Fast path needs shift + bpe <= 64 (no spill byte: bpe <= 57) and the
  // exponent-trick u64->f64 conversion (mag < 2^52: bpe <= 53). Both
  // bounds depend only on bpe, so lane behaviour is shape-deterministic.
  if (bpe <= 53) {
    const uint64_t mask = (~0ULL) >> (64 - bpe);
    const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
    const __m256i vseven = _mm256_set1_epi64x(7);
    // 2^52 exponent bits: OR-ing a sub-2^52 integer into the mantissa of
    // 2^52 and subtracting 2^52 is the exact u64->f64 conversion.
    const __m256i expo = _mm256_set1_epi64x(0x4330000000000000LL);
    const __m256d expo_d = _mm256_castsi256_pd(expo);
    const __m256d vprec = _mm256_set1_pd(precision);
    __m256i vbit = _mm256_setr_epi64x(
        static_cast<long long>(b), static_cast<long long>(b + bpe),
        static_cast<long long>(b + 2 * bpe),
        static_cast<long long>(b + 3 * bpe));
    const __m256i vstep = _mm256_set1_epi64x(static_cast<long long>(4 * bpe));
    while (i + 4 <= entries) {
      if (((b + 3 * bpe) >> 3) + 8 > stream_bytes) break;
      const __m256i voff = _mm256_srli_epi64(vbit, 3);
      const __m256i vshift = _mm256_and_si256(vbit, vseven);
      const __m256i win = _mm256_i64gather_epi64(
          reinterpret_cast<const long long*>(stream), voff, 1);
      const __m256i word =
          _mm256_and_si256(_mm256_srlv_epi64(win, vshift), vmask);
      const __m256i sign = _mm256_slli_epi64(word, 63);  // bit 0 -> signbit
      const __m256i mag = _mm256_srli_epi64(word, 1);
      const __m256d v = _mm256_mul_pd(
          _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(mag, expo)),
                        expo_d),
          vprec);
      _mm256_storeu_pd(out + i,
                       _mm256_xor_pd(v, _mm256_castsi256_pd(sign)));
      vbit = _mm256_add_epi64(vbit, vstep);
      b += 4 * bpe;
      i += 4;
    }
  }
  *bit = b;
  return (i - i0) + UnpackWindowScalar(stream, stream_bytes, i, entries, bpe,
                                       precision, out, bit);
}

}  // namespace

const SimdKernelTable& Avx2KernelTable() {
  static const SimdKernelTable table = {
      .backend = SimdBackend::kAvx2,
      .gemm_nn = GemmNnAvx2,
      .gemm_tn = GemmTnAvx2,
      .gram_acc = GramAccAvx2,
      .syrk_acc = SyrkAccAvx2,
      .col_dot = ColDotAvx2,
      .col_rotate = ColRotateAvx2,
      .dot = DotAvx2,
      .max_abs = MaxAbsAvx2,
      .sym_eigen = SymEigenAvx2,
      .axpy = AxpyAvx2,
      .add_f64_bytes = AddF64BytesAvx2,
      // Index-gather bound: the shared scalar loops (see
      // simd_kernels_internal.h).
      .scatter_axpy = ScatterAxpyScalar,
      .sparse_outer_acc = SparseOuterAccScalar,
      .pack_window = PackWindowAvx2,
      .unpack_window = UnpackWindowAvx2,
      .crc64 = Crc64KernelFor(SimdBackend::kAvx2),
  };
  return table;
}

}  // namespace simd_internal
}  // namespace distsketch

#endif  // DS_SIMD_COMPILED_AVX2
