#include "linalg/simd_dispatch.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>

#include "common/logging.h"
#include "linalg/simd_kernels_internal.h"
#include "telemetry/telemetry.h"

namespace distsketch {
namespace {

// ---------------------------------------------------------------------
// Scalar kernels. These are the pre-dispatch loops moved verbatim from
// blas.cc / svd.cc / wire/codec.cc: identical operation order, so the
// scalar backend reproduces the historical results bit-for-bit
// (tests/linalg/simd_dispatch_test pins this against independent
// reference loops). The scalar eigensolver lives in eigen_sym.cc.
// ---------------------------------------------------------------------

// Rows of B kept hot per tile: 64 rows of a 512-column double matrix is
// 256 KiB, sized to live in L2 while the i-loop sweeps over it.
constexpr size_t kGemmBlockK = 64;

void GemmNnScalar(const double* a, size_t m, size_t kk, const double* b,
                  size_t n, double* c) {
  for (size_t k0 = 0; k0 < kk; k0 += kGemmBlockK) {
    const size_t k1 = std::min(kk, k0 + kGemmBlockK);
    for (size_t i = 0; i < m; ++i) {
      const double* ai = a + i * kk;
      double* ci = c + i * n;
      size_t k = k0;
      for (; k + 4 <= k1; k += 4) {
        const double a0 = ai[k];
        const double a1 = ai[k + 1];
        const double a2 = ai[k + 2];
        const double a3 = ai[k + 3];
        const double* b0 = b + k * n;
        const double* b1 = b0 + n;
        const double* b2 = b1 + n;
        const double* b3 = b2 + n;
        for (size_t j = 0; j < n; ++j) {
          ci[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
        }
      }
      for (; k < k1; ++k) {
        const double ak = ai[k];
        const double* bk = b + k * n;
        for (size_t j = 0; j < n; ++j) ci[j] += ak * bk[j];
      }
    }
  }
}

void GemmTnScalar(const double* a, size_t kk, size_t m, const double* b,
                  size_t n, double* c) {
  for (size_t k0 = 0; k0 < kk; k0 += kGemmBlockK) {
    const size_t k1 = std::min(kk, k0 + kGemmBlockK);
    for (size_t i = 0; i < m; ++i) {
      double* ci = c + i * n;
      size_t k = k0;
      for (; k + 4 <= k1; k += 4) {
        const double a0 = a[k * m + i];
        const double a1 = a[(k + 1) * m + i];
        const double a2 = a[(k + 2) * m + i];
        const double a3 = a[(k + 3) * m + i];
        const double* b0 = b + k * n;
        const double* b1 = b0 + n;
        const double* b2 = b1 + n;
        const double* b3 = b2 + n;
        for (size_t j = 0; j < n; ++j) {
          ci[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
        }
      }
      for (; k < k1; ++k) {
        const double ak = a[k * m + i];
        const double* bk = b + k * n;
        for (size_t j = 0; j < n; ++j) ci[j] += ak * bk[j];
      }
    }
  }
}

void GramAccScalar(const double* a, size_t row_begin, size_t row_end,
                   size_t d, double* g) {
  size_t k = row_begin;
  for (; k + 2 <= row_end; k += 2) {
    const double* r0 = a + k * d;
    const double* r1 = r0 + d;
    for (size_t i = 0; i < d; ++i) {
      const double u0 = r0[i];
      const double u1 = r1[i];
      double* gi = g + i * d;
      for (size_t j = i; j < d; ++j) gi[j] += u0 * r0[j] + u1 * r1[j];
    }
  }
  for (; k < row_end; ++k) {
    const double* row = a + k * d;
    for (size_t i = 0; i < d; ++i) {
      const double ri = row[i];
      double* gi = g + i * d;
      for (size_t j = i; j < d; ++j) gi[j] += ri * row[j];
    }
  }
}

void SyrkAccScalar(const double* a, size_t m, size_t d, double alpha,
                   double* c) {
  size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const double* x0 = a + i * d;
    const double* x1 = x0 + d;
    size_t j = i;
    for (; j + 2 <= m; j += 2) {
      const double* y0 = a + j * d;
      const double* y1 = y0 + d;
      double s00 = 0.0, s01 = 0.0, s10 = 0.0, s11 = 0.0;
      for (size_t t = 0; t < d; ++t) {
        const double u0 = x0[t];
        const double u1 = x1[t];
        const double v0 = y0[t];
        const double v1 = y1[t];
        s00 += u0 * v0;
        s01 += u0 * v1;
        s10 += u1 * v0;
        s11 += u1 * v1;
      }
      c[i * m + j] += alpha * s00;
      c[i * m + j + 1] += alpha * s01;
      c[(i + 1) * m + j + 1] += alpha * s11;
      // Upper for j >= i + 2; on the diagonal tile (j == i) it is the
      // lower mirror of s01 and bit-identical to it.
      c[(i + 1) * m + j] += alpha * s10;
    }
    if (j < m) {
      const double* y0 = a + j * d;
      double s0 = 0.0, s1 = 0.0;
      for (size_t t = 0; t < d; ++t) {
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
      double s0 = 0.0;
      for (size_t t = 0; t < d; ++t) s0 += x0[t] * y0[t];
      c[i * m + j] += alpha * s0;
    }
  }
}

double ColDotScalar(const double* base, size_t m, size_t n, size_t p,
                    size_t q) {
  double apq = 0.0;
  for (size_t i = 0; i < m; ++i) {
    const double* row = base + i * n;
    apq += row[p] * row[q];
  }
  return apq;
}

void ColRotateScalar(double* base, size_t m, size_t n, size_t p, size_t q,
                     double c, double s) {
  for (size_t i = 0; i < m; ++i) {
    double* row = base + i * n;
    const double wp = row[p];
    const double wq = row[q];
    row[p] = c * wp - s * wq;
    row[q] = s * wp + c * wq;
  }
}

double DotScalar(const double* x, const double* y, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

void AxpyScalar(double* y, const double* x, double alpha, size_t n) {
  for (size_t j = 0; j < n; ++j) y[j] += alpha * x[j];
}

}  // namespace

namespace simd_internal {

double MaxAbsScalar(const double* x, size_t n, bool* finite) {
  double m = 0.0;
  bool all_finite = true;
  for (size_t i = 0; i < n; ++i) {
    const double a = std::abs(x[i]);
    m = std::max(m, a);  // a NaN never compares greater: ignored
    all_finite &= a <= std::numeric_limits<double>::max();
  }
  *finite = all_finite;
  return m;
}

void AddF64BytesScalar(double* y, const uint8_t* x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    double v;
    std::memcpy(&v, x + i * sizeof(double), sizeof(double));
    y[i] += v;
  }
}

size_t PackWindowScalar(const int64_t* quotients, size_t i0, size_t entries,
                        uint64_t bpe, uint8_t* bytes, size_t payload_bytes,
                        uint64_t* bit) {
  // LSB-first bits in a little-endian byte stream are exactly the low
  // bits of a little-endian 64-bit load; on a big-endian host the
  // 64-bit window would scramble byte order, so no entries are packed
  // here and the codec's per-bit loop does the whole stream.
  if constexpr (std::endian::native != std::endian::little) return 0;
  uint64_t b = *bit;
  size_t i = i0;
  for (; i < entries; ++i) {
    const uint64_t byte_off = b >> 3;
    if (byte_off + 9 > payload_bytes) break;
    const int64_t qv = quotients[i];
    // 0 - u wraps in unsigned arithmetic, so INT64_MIN's magnitude 2^63
    // needs no signed negation (which would overflow).
    const uint64_t mag = qv < 0 ? 0 - static_cast<uint64_t>(qv)
                                : static_cast<uint64_t>(qv);
    if ((mag >> (bpe - 1)) != 0) {
      *bit = b;
      return SIZE_MAX;
    }
    const uint64_t word = (qv < 0 ? 1u : 0u) | (mag << 1);
    const unsigned shift = static_cast<unsigned>(b & 7);
    uint64_t chunk;
    std::memcpy(&chunk, bytes + byte_off, 8);
    chunk |= word << shift;
    std::memcpy(bytes + byte_off, &chunk, 8);
    if (shift + bpe > 64) {
      bytes[byte_off + 8] |= static_cast<uint8_t>(word >> (64 - shift));
    }
    b += bpe;
  }
  *bit = b;
  return i - i0;
}

size_t UnpackWindowScalar(const uint8_t* stream, size_t stream_bytes,
                          size_t i0, size_t entries, uint64_t bpe,
                          double precision, double* out, uint64_t* bit) {
  if constexpr (std::endian::native != std::endian::little) return 0;
  const uint64_t mask = (~0ULL) >> (64 - bpe);
  uint64_t b = *bit;
  size_t i = i0;
  for (; i < entries; ++i) {
    const uint64_t byte_off = b >> 3;
    if (byte_off + 9 > stream_bytes) break;
    const unsigned shift = static_cast<unsigned>(b & 7);
    uint64_t chunk;
    std::memcpy(&chunk, stream + byte_off, 8);
    uint64_t word = chunk >> shift;
    if (shift + bpe > 64) {
      word |= static_cast<uint64_t>(stream[byte_off + 8]) << (64 - shift);
    }
    word &= mask;
    const bool neg = (word & 1) != 0;
    const double v = static_cast<double>(word >> 1) * precision;
    out[i] = neg ? -v : v;
    b += bpe;
  }
  *bit = b;
  return i - i0;
}

void ScatterAxpyScalar(double* y, const size_t* idx, const double* vals,
                       double alpha, size_t nnz) {
  for (size_t t = 0; t < nnz; ++t) y[idx[t]] += alpha * vals[t];
}

void SparseOuterAccScalar(const size_t* idx, const double* vals, size_t nnz,
                          size_t d, double* g) {
  for (size_t a = 0; a < nnz; ++a) {
    const double va = vals[a];
    double* grow = g + idx[a] * d;
    for (size_t b = a; b < nnz; ++b) grow[idx[b]] += va * vals[b];
  }
}

}  // namespace simd_internal

namespace {

const SimdKernelTable kScalarTable = {
    .backend = SimdBackend::kScalar,
    .gemm_nn = GemmNnScalar,
    .gemm_tn = GemmTnScalar,
    .gram_acc = GramAccScalar,
    .syrk_acc = SyrkAccScalar,
    .col_dot = ColDotScalar,
    .col_rotate = ColRotateScalar,
    .dot = DotScalar,
    .max_abs = simd_internal::MaxAbsScalar,
    .sym_eigen = simd_internal::SymEigenScalar,
    .axpy = AxpyScalar,
    .add_f64_bytes = simd_internal::AddF64BytesScalar,
    .scatter_axpy = simd_internal::ScatterAxpyScalar,
    .sparse_outer_acc = simd_internal::SparseOuterAccScalar,
    .pack_window = simd_internal::PackWindowScalar,
    .unpack_window = simd_internal::UnpackWindowScalar,
    .crc64 = simd_internal::Crc64Scalar,
};

std::atomic<const SimdKernelTable*> g_active{nullptr};

// Startup resolution: widest CPU-supported backend, then the DS_SIMD
// override. Unknown or unsupported overrides warn once on stderr and
// keep the detected backend, so a binary copied to an older host
// degrades instead of dying on an illegal instruction.
const SimdKernelTable* ResolveStartupTable() {
  SimdBackend backend = BestSimdBackend();
  if (const char* env = std::getenv("DS_SIMD"); env != nullptr && *env) {
    if (const auto parsed = ParseSimdBackend(env); !parsed.has_value()) {
      std::fprintf(stderr,
                   "[distsketch] DS_SIMD=%s not recognised "
                   "(scalar|avx2|avx512); using %s\n",
                   env, std::string(SimdBackendName(backend)).c_str());
    } else if (!SimdBackendSupported(*parsed)) {
      std::fprintf(stderr,
                   "[distsketch] DS_SIMD=%s unsupported on this host; "
                   "using %s\n",
                   env, std::string(SimdBackendName(backend)).c_str());
    } else {
      backend = *parsed;
    }
  }
  return &SimdTableFor(backend);
}

}  // namespace

const SimdKernelTable& SimdTableFor(SimdBackend backend) {
  DS_CHECK(SimdBackendSupported(backend));
  switch (backend) {
    case SimdBackend::kScalar:
      return kScalarTable;
    case SimdBackend::kAvx2:
#if defined(DS_SIMD_COMPILED_AVX2)
      return simd_internal::Avx2KernelTable();
#else
      break;
#endif
    case SimdBackend::kAvx512:
#if defined(DS_SIMD_COMPILED_AVX512)
      return simd_internal::Avx512KernelTable();
#else
      break;
#endif
  }
  return kScalarTable;  // unreachable given the DS_CHECK above
}

const SimdKernelTable& ActiveSimd() {
  const SimdKernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    static std::once_flag once;
    std::call_once(once, [] {
      g_active.store(ResolveStartupTable(), std::memory_order_release);
    });
    table = g_active.load(std::memory_order_acquire);
  }
  return *table;
}

SimdBackend ActiveSimdBackend() { return ActiveSimd().backend; }

SimdBackend SetSimdBackendForTesting(SimdBackend backend) {
  const SimdBackend previous = ActiveSimd().backend;
  g_active.store(&SimdTableFor(backend), std::memory_order_release);
  return previous;
}

void CountSimdKernelCall(std::string_view kernel) {
  telemetry::Telemetry* t = telemetry::Telemetry::Current();
  if (!t->enabled()) return;
  const std::string_view backend = SimdBackendName(ActiveSimdBackend());
  char name[64];
  const int len = std::snprintf(name, sizeof(name), "simd.%.*s.%.*s",
                                static_cast<int>(kernel.size()), kernel.data(),
                                static_cast<int>(backend.size()),
                                backend.data());
  if (len > 0) {
    t->metrics().AddCounter(std::string_view(name, static_cast<size_t>(len)),
                            1);
  }
}

}  // namespace distsketch
