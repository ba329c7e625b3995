// The crc64 kernel of the avx512 table: a VPCLMULQDQ fold over four zmm
// accumulators (sixteen 16-byte lanes, 256 bytes per step). Compiled
// with the AVX-512 flags plus -mvpclmulqdq; reached only through
// Crc64KernelFor once CPUID reports VPCLMULQDQ.

#include "linalg/crc64_internal.h"
#include "linalg/simd_kernels_internal.h"

#if defined(DS_CRC64_COMPILED_VPCLMUL)

namespace distsketch {
namespace simd_internal {
namespace {

using crc64_internal::FoldBy;
using crc64_internal::FoldConstant;

__m512i LoadFold4(FoldConstant k) {
  return _mm512_broadcast_i32x4(crc64_internal::LoadFold(k));
}

/// Each 128-bit lane of z moved forward by k's distance, XORed into y.
__m512i Fold4(__m512i z, __m512i k, __m512i y) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(z, k, 0x00),
                                   _mm512_clmulepi64_epi128(z, k, 0x11), y,
                                   0x96);
}

}  // namespace

uint64_t Crc64Vpclmul(uint64_t crc, const uint8_t* data, size_t n) {
  constexpr size_t kStep = 256;  // four zmm of four lanes each
  if (n < kStep) return Crc64Pclmul(crc, data, n);
  auto load = [](const uint8_t* p) { return _mm512_loadu_si512(p); };
  __m512i z0 = _mm512_xor_si512(
      load(data), _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0,
                                   static_cast<long long>(~crc)));
  __m512i z1 = load(data + 64);
  __m512i z2 = load(data + 128);
  __m512i z3 = load(data + 192);
  const uint8_t* p = data + kStep;
  n -= kStep;
  constexpr FoldConstant kBy2048 = FoldBy(2048);
  const __m512i k_step = LoadFold4(kBy2048);
  for (; n >= kStep; n -= kStep, p += kStep) {
    z0 = Fold4(z0, k_step, load(p));
    z1 = Fold4(z1, k_step, load(p + 64));
    z2 = Fold4(z2, k_step, load(p + 128));
    z3 = Fold4(z3, k_step, load(p + 192));
  }
  constexpr FoldConstant kBy1536 = FoldBy(1536);
  constexpr FoldConstant kBy1024 = FoldBy(1024);
  constexpr FoldConstant kBy512 = FoldBy(512);
  const __m512i k512 = LoadFold4(kBy512);
  __m512i z = Fold4(z0, LoadFold4(kBy1536),
                    Fold4(z1, LoadFold4(kBy1024), Fold4(z2, k512, z3)));
  for (; n >= 64; n -= 64, p += 64) z = Fold4(z, k512, load(p));
  // Lane i of z sits (3 - i) blocks before the last one.
  constexpr FoldConstant kBy384 = FoldBy(384);
  constexpr FoldConstant kBy256 = FoldBy(256);
  constexpr FoldConstant kBy128 = FoldBy(128);
  using crc64_internal::Fold;
  using crc64_internal::LoadFold;
  __m128i x = _mm512_extracti32x4_epi32(z, 3);
  x = _mm_xor_si128(
      x, Fold(_mm512_extracti32x4_epi32(z, 0), LoadFold(kBy384)));
  x = _mm_xor_si128(
      x, Fold(_mm512_extracti32x4_epi32(z, 1), LoadFold(kBy256)));
  x = _mm_xor_si128(
      x, Fold(_mm512_extracti32x4_epi32(z, 2), LoadFold(kBy128)));
  return ~crc64_internal::FinishFold(x, p, n);
}

}  // namespace simd_internal
}  // namespace distsketch

#endif  // DS_CRC64_COMPILED_VPCLMUL
