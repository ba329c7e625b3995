// The crc64 kernel of the avx2 table: a PCLMULQDQ fold over eight
// independent 16-byte lanes. Compiled with -mavx2 -mpclmul; reached only
// through Crc64KernelFor once CPUID reports PCLMULQDQ. Eight lanes keep
// eight carry-less multiplies in flight: a four-lane fold waits on the
// multiplier's latency.

#include "linalg/crc64_internal.h"
#include "linalg/simd_kernels_internal.h"

#if defined(DS_CRC64_COMPILED_PCLMUL)

namespace distsketch {
namespace simd_internal {

uint64_t Crc64Pclmul(uint64_t crc, const uint8_t* data, size_t n) {
  using namespace crc64_internal;
  constexpr size_t kLanes = 8;
  const uint64_t reg = ~crc;
  if (n < 16 * kLanes) {
    if (n < 16) return ~UpdateTables(reg, data, n);
    const __m128i x = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data)),
        _mm_cvtsi64_si128(static_cast<long long>(reg)));
    return ~FinishFold(x, data + 16, n - 16);
  }
  auto load = [](const uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  __m128i acc[kLanes];
  for (size_t i = 0; i < kLanes; ++i) acc[i] = load(data + 16 * i);
  acc[0] = _mm_xor_si128(acc[0],
                         _mm_cvtsi64_si128(static_cast<long long>(reg)));
  const uint8_t* p = data + 16 * kLanes;
  n -= 16 * kLanes;
  constexpr FoldConstant kByStride = FoldBy(128 * kLanes);
  const __m128i k_stride = LoadFold(kByStride);
  for (; n >= 16 * kLanes; n -= 16 * kLanes, p += 16 * kLanes) {
    for (size_t i = 0; i < kLanes; ++i) {
      acc[i] = _mm_xor_si128(Fold(acc[i], k_stride), load(p + 16 * i));
    }
  }
  // Lane i still sits (kLanes - 1 - i) blocks before the last one.
  constexpr FoldConstant kBy[kLanes - 1] = {
      FoldBy(128 * 7), FoldBy(128 * 6), FoldBy(128 * 5), FoldBy(128 * 4),
      FoldBy(128 * 3), FoldBy(128 * 2), FoldBy(128 * 1)};
  __m128i x = acc[kLanes - 1];
  for (size_t i = 0; i + 1 < kLanes; ++i) {
    x = _mm_xor_si128(x, Fold(acc[i], LoadFold(kBy[i])));
  }
  return ~FinishFold(x, p, n);
}

}  // namespace simd_internal
}  // namespace distsketch

#endif  // DS_CRC64_COMPILED_PCLMUL
