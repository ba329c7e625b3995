#include "linalg/crc64_internal.h"
#include "linalg/simd_kernels_internal.h"

namespace distsketch {
namespace simd_internal {

uint64_t Crc64Scalar(uint64_t crc, const uint8_t* data, size_t n) {
  return ~crc64_internal::UpdateTables(~crc, data, n);
}

Crc64Kernel Crc64KernelFor(SimdBackend backend) {
  [[maybe_unused]] const CpuFeatures& f = DetectCpuFeatures();
#if defined(DS_CRC64_COMPILED_VPCLMUL)
  if (backend == SimdBackend::kAvx512 && f.vpclmulqdq && f.pclmulqdq) {
    return Crc64Vpclmul;
  }
#endif
#if defined(DS_CRC64_COMPILED_PCLMUL)
  if (backend != SimdBackend::kScalar && f.pclmulqdq) return Crc64Pclmul;
#endif
  return Crc64Scalar;
}

}  // namespace simd_internal
}  // namespace distsketch
