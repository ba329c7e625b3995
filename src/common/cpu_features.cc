#include "common/cpu_features.h"

namespace distsketch {
namespace {

CpuFeatures Probe() {
  CpuFeatures f;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  // The builtins fold in both CPUID and the OS XSAVE/xgetbv state, so a
  // kernel that does not context-switch the AVX-512 registers reports
  // the feature absent rather than faulting at the first 512-bit op.
  __builtin_cpu_init();
  f.avx2 = __builtin_cpu_supports("avx2");
  f.fma = __builtin_cpu_supports("fma");
  f.avx512f = __builtin_cpu_supports("avx512f");
  f.avx512dq = __builtin_cpu_supports("avx512dq");
  f.avx512bw = __builtin_cpu_supports("avx512bw");
  f.avx512vl = __builtin_cpu_supports("avx512vl");
  f.pclmulqdq = __builtin_cpu_supports("pclmul");
  f.vpclmulqdq = __builtin_cpu_supports("vpclmulqdq");
#endif
  return f;
}

}  // namespace

const CpuFeatures& DetectCpuFeatures() {
  static const CpuFeatures features = Probe();
  return features;
}

bool SimdBackendSupported(SimdBackend backend) {
  const CpuFeatures& f = DetectCpuFeatures();
  switch (backend) {
    case SimdBackend::kScalar:
      return true;
    case SimdBackend::kAvx2:
#if defined(DS_SIMD_COMPILED_AVX2)
      return f.avx2 && f.fma;
#else
      return false;
#endif
    case SimdBackend::kAvx512:
#if defined(DS_SIMD_COMPILED_AVX512)
      return f.avx512f && f.avx512dq && f.avx512bw && f.avx512vl;
#else
      return false;
#endif
  }
  return false;
}

SimdBackend BestSimdBackend() {
  if (SimdBackendSupported(SimdBackend::kAvx512)) return SimdBackend::kAvx512;
  if (SimdBackendSupported(SimdBackend::kAvx2)) return SimdBackend::kAvx2;
  return SimdBackend::kScalar;
}

std::string_view SimdBackendName(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kScalar:
      return "scalar";
    case SimdBackend::kAvx2:
      return "avx2";
    case SimdBackend::kAvx512:
      return "avx512";
  }
  return "scalar";
}

std::optional<SimdBackend> ParseSimdBackend(std::string_view name) {
  if (name == "scalar") return SimdBackend::kScalar;
  if (name == "avx2") return SimdBackend::kAvx2;
  if (name == "avx512") return SimdBackend::kAvx512;
  return std::nullopt;
}

}  // namespace distsketch
