#ifndef DISTSKETCH_COMMON_CPU_FEATURES_H_
#define DISTSKETCH_COMMON_CPU_FEATURES_H_

#include <optional>
#include <string_view>

namespace distsketch {

/// SIMD backend tier a dispatched kernel can be served by. The scalar
/// tier is the semantic reference: every vectorized tier must match it
/// bit-for-bit on integer paths (wire bit-packing) and within the pinned
/// reduction envelope on float paths (DESIGN.md §12).
enum class SimdBackend : uint8_t {
  kScalar = 0,
  /// AVX2 + FMA (256-bit doubles, fused multiply-add).
  kAvx2 = 1,
  /// AVX-512 F/DQ/BW/VL (512-bit doubles, masked tails, u64->f64 cvt).
  kAvx512 = 2,
};

inline constexpr size_t kNumSimdBackends = 3;

/// Runtime-detected instruction-set capabilities of this CPU (CPUID plus
/// the OS XSAVE state the builtins already account for).
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
  bool avx512dq = false;
  bool avx512bw = false;
  bool avx512vl = false;
  /// Carry-less multiply: PCLMULQDQ on xmm, VPCLMULQDQ on ymm/zmm. They
  /// gate the crc64 kernels only, not a backend.
  bool pclmulqdq = false;
  bool vpclmulqdq = false;
};

/// Probes the CPU once and caches the result. Always all-false on
/// non-x86 builds.
const CpuFeatures& DetectCpuFeatures();

/// True iff this host can execute `backend` (kScalar always can). A
/// backend is supported only when the binary also compiled its kernels;
/// a build without -mavx512f support reports kAvx512 unsupported even on
/// an AVX-512 host.
bool SimdBackendSupported(SimdBackend backend);

/// The widest supported backend (the startup dispatch default).
SimdBackend BestSimdBackend();

/// Stable lowercase name: "scalar" / "avx2" / "avx512". These are the
/// DS_SIMD override values, the BENCH_sketch.json `backend` field, and
/// the suffix of the "simd.<kernel>.<backend>" telemetry counters.
std::string_view SimdBackendName(SimdBackend backend);

/// Parses a SimdBackendName string (the DS_SIMD grammar). Empty or
/// unknown strings parse to nullopt.
std::optional<SimdBackend> ParseSimdBackend(std::string_view name);

}  // namespace distsketch

#endif  // DISTSKETCH_COMMON_CPU_FEATURES_H_
