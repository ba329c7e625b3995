#ifndef DISTSKETCH_LINALG_SIMD_KERNELS_INTERNAL_H_
#define DISTSKETCH_LINALG_SIMD_KERNELS_INTERNAL_H_

#include "linalg/simd_dispatch.h"

// Internal seams between the dispatch resolver and the per-ISA kernel
// translation units. Not part of the public surface.

namespace distsketch {
namespace simd_internal {

// Scalar reference kernels (defined in simd_dispatch.cc). The vector
// TUs call these for shapes outside their fast path (short tails, bit
// widths past the vectorizable range) — the fallbacks stay inside one
// backend's deterministic schedule because the delegation depends only
// on shape and bit width, never on data.
size_t PackWindowScalar(const int64_t* quotients, size_t i0, size_t entries,
                        uint64_t bpe, uint8_t* bytes, size_t payload_bytes,
                        uint64_t* bit);
size_t UnpackWindowScalar(const uint8_t* stream, size_t stream_bytes,
                          size_t i0, size_t entries, uint64_t bpe,
                          double precision, double* out, uint64_t* bit);

// The dense-payload add (SimdKernelTable::add_f64_bytes); the vector TUs
// run their tails through it.
void AddF64BytesScalar(double* y, const uint8_t* x, size_t n);

// The max-abs scan (SimdKernelTable::max_abs); the vector TUs run their
// tails through it.
double MaxAbsScalar(const double* x, size_t n, bool* finite);

// Index-gather-bound sparse kernels: one deterministic scalar loop
// shared by every backend's table (vectorizing a data-dependent scatter
// buys nothing and would fork the reduction order).
void ScatterAxpyScalar(double* y, const size_t* idx, const double* vals,
                       double alpha, size_t nnz);
void SparseOuterAccScalar(const size_t* idx, const double* vals, size_t nnz,
                          size_t d, double* g);

// The symmetric eigensolver (SimdKernelTable::sym_eigen), one instance of
// eigen_sym_solver.h per backend: scalar in eigen_sym.cc, the vector ones
// in eigen_sym_avx2.cc / eigen_sym_avx512.cc.
bool SymEigenScalar(double* z, size_t n, double* d, double* e, double eps,
                    int max_iters);

// The crc64 kernels (SimdKernelTable::crc64). The table loop is in
// crc64.cc; the folds are in crc64_pclmul.cc (-mavx2 -mpclmul) and
// crc64_vpclmul.cc (AVX-512 + -mvpclmulqdq), compiled only when the
// compiler takes those flags (DS_CRC64_COMPILED_*, private to ds_linalg).
using Crc64Kernel = uint64_t (*)(uint64_t crc, const uint8_t* data, size_t n);
uint64_t Crc64Scalar(uint64_t crc, const uint8_t* data, size_t n);
#if defined(DS_CRC64_COMPILED_PCLMUL)
uint64_t Crc64Pclmul(uint64_t crc, const uint8_t* data, size_t n);
#endif
#if defined(DS_CRC64_COMPILED_VPCLMUL)
uint64_t Crc64Vpclmul(uint64_t crc, const uint8_t* data, size_t n);
#endif
// The widest crc64 kernel `backend`'s table may use on this host: the
// VPCLMULQDQ fold for avx512, the PCLMULQDQ fold for avx2 (and for avx512
// without VPCLMULQDQ), else the table loop. Each fold is gated on its
// CPUID bit, not on the backend's.
Crc64Kernel Crc64KernelFor(SimdBackend backend);

#if defined(DS_SIMD_COMPILED_AVX2)
// Defined in simd_kernels_avx2.cc (compiled with -mavx2 -mfma). Only
// called after DetectCpuFeatures() confirmed the ISA.
const SimdKernelTable& Avx2KernelTable();
bool SymEigenAvx2(double* z, size_t n, double* d, double* e, double eps,
                  int max_iters);
#endif

#if defined(DS_SIMD_COMPILED_AVX512)
// Defined in simd_kernels_avx512.cc (compiled with -mavx512{f,dq,bw,vl}).
const SimdKernelTable& Avx512KernelTable();
bool SymEigenAvx512(double* z, size_t n, double* d, double* e, double eps,
                    int max_iters);
#endif

}  // namespace simd_internal
}  // namespace distsketch

#endif  // DISTSKETCH_LINALG_SIMD_KERNELS_INTERNAL_H_
