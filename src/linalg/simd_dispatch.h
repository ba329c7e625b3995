#ifndef DISTSKETCH_LINALG_SIMD_DISPATCH_H_
#define DISTSKETCH_LINALG_SIMD_DISPATCH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/cpu_features.h"

namespace distsketch {

/// Function-pointer table of the hot inner kernels, one instance per
/// SimdBackend. The scalar table is the semantic reference: its entries
/// are the exact pre-dispatch loops, so `DS_SIMD=scalar` is bit-identical
/// to the historical kernels. Vectorized tables must agree bit-for-bit
/// on the integer entries (pack/unpack) and within the reduction
/// envelope of DESIGN.md §12 on the float entries.
///
/// All pointers operate on raw row-major storage so linalg, the
/// eigensolvers, and the wire codec can share one table without layering
/// cycles.
struct SimdKernelTable {
  SimdBackend backend = SimdBackend::kScalar;

  /// C[m x n] += A[m x k] * B[k x n]. C is caller-initialised (the
  /// public Multiply zero-fills it); the kernel owns the k-blocking.
  void (*gemm_nn)(const double* a, size_t m, size_t k, const double* b,
                  size_t n, double* c);

  /// C[m x n] += A^T * B with A stored k x m row-major: the
  /// MultiplyTransposeA body. C is caller-initialised.
  void (*gemm_tn)(const double* a, size_t k, size_t m, const double* b,
                  size_t n, double* c);

  /// Accumulates sum_{r in [row_begin, row_end)} a_r a_r^T into the
  /// upper triangle of the d x d matrix g (a is ? x d row-major). The
  /// caller mirrors the lower triangle. Serving both Gram and the fixed
  /// 256-row chunks of GramParallel, so per backend the result is
  /// bit-identical at any DS_THREADS.
  void (*gram_acc)(const double* a, size_t row_begin, size_t row_end,
                   size_t d, double* g);

  /// SYRK-style row Gram: upper triangle of C[m x m] += alpha * A A^T
  /// with A m x d row-major. The caller mirrors. Backs GramUpdate /
  /// RowGram (the FD shrink kernel).
  void (*syrk_acc)(const double* a, size_t m, size_t d, double alpha,
                   double* c);

  /// Strided column dot sum_i base[i*n + p] * base[i*n + q] over m rows:
  /// the one-sided Jacobi coherence probe a_p . a_q.
  double (*col_dot)(const double* base, size_t m, size_t n, size_t p,
                    size_t q);

  /// Jacobi plane rotation of columns p and q of an m x n row-major
  /// matrix: (wp, wq) <- (c*wp - s*wq, s*wp + c*wq).
  void (*col_rotate)(double* base, size_t m, size_t n, size_t p, size_t q,
                     double c, double s);

  /// Contiguous dot product of length n (the public Dot in blas.h).
  double (*dot)(const double* x, const double* y, size_t n);

  /// Max |x_i| over n doubles, NaN ignored (0 for n = 0), and in the same
  /// pass *finite = whether every x_i is finite: the public MaxAbs in
  /// blas.h. Max is exact, so every backend returns the same bits.
  double (*max_abs)(const double* x, size_t n, bool* finite);

  /// Symmetric eigensolve of the n x n row-major z (n >= 2, exactly
  /// symmetric): Householder tridiagonalization, Q^T accumulated in
  /// place, implicit-shift QL deflating at relative tolerance eps. On
  /// return d holds the unsorted eigenvalues and row j of z the
  /// eigenvector of d[j]; e is n doubles of scratch. Returns false if an
  /// eigenvalue needs more than max_iters QL iterations. One solver body
  /// (eigen_sym_solver.h) instantiated per backend with its kernels
  /// inlined; DESIGN.md §12 fixes each backend's rounding.
  bool (*sym_eigen)(double* z, size_t n, double* d, double* e, double eps,
                    int max_iters);

  /// Dense accumulate y[j] += alpha * x[j] for j < n — the CountSketch
  /// bucket add (one +-1-scaled row) and the CSR row-times-dense-row
  /// update share this loop.
  void (*axpy)(double* y, const double* x, double alpha, size_t n);

  /// y[i] += x_i for i < n, where x_i is the i-th host-order f64 of the
  /// byte stream x, which has no alignment (the entries of a dense wire
  /// payload). No misaligned double* is ever formed: the vector tables
  /// load bytes, the scalar one memcpys each entry. One IEEE add per
  /// element, y[i] first, so every backend returns the bits of y[i] + x_i.
  void (*add_f64_bytes)(double* y, const uint8_t* x, size_t n);

  /// Sparse accumulate y[idx[t]] += alpha * vals[t] for t < nnz (a CSR
  /// row scaled into a dense accumulator). Index-gather bound, so every
  /// backend shares the scalar loop; the entry exists so call sites
  /// dispatch — and telemetry counts — uniformly with the dense kernels.
  void (*scatter_axpy)(double* y, const size_t* idx, const double* vals,
                       double alpha, size_t nnz);

  /// Accumulates the outer product vals vals^T of one sparse row into
  /// the upper triangle of the dense d x d Gram g at positions
  /// (idx[a], idx[b]); idx must be strictly increasing and the caller
  /// mirrors the lower triangle. O(nnz_row^2) against the dense
  /// gram_acc's O(d^2) per row — the sparse-Gram workhorse.
  void (*sparse_outer_acc)(const size_t* idx, const double* vals, size_t nnz,
                           size_t d, double* g);

  /// Packs DSQM quotients [i0, ...) LSB-first at bits-per-entry `bpe`
  /// into `bytes`, continuing from stream bit *bit, while the 9-byte
  /// store window of the next entry fits in payload_bytes (the caller's
  /// per-bit loop finishes the tail). Advances *bit and returns the
  /// number packed, or SIZE_MAX if a quotient magnitude exceeds bpe-1
  /// bits. Output bytes are bit-identical across backends.
  size_t (*pack_window)(const int64_t* quotients, size_t i0, size_t entries,
                        uint64_t bpe, uint8_t* bytes, size_t payload_bytes,
                        uint64_t* bit);

  /// Unpacks entries [i0, ...) from the DSQM bitstream while the 9-byte
  /// load window fits in stream_bytes, writing quotient * precision
  /// doubles to out (sign bit 0, magnitude bits 1..bpe-1). Advances *bit
  /// and returns the number unpacked. Decoded doubles are bit-identical
  /// across backends (exact u64->f64 conversion + one IEEE multiply).
  size_t (*unpack_window)(const uint8_t* stream, size_t stream_bytes,
                          size_t i0, size_t entries, uint64_t bpe,
                          double precision, double* out, uint64_t* bit);

  /// CRC-64/XZ (reflected ECMA-182 polynomial 0x42F0E1EBA9EA3693, init
  /// and xorout all-ones) of the n bytes at data, continuing from `crc`,
  /// the CRC of the bytes before them (0 for none): crc64(crc64(0, a), b)
  /// is crc64(0, a || b). Exact integer arithmetic, so every backend
  /// returns the same value: a slice-by-8 table loop on scalar, a
  /// PCLMULQDQ fold on avx2 and a VPCLMULQDQ fold on avx512, each gated
  /// on its own CPUID bit (the table loop, or the PCLMULQDQ fold, stands
  /// in on a host without it). The wire's frame checksum.
  uint64_t (*crc64)(uint64_t crc, const uint8_t* data, size_t n);
};

/// The active kernel table. Resolved once at first use: the widest
/// CPU-supported backend, overridden by DS_SIMD=scalar|avx2|avx512 (an
/// unsupported or unknown override falls back with a stderr notice).
/// After resolution this is one relaxed atomic pointer load.
const SimdKernelTable& ActiveSimd();

/// Backend of the active table.
SimdBackend ActiveSimdBackend();

/// The table for one specific backend; DS_CHECK-fails if unsupported.
/// Benches use this to time backends side by side.
const SimdKernelTable& SimdTableFor(SimdBackend backend);

/// Swaps the active table (backend must be supported) and returns the
/// previous backend. For tests and benches that compare backends inside
/// one process; not intended for concurrent use with running kernels.
SimdBackend SetSimdBackendForTesting(SimdBackend backend);

/// Records one dispatched call of `kernel` against the active backend as
/// the counter "simd.<kernel>.<backend>" in the current telemetry
/// context. Cost when telemetry is disabled: one load and one branch.
/// Call sites count once per kernel entry (per GEMM, per Jacobi solve,
/// per codec pass), never per inner-loop iteration.
void CountSimdKernelCall(std::string_view kernel);

}  // namespace distsketch

#endif  // DISTSKETCH_LINALG_SIMD_DISPATCH_H_
