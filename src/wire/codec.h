#ifndef DISTSKETCH_WIRE_CODEC_H_
#define DISTSKETCH_WIRE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"
#include "sketch/quantizer.h"

namespace distsketch {
namespace wire {

/// How a matrix payload is laid out on the wire.
enum class MatrixEncoding : uint8_t {
  /// "DSMT" | u64 rows | u64 cols | rows*cols little-endian f64. This is
  /// byte-identical to the dsmat file format (io/matrix_io), so one
  /// encoder serves both the disk and the wire.
  kDense = 1,
  /// "DSQM" | u64 rows | u64 cols | u64 bits_per_entry | f64 precision |
  /// packed bitstream of sign+magnitude fixed-point quotients (§3.3).
  /// The bitstream is exactly ceil(entries * bits_per_entry / 8) bytes
  /// with zero padding bits, so QuantizeResult::total_bits is the true
  /// encoded width.
  kQuantized = 2,
};

/// A matrix recovered from a payload, with enough metadata to meter the
/// transfer in the paper's cost model.
struct DecodedMatrix {
  Matrix matrix;
  MatrixEncoding encoding = MatrixEncoding::kDense;
  /// For kQuantized: bits_per_entry * entries, the exact bitstream width.
  /// Zero for kDense (dense entries are metered as one word each).
  uint64_t quantized_bits = 0;
  /// For kQuantized: the precision the sender rounded at.
  double precision = 0.0;
};

/// Appends the dense body (dsmat blob) of `a` to `out`.
void AppendDenseBody(const Matrix& a, std::vector<uint8_t>* out);

/// Decodes a dense body. Error messages contain the stable substrings
/// "bad magic", "truncated header", "implausible shape", and
/// "truncated payload" that io tests and wire NAK paths key off.
/// Rejects trailing garbage (`size` must be exactly consumed).
StatusOr<Matrix> DecodeDenseBody(const uint8_t* data, size_t size);

/// Appends the quantized body of `q` to `out`. The caller obtained `q`
/// from QuantizeMatrix, so `q.quotients` is populated and every quotient
/// fits in bits_per_entry - 1 magnitude bits.
Status AppendQuantizedBody(const QuantizeResult& q, std::vector<uint8_t>* out);

/// Encoded size of a dense rows x cols payload (encoding byte included).
size_t DensePayloadBytes(size_t rows, size_t cols);

/// Appends the dense payload of `a` (encoding byte, then the body) to
/// `out`, writing each byte once.
void AppendDensePayload(const Matrix& a, std::vector<uint8_t>* out);

/// Self-describing payload: one MatrixEncoding byte, then the body.
std::vector<uint8_t> EncodeDensePayload(const Matrix& a);
StatusOr<std::vector<uint8_t>> EncodeQuantizedPayload(const QuantizeResult& q);

/// Decodes either payload kind, dispatching on the leading encoding
/// byte. For kQuantized the matrix entries are quotient * precision,
/// reproducing the sender's rounded entries exactly (a negative-zero
/// entry decodes as +0.0, which compares equal).
StatusOr<DecodedMatrix> DecodeMatrixPayload(const uint8_t* data, size_t size);

/// *dst += the matrix a payload carries, in place: the receiver-side merge
/// of a linear sketch without materialising the decoded matrix. Runs every
/// check DecodeMatrixPayload runs (magic, shape limits, exact size, for
/// quantized payloads also bits/precision/padding), and rejects a payload
/// whose shape differs from *dst. Bitwise equal to
/// Add(*dst, DecodeMatrixPayload(data, size)->matrix); *dst is unchanged
/// on error.
Status AddMatrixPayloadInto(const uint8_t* data, size_t size, Matrix* dst);

/// Packs the upper triangle (including diagonal) of the d x d symmetric
/// matrix `g` into a 1 x d(d+1)/2 row vector, the wire form used by the
/// exact-gram protocol so its measured words equal the analytic
/// d(d+1)/2 count.
Matrix PackUpperTriangle(const Matrix& g);

/// Appends the dense payload of PackUpperTriangle(g) to `out`, writing the
/// upper triangle straight from `g` (no packed row is materialised).
void AppendSymmetricPayload(const Matrix& g, std::vector<uint8_t>* out);

/// *dst += the symmetric d x d matrix whose packed upper triangle (see
/// PackUpperTriangle) a matrix payload carries, in place: the exact-gram
/// merge without materialising the received Gram. Runs every check
/// DecodeMatrixPayload runs, requires exactly d(d+1)/2 entries and a
/// d x d *dst, and leaves *dst unchanged on error. Bitwise equal to
/// Add(*dst, UnpackUpperTriangle(decoded, d)).
Status AddSymmetricPayloadInto(const uint8_t* data, size_t size, size_t d,
                               Matrix* dst);

/// Inverse of PackUpperTriangle: rebuilds the full symmetric d x d
/// matrix. Fails if packed.size() != d(d+1)/2.
StatusOr<Matrix> UnpackUpperTriangle(const Matrix& packed, size_t d);

}  // namespace wire
}  // namespace distsketch

#endif  // DISTSKETCH_WIRE_CODEC_H_
