#include "wire/codec.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "common/logging.h"
#include "linalg/simd_dispatch.h"

namespace distsketch {
namespace wire {
namespace {

constexpr char kDenseMagic[4] = {'D', 'S', 'M', 'T'};
constexpr char kQuantMagic[4] = {'D', 'S', 'Q', 'M'};
constexpr size_t kShapeHeaderBytes = 4 + 8 + 8;
// Shape sanity limits shared with the dsmat file loader: a header whose
// dimensions exceed these is corrupt, not merely large.
constexpr uint64_t kMaxRows = 1ULL << 32;
constexpr uint64_t kMaxCols = 1ULL << 24;

template <typename T>
void AppendPod(T v, std::vector<uint8_t>* out) {
  const auto* bytes = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), bytes, bytes + sizeof(T));
}

template <typename T>
T ReadPod(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

Status ShapeCheck(uint64_t rows, uint64_t cols) {
  if (rows > kMaxRows || cols > kMaxCols) {
    return Status::InvalidArgument("matrix codec: implausible shape " +
                                   std::to_string(rows) + "x" +
                                   std::to_string(cols));
  }
  return Status::OK();
}

void AppendDenseHeader(uint64_t rows, uint64_t cols,
                       std::vector<uint8_t>* out) {
  out->insert(out->end(), kDenseMagic, kDenseMagic + sizeof(kDenseMagic));
  AppendPod<uint64_t>(rows, out);
  AppendPod<uint64_t>(cols, out);
}

}  // namespace

void AppendDenseBody(const Matrix& a, std::vector<uint8_t>* out) {
  out->reserve(out->size() + kShapeHeaderBytes + a.size() * sizeof(double));
  AppendDenseHeader(a.rows(), a.cols(), out);
  // A range insert writes each entry byte once (a resize would zero-fill
  // the body first).
  const auto* entries = reinterpret_cast<const uint8_t*>(a.data());
  out->insert(out->end(), entries, entries + a.size() * sizeof(double));
}

size_t DensePayloadBytes(size_t rows, size_t cols) {
  return 1 + kShapeHeaderBytes + rows * cols * sizeof(double);
}

void AppendDensePayload(const Matrix& a, std::vector<uint8_t>* out) {
  out->reserve(out->size() + DensePayloadBytes(a.rows(), a.cols()));
  out->push_back(static_cast<uint8_t>(MatrixEncoding::kDense));
  AppendDenseBody(a, out);
}

namespace {

// Every check DecodeDenseBody makes, without materialising the matrix:
// on success *rows x *cols f64 entries follow at data + kShapeHeaderBytes.
Status CheckDenseBody(const uint8_t* data, size_t size, uint64_t* rows,
                      uint64_t* cols) {
  if (size < sizeof(kDenseMagic) ||
      std::memcmp(data, kDenseMagic, sizeof(kDenseMagic)) != 0) {
    return Status::InvalidArgument("dense codec: bad magic");
  }
  if (size < kShapeHeaderBytes) {
    return Status::InvalidArgument("dense codec: truncated header");
  }
  *rows = ReadPod<uint64_t>(data + 4);
  *cols = ReadPod<uint64_t>(data + 12);
  DS_RETURN_IF_ERROR(ShapeCheck(*rows, *cols));
  const size_t want = kShapeHeaderBytes + *rows * *cols * sizeof(double);
  if (size < want) {
    return Status::InvalidArgument("dense codec: truncated payload");
  }
  if (size > want) {
    return Status::InvalidArgument("dense codec: trailing bytes after payload");
  }
  return Status::OK();
}

}  // namespace

StatusOr<Matrix> DecodeDenseBody(const uint8_t* data, size_t size) {
  uint64_t rows = 0;
  uint64_t cols = 0;
  DS_RETURN_IF_ERROR(CheckDenseBody(data, size, &rows, &cols));
  Matrix out(rows, cols);
  if (out.size() > 0) {
    std::memcpy(out.data(), data + kShapeHeaderBytes,
                out.size() * sizeof(double));
  }
  return out;
}

Status AppendQuantizedBody(const QuantizeResult& q, std::vector<uint8_t>* out) {
  const uint64_t rows = q.matrix.rows();
  const uint64_t cols = q.matrix.cols();
  const uint64_t entries = rows * cols;
  const uint64_t bpe = q.bits_per_entry;
  if (bpe < 1 || bpe > 63 || q.quotients.size() != entries ||
      q.total_bits != bpe * entries) {
    return Status::Internal("quantized codec: malformed QuantizeResult");
  }
  out->insert(out->end(), kQuantMagic, kQuantMagic + sizeof(kQuantMagic));
  AppendPod<uint64_t>(rows, out);
  AppendPod<uint64_t>(cols, out);
  AppendPod<uint64_t>(bpe, out);
  AppendPod<double>(q.precision, out);
  const size_t base = out->size();
  const size_t payload_bytes = (q.total_bits + 7) / 8;
  out->resize(base + payload_bytes, 0);
  uint8_t* bytes = out->data() + base;
  // Per entry: bit 0 is the sign (1 = negative), bits 1..bpe-1 the
  // magnitude LSB-first; entries are packed back to back LSB-first into
  // the byte stream (entry i occupies stream bits [i*bpe, (i+1)*bpe)),
  // padding bits zero.
  auto entry_word = [&](uint64_t idx, uint64_t* word) {
    const int64_t qv = q.quotients[idx];
    const uint64_t mag = qv < 0 ? 0 - static_cast<uint64_t>(qv)
                                : static_cast<uint64_t>(qv);
    if ((mag >> (bpe - 1)) != 0) return false;
    *word = (qv < 0 ? 1u : 0u) | (mag << 1);
    return true;
  };
  uint64_t bit = 0;
  uint64_t i = 0;
  // Batched packing through the dispatched kernel: one unaligned 64-bit
  // load/OR/store per entry (plus a spill byte when shift + bpe > 64)
  // replaces bpe single-bit RMWs, vectorized further by the AVX backends.
  // Output bytes are bit-identical across backends (integer path). Runs
  // while the 9-byte window stays inside the payload; the per-bit loop
  // below finishes the tail (and the whole stream on a big-endian host,
  // where every backend packs zero entries).
  CountSimdKernelCall("pack");
  const size_t packed = ActiveSimd().pack_window(
      q.quotients.data(), 0, entries, bpe, bytes, payload_bytes, &bit);
  if (packed == SIZE_MAX) {
    return Status::Internal(
        "quantized codec: quotient magnitude exceeds bits_per_entry");
  }
  i = packed;
  // Per-bit path for the stream tail.
  for (; i < entries; ++i) {
    uint64_t word;
    if (!entry_word(i, &word)) {
      return Status::Internal(
          "quantized codec: quotient magnitude exceeds bits_per_entry");
    }
    for (uint64_t b = 0; b < bpe; ++b, ++bit) {
      if ((word >> b) & 1) {
        bytes[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
      }
    }
  }
  return Status::OK();
}

namespace {

constexpr size_t kQuantHeaderBytes = 4 + 8 + 8 + 8 + 8;

StatusOr<DecodedMatrix> DecodeQuantizedBody(const uint8_t* data, size_t size) {
  if (size < sizeof(kQuantMagic) ||
      std::memcmp(data, kQuantMagic, sizeof(kQuantMagic)) != 0) {
    return Status::InvalidArgument("quantized codec: bad magic");
  }
  if (size < kQuantHeaderBytes) {
    return Status::InvalidArgument("quantized codec: truncated header");
  }
  const uint64_t rows = ReadPod<uint64_t>(data + 4);
  const uint64_t cols = ReadPod<uint64_t>(data + 12);
  const uint64_t bpe = ReadPod<uint64_t>(data + 20);
  const double precision = ReadPod<double>(data + 28);
  DS_RETURN_IF_ERROR(ShapeCheck(rows, cols));
  if (bpe < 1 || bpe > 63) {
    return Status::InvalidArgument("quantized codec: bad bits_per_entry " +
                                   std::to_string(bpe));
  }
  if (!(precision > 0.0) || !std::isfinite(precision)) {
    return Status::InvalidArgument("quantized codec: bad precision");
  }
  const uint64_t entries = rows * cols;
  const uint64_t total_bits = entries * bpe;
  const size_t want = kQuantHeaderBytes + (total_bits + 7) / 8;
  if (size < want) {
    return Status::InvalidArgument("quantized codec: truncated payload");
  }
  if (size > want) {
    return Status::InvalidArgument(
        "quantized codec: trailing bytes after payload");
  }
  const uint8_t* stream = data + kQuantHeaderBytes;
  DecodedMatrix out;
  out.encoding = MatrixEncoding::kQuantized;
  out.quantized_bits = total_bits;
  out.precision = precision;
  out.matrix = Matrix(rows, cols);
  const size_t stream_bytes = want - kQuantHeaderBytes;
  uint64_t bit = 0;
  uint64_t i = 0;
  // Batched unpacking through the dispatched kernel, mirror of the
  // batched encoder: one unaligned 64-bit load (plus the spill byte when
  // shift + bpe > 64) extracts a whole entry instead of bpe single-bit
  // probes. Decoded doubles are bit-identical across backends (exact
  // u64->f64 conversion + one IEEE multiply).
  CountSimdKernelCall("unpack");
  i = ActiveSimd().unpack_window(stream, stream_bytes, 0, entries, bpe,
                                 precision, out.matrix.data(), &bit);
  // Per-bit path: the stream tail, and big-endian hosts.
  for (; i < entries; ++i) {
    uint64_t word = 0;
    for (uint64_t b = 0; b < bpe; ++b, ++bit) {
      if ((stream[bit / 8] >> (bit % 8)) & 1) word |= 1ULL << b;
    }
    const bool neg = (word & 1) != 0;
    const uint64_t mag = word >> 1;
    double v = static_cast<double>(mag) * precision;
    out.matrix.data()[i] = neg ? -v : v;
  }
  // Any set padding bit means the stream was mangled after the last entry.
  for (uint64_t pad = total_bits; pad < 8 * (want - kQuantHeaderBytes);
       ++pad) {
    if ((stream[pad / 8] >> (pad % 8)) & 1) {
      return Status::InvalidArgument(
          "quantized codec: nonzero padding bits");
    }
  }
  return out;
}

}  // namespace

std::vector<uint8_t> EncodeDensePayload(const Matrix& a) {
  std::vector<uint8_t> out;
  AppendDensePayload(a, &out);
  return out;
}

StatusOr<std::vector<uint8_t>> EncodeQuantizedPayload(const QuantizeResult& q) {
  std::vector<uint8_t> out;
  out.push_back(static_cast<uint8_t>(MatrixEncoding::kQuantized));
  DS_RETURN_IF_ERROR(AppendQuantizedBody(q, &out));
  return out;
}

StatusOr<DecodedMatrix> DecodeMatrixPayload(const uint8_t* data, size_t size) {
  if (size < 1) {
    return Status::InvalidArgument("matrix payload: empty");
  }
  switch (data[0]) {
    case static_cast<uint8_t>(MatrixEncoding::kDense): {
      DS_ASSIGN_OR_RETURN(Matrix m, DecodeDenseBody(data + 1, size - 1));
      DecodedMatrix out;
      out.matrix = std::move(m);
      out.encoding = MatrixEncoding::kDense;
      return out;
    }
    case static_cast<uint8_t>(MatrixEncoding::kQuantized):
      return DecodeQuantizedBody(data + 1, size - 1);
    default:
      return Status::InvalidArgument(
          "matrix payload: unknown encoding byte " +
          std::to_string(static_cast<int>(data[0])));
  }
}

namespace {

Status CheckAddShape(uint64_t rows, uint64_t cols, const Matrix& dst) {
  if (rows != dst.rows() || cols != dst.cols()) {
    return Status::InvalidArgument(
        "matrix payload: shape " + std::to_string(rows) + "x" +
        std::to_string(cols) + " does not match destination " +
        std::to_string(dst.rows()) + "x" + std::to_string(dst.cols()));
  }
  return Status::OK();
}

}  // namespace

Status AddMatrixPayloadInto(const uint8_t* data, size_t size, Matrix* dst) {
  if (size >= 1 &&
      data[0] == static_cast<uint8_t>(MatrixEncoding::kDense)) {
    uint64_t rows = 0;
    uint64_t cols = 0;
    DS_RETURN_IF_ERROR(CheckDenseBody(data + 1, size - 1, &rows, &cols));
    DS_RETURN_IF_ERROR(CheckAddShape(rows, cols, *dst));
    // Entries sit unaligned in the byte stream; the kernel reads them as
    // bytes, and dst + x rounds exactly like Add(dst, x) on every backend.
    CountSimdKernelCall("add_f64_bytes");
    ActiveSimd().add_f64_bytes(dst->data(), data + 1 + kShapeHeaderBytes,
                               dst->size());
    return Status::OK();
  }
  // Quantized entries are only known after the whole stream (padding
  // included) has been checked, so they are decoded first and dst is
  // left untouched on any error. Not a hot path: quantized payloads are
  // a fraction of a dense one's size.
  DS_ASSIGN_OR_RETURN(DecodedMatrix dec, DecodeMatrixPayload(data, size));
  DS_RETURN_IF_ERROR(CheckAddShape(dec.matrix.rows(), dec.matrix.cols(), *dst));
  double* out = dst->data();
  for (size_t i = 0; i < dst->size(); ++i) out[i] += dec.matrix.data()[i];
  return Status::OK();
}

Status AddSymmetricPayloadInto(const uint8_t* data, size_t size, size_t d,
                               Matrix* dst) {
  // Dense entries are read straight from the byte stream; quantized ones
  // are decoded first (see AddMatrixPayloadInto). Either way every check
  // runs before *dst is touched.
  const uint8_t* dense = nullptr;
  DecodedMatrix dec;
  uint64_t entries = 0;
  if (size >= 1 &&
      data[0] == static_cast<uint8_t>(MatrixEncoding::kDense)) {
    uint64_t rows = 0;
    uint64_t cols = 0;
    DS_RETURN_IF_ERROR(CheckDenseBody(data + 1, size - 1, &rows, &cols));
    dense = data + 1 + kShapeHeaderBytes;
    entries = rows * cols;
  } else {
    DS_ASSIGN_OR_RETURN(dec, DecodeMatrixPayload(data, size));
    entries = dec.matrix.size();
  }
  if (entries != d * (d + 1) / 2) {
    return Status::InvalidArgument(
        "symmetric payload: expected " + std::to_string(d * (d + 1) / 2) +
        " entries, got " + std::to_string(entries));
  }
  DS_RETURN_IF_ERROR(CheckAddShape(d, d, *dst));
  size_t k = 0;
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i; j < d; ++j, ++k) {
      const double v = dense != nullptr
                           ? ReadPod<double>(dense + k * sizeof(double))
                           : dec.matrix.data()[k];
      (*dst)(i, j) += v;
      if (j != i) (*dst)(j, i) += v;
    }
  }
  return Status::OK();
}

Matrix PackUpperTriangle(const Matrix& g) {
  DS_CHECK(g.rows() == g.cols());
  const size_t d = g.rows();
  Matrix packed(1, d * (d + 1) / 2);
  size_t k = 0;
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i; j < d; ++j) {
      packed.data()[k++] = g(i, j);
    }
  }
  return packed;
}

void AppendSymmetricPayload(const Matrix& g, std::vector<uint8_t>* out) {
  DS_CHECK(g.rows() == g.cols());
  const size_t d = g.rows();
  const size_t packed = d * (d + 1) / 2;
  out->reserve(out->size() + DensePayloadBytes(1, packed));
  out->push_back(static_cast<uint8_t>(MatrixEncoding::kDense));
  AppendDenseHeader(1, packed, out);
  // Row i's upper part g(i, i..d) is contiguous in row-major storage.
  for (size_t i = 0; i < d; ++i) {
    const auto* entries =
        reinterpret_cast<const uint8_t*>(g.Row(i).data() + i);
    out->insert(out->end(), entries, entries + (d - i) * sizeof(double));
  }
}

StatusOr<Matrix> UnpackUpperTriangle(const Matrix& packed, size_t d) {
  if (packed.size() != d * (d + 1) / 2) {
    return Status::InvalidArgument(
        "UnpackUpperTriangle: expected " +
        std::to_string(d * (d + 1) / 2) + " entries, got " +
        std::to_string(packed.size()));
  }
  Matrix g(d, d);
  size_t k = 0;
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i; j < d; ++j) {
      g(i, j) = packed.data()[k];
      g(j, i) = packed.data()[k];
      ++k;
    }
  }
  return g;
}

}  // namespace wire
}  // namespace distsketch
