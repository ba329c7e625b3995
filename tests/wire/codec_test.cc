#include "wire/codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../corruption_sweep.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/matrix.h"
#include "linalg/simd_dispatch.h"
#include "sketch/quantizer.h"
#include "wire/message.h"

namespace distsketch {
namespace wire {
namespace {

using testing::ForEachBitFlip;
using testing::ForEachTruncation;

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.NextUniform(-50.0, 50.0);
  }
  return m;
}

bool BitExactEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return a.size() == 0 ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(DenseCodecTest, RoundTripIsBitExactAcrossShapes) {
  const size_t shapes[][2] = {{0, 7}, {1, 1}, {1, 13}, {8, 1},
                              {5, 5}, {17, 3}, {64, 9}};
  uint64_t seed = 1;
  for (const auto& shape : shapes) {
    const Matrix a = RandomMatrix(shape[0], shape[1], seed++);
    const std::vector<uint8_t> payload = EncodeDensePayload(a);
    auto decoded = DecodeMatrixPayload(payload.data(), payload.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded->encoding, MatrixEncoding::kDense);
    EXPECT_EQ(decoded->quantized_bits, 0u);
    EXPECT_TRUE(BitExactEqual(a, decoded->matrix))
        << shape[0] << "x" << shape[1];
  }
}

TEST(DenseCodecTest, SpecialValuesSurviveTheWire) {
  Matrix a(2, 3);
  a(0, 0) = 0.0;
  a(0, 1) = -0.0;
  a(0, 2) = 1e-308;            // subnormal-adjacent
  a(1, 0) = -1.7976931348623157e308;  // -DBL_MAX
  a(1, 1) = 4.9e-324;          // smallest subnormal
  a(1, 2) = -3.141592653589793;
  const std::vector<uint8_t> payload = EncodeDensePayload(a);
  auto decoded = DecodeMatrixPayload(payload.data(), payload.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(BitExactEqual(a, decoded->matrix));
  // -0.0 round-trips with its sign bit (the codec is a byte copy).
  EXPECT_TRUE(std::signbit(decoded->matrix(0, 1)));
}

TEST(DenseCodecTest, RejectsMangledBodies) {
  const Matrix a = RandomMatrix(3, 4, 99);
  std::vector<uint8_t> body;
  AppendDenseBody(a, &body);

  {  // Wrong magic.
    std::vector<uint8_t> bad = body;
    bad[0] ^= 0xFF;
    auto st = DecodeDenseBody(bad.data(), bad.size());
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.status().message().find("bad magic"), std::string::npos);
  }
  {  // Shorter than the shape header.
    auto st = DecodeDenseBody(body.data(), 10);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.status().message().find("truncated header"),
              std::string::npos);
  }
  {  // Every strict prefix past the header loses payload bytes.
    auto st = DecodeDenseBody(body.data(), body.size() - 1);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.status().message().find("truncated payload"),
              std::string::npos);
  }
  {  // Trailing garbage is rejected, not ignored.
    std::vector<uint8_t> bad = body;
    bad.push_back(0);
    EXPECT_FALSE(DecodeDenseBody(bad.data(), bad.size()).ok());
  }
  {  // Implausible shape: rows field beyond the 2^32 cap.
    std::vector<uint8_t> bad = body;
    const uint64_t huge = uint64_t{1} << 40;
    std::memcpy(bad.data() + 4, &huge, sizeof(huge));
    auto st = DecodeDenseBody(bad.data(), bad.size());
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.status().message().find("implausible shape"),
              std::string::npos);
  }
}

TEST(PayloadDispatchTest, RejectsUnknownEncodingAndEmptyPayloads) {
  EXPECT_FALSE(DecodeMatrixPayload(nullptr, 0).ok());
  const uint8_t junk[] = {0x7F, 1, 2, 3};
  EXPECT_FALSE(DecodeMatrixPayload(junk, sizeof(junk)).ok());
}

TEST(QuantizedCodecTest, RoundTripMatchesQuantizerExactly) {
  uint64_t seed = 11;
  for (const size_t rows : {size_t{1}, size_t{6}, size_t{23}}) {
    const Matrix a = RandomMatrix(rows, 8, seed++);
    const double precision = 1e-4;
    auto q = QuantizeMatrix(a, precision);
    ASSERT_TRUE(q.ok());
    auto payload = EncodeQuantizedPayload(*q);
    ASSERT_TRUE(payload.ok());
    auto decoded = DecodeMatrixPayload(payload->data(), payload->size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded->encoding, MatrixEncoding::kQuantized);
    EXPECT_EQ(decoded->quantized_bits, q->total_bits);
    EXPECT_EQ(decoded->precision, precision);
    // The decoded entries reproduce the sender's rounded matrix, so the
    // end-to-end error against the original stays within precision / 2.
    ASSERT_EQ(decoded->matrix.rows(), a.rows());
    double max_err = 0.0;
    for (size_t i = 0; i < a.rows(); ++i) {
      for (size_t j = 0; j < a.cols(); ++j) {
        EXPECT_EQ(decoded->matrix(i, j), q->matrix(i, j));
        max_err = std::max(max_err, std::abs(decoded->matrix(i, j) - a(i, j)));
      }
    }
    EXPECT_LE(max_err, precision / 2 + 1e-15);
  }
}

TEST(QuantizedCodecTest, TotalBitsIsTheExactBitstreamWidth) {
  const Matrix a = RandomMatrix(9, 5, 77);
  auto q = QuantizeMatrix(a, 1e-3);
  ASSERT_TRUE(q.ok());
  auto payload = EncodeQuantizedPayload(*q);
  ASSERT_TRUE(payload.ok());
  // Payload = 1 encoding byte + 36-byte header + the packed bitstream,
  // which is exactly ceil(total_bits / 8) bytes.
  const size_t header = 1 + 4 + 8 + 8 + 8 + 8;
  EXPECT_EQ(payload->size(), header + (q->total_bits + 7) / 8);
  EXPECT_EQ(q->total_bits, q->bits_per_entry * a.size());
}

TEST(QuantizedCodecTest, ZeroRowMatrixEncodes) {
  const Matrix a(0, 6);
  auto q = QuantizeMatrix(a, 1e-3);
  ASSERT_TRUE(q.ok());
  auto payload = EncodeQuantizedPayload(*q);
  ASSERT_TRUE(payload.ok());
  auto decoded = DecodeMatrixPayload(payload->data(), payload->size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->matrix.rows(), 0u);
  EXPECT_EQ(decoded->matrix.cols(), 6u);
}

TEST(QuantizedCodecTest, RejectsMangledBodies) {
  const Matrix a = RandomMatrix(4, 4, 5);
  auto q = QuantizeMatrix(a, 1e-4);
  ASSERT_TRUE(q.ok());
  auto payload = EncodeQuantizedPayload(*q);
  ASSERT_TRUE(payload.ok());

  // Truncation anywhere fails decode.
  for (const size_t cut : {size_t{3}, size_t{20}, payload->size() - 1}) {
    EXPECT_FALSE(DecodeMatrixPayload(payload->data(), cut).ok()) << cut;
  }
  {  // Wrong body magic.
    std::vector<uint8_t> bad = *payload;
    bad[1] ^= 0xFF;
    EXPECT_FALSE(DecodeMatrixPayload(bad.data(), bad.size()).ok());
  }
  {  // Trailing garbage.
    std::vector<uint8_t> bad = *payload;
    bad.push_back(0xAA);
    EXPECT_FALSE(DecodeMatrixPayload(bad.data(), bad.size()).ok());
  }
  {  // bits_per_entry out of range.
    std::vector<uint8_t> bad = *payload;
    const uint64_t bogus = 64;
    std::memcpy(bad.data() + 1 + 4 + 16, &bogus, sizeof(bogus));
    EXPECT_FALSE(DecodeMatrixPayload(bad.data(), bad.size()).ok());
  }
}

TEST(QuantizedCodecTest, RejectsNonzeroPaddingBits) {
  // 3 entries at some odd bits_per_entry leaves padding bits in the last
  // byte; a flipped padding bit must not decode as a clean payload.
  const Matrix a = RandomMatrix(1, 3, 8);
  auto q = QuantizeMatrix(a, 1e-4);
  ASSERT_TRUE(q.ok());
  auto payload = EncodeQuantizedPayload(*q);
  ASSERT_TRUE(payload.ok());
  const uint64_t pad_bits = 8 * ((q->total_bits + 7) / 8) - q->total_bits;
  if (pad_bits == 0) GTEST_SKIP() << "shape leaves no padding";
  std::vector<uint8_t> bad = *payload;
  bad.back() ^= 0x80;  // highest bit of the final byte is padding
  EXPECT_FALSE(DecodeMatrixPayload(bad.data(), bad.size()).ok());
}

// The in-place add must match decode-then-Add bit for bit, and on any
// rejection leave the destination untouched.
std::vector<std::vector<uint8_t>> AddTestPayloads() {
  std::vector<std::vector<uint8_t>> payloads;
  payloads.push_back(EncodeDensePayload(RandomMatrix(6, 5, 201)));
  auto q = QuantizeMatrix(RandomMatrix(6, 5, 202), 1e-3);
  DS_CHECK(q.ok());
  auto quantized = EncodeQuantizedPayload(*q);
  DS_CHECK(quantized.ok());
  payloads.push_back(std::move(*quantized));
  return payloads;
}

TEST(AddMatrixPayloadTest, BitwiseEqualToDecodeThenAdd) {
  for (const auto& payload : AddTestPayloads()) {
    const Matrix base = RandomMatrix(6, 5, 203);
    auto decoded = DecodeMatrixPayload(payload.data(), payload.size());
    ASSERT_TRUE(decoded.ok());
    const Matrix want = Add(base, decoded->matrix);
    Matrix dst = base;
    ASSERT_TRUE(AddMatrixPayloadInto(payload.data(), payload.size(), &dst)
                    .ok());
    EXPECT_TRUE(BitExactEqual(dst, want));
  }
}

TEST(AddMatrixPayloadTest, RejectsEveryTruncationAndLeavesDstUntouched) {
  for (const auto& payload : AddTestPayloads()) {
    const Matrix base = RandomMatrix(6, 5, 204);
    ForEachTruncation(payload, [&](const std::vector<uint8_t>& prefix,
                                   const std::string& what) {
      Matrix dst = base;
      EXPECT_FALSE(
          AddMatrixPayloadInto(prefix.data(), prefix.size(), &dst).ok())
          << what;
      EXPECT_TRUE(BitExactEqual(dst, base)) << what;
    });
  }
}

TEST(AddMatrixPayloadTest, RejectsShapeMismatchAndTrailingBytes) {
  for (const auto& payload : AddTestPayloads()) {
    for (const auto& shape : {std::pair<size_t, size_t>{5, 6},
                              std::pair<size_t, size_t>{6, 4},
                              std::pair<size_t, size_t>{0, 0}}) {
      Matrix dst(shape.first, shape.second);
      auto st = AddMatrixPayloadInto(payload.data(), payload.size(), &dst);
      ASSERT_FALSE(st.ok());
      EXPECT_NE(st.message().find("does not match destination"),
                std::string::npos)
          << st.message();
    }
    std::vector<uint8_t> trailing = payload;
    trailing.push_back(0);
    const Matrix base = RandomMatrix(6, 5, 205);
    Matrix dst = base;
    auto st = AddMatrixPayloadInto(trailing.data(), trailing.size(), &dst);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("trailing bytes"), std::string::npos)
        << st.message();
    EXPECT_TRUE(BitExactEqual(dst, base));
  }
  const uint8_t junk[] = {0x7F, 1, 2, 3};
  Matrix dst(1, 1);
  EXPECT_FALSE(AddMatrixPayloadInto(junk, sizeof(junk), &dst).ok());
}

// The dense add runs through the dispatched add_f64_bytes kernel; every
// backend must give the bits of decode-then-Add, whatever the length
// (vector tails), the payload's byte alignment and the special values.
std::vector<SimdBackend> CompiledBackends() {
  std::vector<SimdBackend> out = {SimdBackend::kScalar};
  for (const SimdBackend b : {SimdBackend::kAvx2, SimdBackend::kAvx512}) {
    if (SimdBackendSupported(b)) out.push_back(b);
  }
  return out;
}

class BackendGuard {
 public:
  BackendGuard() : prev_(ActiveSimdBackend()) {}
  ~BackendGuard() { SetSimdBackendForTesting(prev_); }

 private:
  SimdBackend prev_;
};

// +-0, subnormals, +-inf (inf + -inf included), extremes and ordinary
// values, cycled with different strides through dst and payload.
Matrix SpecialValues(size_t rows, size_t cols, size_t stride) {
  using L = std::numeric_limits<double>;
  const double palette[] = {0.0,          -0.0,        L::denorm_min(),
                            -L::denorm_min(), 2.5e-310, -1e-320,
                            L::infinity(), -L::infinity(), L::max(),
                            -L::max(),    1.0,         -3.75,
                            L::min(),     0.1};
  constexpr size_t kPalette = sizeof(palette) / sizeof(palette[0]);
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = palette[(i * stride + stride / 2) % kPalette];
  }
  return m;
}

TEST(AddMatrixPayloadTest, DenseAddBitwiseEqualOnEveryBackendAndAlignment) {
  BackendGuard guard;
  const size_t shapes[][2] = {{1, 0},  {1, 1},  {1, 3},  {1, 7}, {1, 8},
                              {1, 9},  {1, 15}, {1, 17}, {2, 31}, {5, 13},
                              {3, 64}, {1, 65}};
  for (const SimdBackend backend : CompiledBackends()) {
    SetSimdBackendForTesting(backend);
    for (const auto& shape : shapes) {
      const Matrix base = SpecialValues(shape[0], shape[1], 3);
      const std::vector<uint8_t> payload =
          EncodeDensePayload(SpecialValues(shape[0], shape[1], 5));
      auto decoded = DecodeMatrixPayload(payload.data(), payload.size());
      ASSERT_TRUE(decoded.ok());
      const Matrix want = Add(base, decoded->matrix);
      for (size_t offset = 0; offset < 8; ++offset) {
        std::vector<uint8_t> buf(offset + payload.size());
        std::memcpy(buf.data() + offset, payload.data(), payload.size());
        Matrix dst = base;
        ASSERT_TRUE(
            AddMatrixPayloadInto(buf.data() + offset, payload.size(), &dst)
                .ok());
        EXPECT_TRUE(BitExactEqual(dst, want))
            << SimdBackendName(backend) << " " << shape[0] << "x" << shape[1]
            << " offset " << offset;
      }
    }
  }
}

// On every backend: a payload with any single bit flipped or any tail
// cut off either adds exactly what it decodes to, or is rejected with dst
// untouched.
TEST(AddMatrixPayloadTest, EveryBitFlipAndTruncationOnEveryBackend) {
  BackendGuard guard;
  for (const SimdBackend backend : CompiledBackends()) {
    SetSimdBackendForTesting(backend);
    for (const auto& payload : AddTestPayloads()) {
      const Matrix base = RandomMatrix(6, 5, 206);
      auto check = [&](const std::vector<uint8_t>& bytes,
                       const std::string& what) {
        Matrix dst = base;
        const Status st = AddMatrixPayloadInto(bytes.data(), bytes.size(),
                                               &dst);
        auto decoded = DecodeMatrixPayload(bytes.data(), bytes.size());
        const bool addable = decoded.ok() && decoded->matrix.rows() == 6 &&
                             decoded->matrix.cols() == 5;
        EXPECT_EQ(st.ok(), addable) << SimdBackendName(backend) << " " << what;
        EXPECT_TRUE(BitExactEqual(
            dst, addable ? Add(base, decoded->matrix) : base))
            << SimdBackendName(backend) << " " << what;
      };
      ForEachBitFlip(payload, check);
      ForEachTruncation(payload, check);
    }
  }
}

// The exact-gram merge adds a packed upper triangle into a d x d Gram in
// place: bitwise equal to unpack-then-Add, dst untouched on any error.
TEST(AddSymmetricPayloadTest, BitwiseEqualToUnpackThenAdd) {
  const size_t d = 6;
  Matrix g = RandomMatrix(d, d, 207);
  g = Add(g, Transpose(g));
  const Matrix base = SpecialValues(d, d, 7);
  const Matrix packed = PackUpperTriangle(g);
  auto q = QuantizeMatrix(packed, 1e-3);
  ASSERT_TRUE(q.ok());
  auto quantized = EncodeQuantizedPayload(*q);
  ASSERT_TRUE(quantized.ok());
  for (const auto& payload : {EncodeDensePayload(packed), *quantized}) {
    auto decoded = DecodeMatrixPayload(payload.data(), payload.size());
    ASSERT_TRUE(decoded.ok());
    auto full = UnpackUpperTriangle(decoded->matrix, d);
    ASSERT_TRUE(full.ok());
    Matrix dst = base;
    ASSERT_TRUE(
        AddSymmetricPayloadInto(payload.data(), payload.size(), d, &dst).ok());
    EXPECT_TRUE(BitExactEqual(dst, Add(base, *full)));

    ForEachTruncation(payload, [&](const std::vector<uint8_t>& prefix,
                                   const std::string& what) {
      Matrix untouched = base;
      EXPECT_FALSE(AddSymmetricPayloadInto(prefix.data(), prefix.size(), d,
                                           &untouched)
                       .ok())
          << what;
      EXPECT_TRUE(BitExactEqual(untouched, base)) << what;
    });
    Matrix wrong_d = SpecialValues(d + 1, d + 1, 7);
    const Matrix wrong_d_before = wrong_d;
    auto st =
        AddSymmetricPayloadInto(payload.data(), payload.size(), d + 1, &wrong_d);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("expected"), std::string::npos);
    EXPECT_TRUE(BitExactEqual(wrong_d, wrong_d_before));
    Matrix wrong_shape(d, d + 1);
    EXPECT_FALSE(AddSymmetricPayloadInto(payload.data(), payload.size(), d,
                                         &wrong_shape)
                     .ok());
  }
}

TEST(UpperTriangleTest, PackUnpackRoundTrip) {
  const size_t d = 7;
  Matrix g(d, d);
  Rng rng(3);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i; j < d; ++j) {
      g(i, j) = rng.NextGaussian();
      g(j, i) = g(i, j);
    }
  }
  const Matrix packed = PackUpperTriangle(g);
  EXPECT_EQ(packed.rows(), 1u);
  EXPECT_EQ(packed.size(), d * (d + 1) / 2);
  auto back = UnpackUpperTriangle(packed, d);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(BitExactEqual(g, *back));
  // Size mismatch is rejected.
  EXPECT_FALSE(UnpackUpperTriangle(packed, d + 1).ok());
}

// The exact-gram uplink is written straight from the Gram: the same bytes
// as the dense payload of the packed row, appended after what `out`
// already holds, and SymmetricMessage encodes into the caller's buffer.
TEST(UpperTriangleTest, SymmetricPayloadIsTheDensePayloadOfThePackedRow) {
  for (const size_t d : {size_t{1}, size_t{2}, size_t{7}}) {
    Matrix g = RandomMatrix(d, d, 300 + d);
    g = Add(g, Transpose(g));
    const std::vector<uint8_t> want = EncodeDensePayload(PackUpperTriangle(g));
    std::vector<uint8_t> out = {0xAB};
    AppendSymmetricPayload(g, &out);
    ASSERT_EQ(out.size(), 1 + want.size()) << "d " << d;
    EXPECT_EQ(out[0], 0xAB);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), out.begin() + 1))
        << "d " << d;

    std::vector<uint8_t> buffer = {1, 2, 3};
    buffer.reserve(DensePayloadBytes(1, d * (d + 1) / 2));
    const uint8_t* storage = buffer.data();
    const Message msg = SymmetricMessage("gram", g, std::move(buffer));
    EXPECT_EQ(msg.payload, want) << "d " << d;
    EXPECT_EQ(msg.payload.data(), storage) << "d " << d;
    EXPECT_EQ(msg.words, d * (d + 1) / 2);
  }
}

}  // namespace
}  // namespace wire
}  // namespace distsketch
