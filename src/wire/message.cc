#include "wire/message.h"

#include <cstring>
#include <utility>

namespace distsketch {
namespace wire {

Message DenseMessage(std::string tag, const Matrix& m,
                     std::vector<uint8_t> buffer) {
  Message msg;
  msg.tag = std::move(tag);
  msg.payload = std::move(buffer);
  msg.payload.clear();
  AppendDensePayload(m, &msg.payload);
  msg.words = m.size();
  return msg;
}

StatusOr<Message> QuantizedMessage(std::string tag, const QuantizeResult& q,
                                   uint64_t bits_per_word) {
  Message msg;
  msg.tag = std::move(tag);
  DS_ASSIGN_OR_RETURN(msg.payload, EncodeQuantizedPayload(q));
  msg.words = (q.total_bits + bits_per_word - 1) / bits_per_word;
  msg.bits = q.total_bits;
  return msg;
}

Message ScalarMessage(std::string tag, double value) {
  Matrix m(1, 1);
  m.data()[0] = value;
  return DenseMessage(std::move(tag), m);
}

Message ScalarsMessage(std::string tag, const std::vector<double>& values) {
  Matrix m(1, values.size());
  if (!values.empty()) {
    std::memcpy(m.data(), values.data(), values.size() * sizeof(double));
  }
  return DenseMessage(std::move(tag), m);
}

Message SymmetricMessage(std::string tag, const Matrix& gram,
                         std::vector<uint8_t> buffer) {
  Message msg;
  msg.tag = std::move(tag);
  msg.payload = std::move(buffer);
  msg.payload.clear();
  AppendSymmetricPayload(gram, &msg.payload);
  msg.words = gram.rows() * (gram.rows() + 1) / 2;
  return msg;
}

Message SeedMessage(std::string tag, uint64_t seed) {
  double as_double;
  static_assert(sizeof(as_double) == sizeof(seed));
  std::memcpy(&as_double, &seed, sizeof(seed));
  return ScalarMessage(std::move(tag), as_double);
}

StatusOr<double> DecodeScalarPayload(std::span<const uint8_t> payload) {
  DS_ASSIGN_OR_RETURN(DecodedMatrix dec,
                      DecodeMatrixPayload(payload.data(), payload.size()));
  if (dec.matrix.size() != 1) {
    return Status::InvalidArgument("scalar payload: expected 1 entry, got " +
                                   std::to_string(dec.matrix.size()));
  }
  return dec.matrix.data()[0];
}

StatusOr<uint64_t> DecodeSeedPayload(std::span<const uint8_t> payload) {
  DS_ASSIGN_OR_RETURN(double as_double, DecodeScalarPayload(payload));
  uint64_t seed;
  std::memcpy(&seed, &as_double, sizeof(seed));
  return seed;
}

StatusOr<DecodedMatrix> DecodeMessagePayload(
    std::span<const uint8_t> payload) {
  return DecodeMatrixPayload(payload.data(), payload.size());
}

}  // namespace wire
}  // namespace distsketch
