#ifndef DISTSKETCH_WIRE_MESSAGE_H_
#define DISTSKETCH_WIRE_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"
#include "sketch/quantizer.h"
#include "wire/codec.h"

namespace distsketch {
namespace wire {

/// A frame encoded ahead of send time (see Message::cached_frame). The
/// endpoints are part of the frame header, so the cache records which
/// (from, to) pair it was encoded for; a mismatched send ignores it.
struct PreEncodedFrame {
  int from = 0;
  int to = 0;
  std::vector<uint8_t> bytes;
};

/// One logical transfer: a tag, the encoded payload bytes that actually
/// cross the (simulated) wire, and the word/bit counts the cost model
/// meters for it. The counts are *derived from the encoding* by the
/// builders below — one word per encoded dense entry, BitsToWords of the
/// exact bitstream for quantized payloads — so metered cost is a
/// property of the bytes, not a caller-supplied fiction.
struct Message {
  std::string tag;
  /// Self-describing matrix payload (see codec.h).
  std::vector<uint8_t> payload;
  /// Metered machine words.
  uint64_t words = 0;
  /// Metered bits; 0 means the CommLog default of words * bits_per_word.
  uint64_t bits = 0;
  /// Optional first-attempt frame, encoded ahead of time by
  /// PreEncodeFrame so senders can move the frame encode + checksum off
  /// the transport's serialized wire path (the merge trees build and
  /// pre-encode uplinks on the thread pool). Only honoured by the ideal
  /// wire, and only when the endpoints match; the fault simulation
  /// re-encodes per attempt regardless. shared_ptr: Message stays
  /// copyable and the cache survives queueing by value.
  std::shared_ptr<const PreEncodedFrame> cached_frame;
};

/// Encodes the attempt-0 frame for `msg` between the given endpoints and
/// attaches it as msg.cached_frame. EncodeFrame is deterministic, so the
/// cached bytes are exactly what SendOverIdealWire would put on the wire.
void PreEncodeFrame(Message& msg, int from, int to);

/// A dense matrix: one metered word per entry (the paper's convention
/// for sketch payloads after §3.3 rounding).
Message DenseMessage(std::string tag, const Matrix& m);

/// A quantized matrix: metered as BitsToWords(total_bits) words and
/// exactly total_bits bits, where total_bits is the true width of the
/// encoded bitstream. `bits_per_word` comes from the instance CostModel.
StatusOr<Message> QuantizedMessage(std::string tag, const QuantizeResult& q,
                                   uint64_t bits_per_word);

/// A single scalar, carried as a 1x1 dense matrix: 1 word.
Message ScalarMessage(std::string tag, double value);

/// `values.size()` scalars as a 1xN dense matrix: N words.
Message ScalarsMessage(std::string tag, const std::vector<double>& values);

/// The upper triangle (with diagonal) of a symmetric d x d matrix as a
/// 1 x d(d+1)/2 dense row: d(d+1)/2 words, the exact-gram protocol's
/// analytic count.
Message SymmetricMessage(std::string tag, const Matrix& gram);

/// A 64-bit seed, bit-cast into one double: 1 word. The dense codec only
/// copies bytes, so the cast is exact end to end.
Message SeedMessage(std::string tag, uint64_t seed);

/// Decodes a payload produced by ScalarMessage (any 1-entry matrix).
StatusOr<double> DecodeScalarPayload(const std::vector<uint8_t>& payload);

/// Decodes a payload produced by SeedMessage.
StatusOr<uint64_t> DecodeSeedPayload(const std::vector<uint8_t>& payload);

/// Decodes any matrix payload (dense or quantized).
StatusOr<DecodedMatrix> DecodeMessagePayload(
    const std::vector<uint8_t>& payload);

}  // namespace wire
}  // namespace distsketch

#endif  // DISTSKETCH_WIRE_MESSAGE_H_
