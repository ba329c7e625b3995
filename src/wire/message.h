#ifndef DISTSKETCH_WIRE_MESSAGE_H_
#define DISTSKETCH_WIRE_MESSAGE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"
#include "sketch/quantizer.h"
#include "wire/codec.h"

namespace distsketch {
namespace wire {

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
  /// FrameChecksum(payload), when the sender already computed it (the tree
  /// driver does, on the thread pool, right after building an uplink);
  /// the transport uses it for the frame header, or computes it when
  /// unset. Set it only after the last write to `payload`. The receiver
  /// always recomputes the checksum over the bytes it verifies.
  std::optional<uint64_t> payload_checksum;
};

/// A dense matrix: one metered word per entry (the paper's convention
/// for sketch payloads after §3.3 rounding). The payload is encoded into
/// `buffer`'s storage (cleared first), so a caller that reserved
/// DensePayloadBytes ahead of time decides whose heap holds it.
Message DenseMessage(std::string tag, const Matrix& m,
                     std::vector<uint8_t> buffer = {});

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
/// analytic count. Like DenseMessage, the payload is encoded into
/// `buffer`'s storage (cleared first).
Message SymmetricMessage(std::string tag, const Matrix& gram,
                         std::vector<uint8_t> buffer = {});

/// A 64-bit seed, bit-cast into one double: 1 word. The dense codec only
/// copies bytes, so the cast is exact end to end.
Message SeedMessage(std::string tag, uint64_t seed);

/// Decodes a payload produced by ScalarMessage (any 1-entry matrix).
StatusOr<double> DecodeScalarPayload(std::span<const uint8_t> payload);

/// Decodes a payload produced by SeedMessage.
StatusOr<uint64_t> DecodeSeedPayload(std::span<const uint8_t> payload);

/// Decodes any matrix payload (dense or quantized).
StatusOr<DecodedMatrix> DecodeMessagePayload(
    std::span<const uint8_t> payload);

}  // namespace wire
}  // namespace distsketch

#endif  // DISTSKETCH_WIRE_MESSAGE_H_
