#ifndef DISTSKETCH_WIRE_FRAME_H_
#define DISTSKETCH_WIRE_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace distsketch {
namespace wire {

/// Fixed-size portion of the frame header, before the tag bytes.
///
/// Layout (little-endian):
///   u32 magic "DSWF" | u16 version | u16 tag_len | u32 tag_id |
///   i32 from | i32 to | u32 attempt |
///   u64 payload_len | u64 checksum(payload)
///
/// Version 2 (written) checksums the payload with FrameChecksum
/// (CRC-64/XZ); version 1 (read only) with Checksum64 (XXH64). Nothing
/// else differs, so both versions have the same size.
inline constexpr size_t kFrameHeaderBytes = 40;
inline constexpr uint32_t kFrameMagic = 0x46575344;  // "DSWF" LE
inline constexpr uint16_t kFrameVersion = 2;
inline constexpr uint16_t kFrameVersionV1 = 1;

/// Encoded size of a frame with a `tag_len`-byte tag and a
/// `payload_len`-byte payload — what the wire meters, without building it.
constexpr size_t FrameBytes(size_t tag_len, size_t payload_len) {
  return kFrameHeaderBytes + tag_len + payload_len;
}

/// FNV-1a 32-bit hash of the tag string; a compact id logged next to the
/// human-readable tag so tooling can group messages without string
/// compares.
uint32_t WireTagId(std::string_view tag);

/// A decoded frame: routing metadata plus the raw payload bytes.
struct Frame {
  std::string tag;
  int from = 0;
  int to = 0;
  uint32_t attempt = 0;
  std::vector<uint8_t> payload;
};

/// Serializes the 40-byte header and the tag of a frame carrying a
/// `payload_len`-byte payload into `out`, replacing its contents (its
/// capacity is reused). The payload bytes follow the head on the wire but
/// are not copied: a clean attempt is verified as this head plus the
/// sender's own payload (VerifyFrameParts). `payload_checksum` must be
/// FrameChecksum(payload): it covers the payload only, so one value serves
/// every attempt of a send.
void EncodeFrameHeadInto(std::string_view tag, int from, int to,
                         uint32_t attempt, uint64_t payload_len,
                         uint64_t payload_checksum, std::vector<uint8_t>* out);

/// Serializes header + tag + payload into one contiguous buffer `out`,
/// replacing its contents (its capacity is reused): the head as
/// EncodeFrameHeadInto writes it, then the payload bytes.
void EncodeFrameInto(std::string_view tag, int from, int to, uint32_t attempt,
                     std::span<const uint8_t> payload,
                     uint64_t payload_checksum, std::vector<uint8_t>* out);

/// Serializes header + tag + payload into one contiguous version-2 frame.
/// The checksum field is FrameChecksum over the payload bytes only.
std::vector<uint8_t> EncodeFrame(const Frame& frame);

/// A frame validated in place: the header fields plus where the payload
/// sits inside the checked buffer. `tag` points into that buffer.
struct FrameView {
  std::string_view tag;
  int from = 0;
  int to = 0;
  uint32_t attempt = 0;
  size_t payload_offset = 0;
  size_t payload_size = 0;
};

/// Runs every check DecodeFrame runs on a frame held in two pieces:
/// `head` (header and tag, as EncodeFrameHeadInto writes them) and
/// `payload` (the bytes that follow it on the wire), recomputing the
/// checksum over `payload` where it lies and copying nothing.
/// payload_offset is head.size(). On the first
/// min(size, kFrameHeaderBytes + tag_len) bytes of a frame as `head` and
/// the rest as `payload`, the verdict and status text equal VerifyFrame's
/// on the contiguous bytes; a head that does not end where its tag does
/// is a "length mismatch".
StatusOr<FrameView> VerifyFrameParts(std::span<const uint8_t> head,
                                     std::span<const uint8_t> payload);

/// Runs every check DecodeFrame runs, with the same status messages, and
/// copies nothing: the receiver reads the payload out of `data` at
/// payload_offset. VerifyFrameParts on the frame split after its tag.
StatusOr<FrameView> VerifyFrame(const uint8_t* data, size_t size);

/// Parses and validates a frame buffer of either version. Rejects, with
/// InvalidArgument: short buffers ("truncated"), wrong magic ("bad
/// magic"), a version other than 1 or 2 ("bad version"), length
/// mismatches between the header and the actual buffer size ("length
/// mismatch"), and payload bytes whose checksum does not match the header
/// ("checksum mismatch"). Any strict
/// byte-prefix of a valid frame fails one of these checks, which is what
/// lets a receiver detect fault-injected truncation. VerifyFrame plus one
/// copy of the tag and payload.
StatusOr<Frame> DecodeFrame(const uint8_t* data, size_t size);

}  // namespace wire
}  // namespace distsketch

#endif  // DISTSKETCH_WIRE_FRAME_H_
