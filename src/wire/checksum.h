#ifndef DISTSKETCH_WIRE_CHECKSUM_H_
#define DISTSKETCH_WIRE_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace distsketch {

/// 64-bit non-cryptographic checksum of a byte buffer (the XXH64
/// algorithm): the integrity check of persisted bytes (sketch blobs,
/// checkpoints) and of version-1 wire frames, which stay readable.
uint64_t Checksum64(const uint8_t* data, size_t size, uint64_t seed = 0);

namespace wire {

/// The payload checksum of a version-2 wire frame: CRC-64/XZ (reflected
/// ECMA-182 polynomial 0x42F0E1EBA9EA3693, init and xorout all-ones;
/// "123456789" -> 0x995DC9BBDF1939FA), computed by the active SIMD
/// table's crc64 kernel. Every backend returns the same value. A degree-64
/// CRC detects every error burst of at most 64 bits, so any single
/// corrupted byte is caught with certainty.
uint64_t FrameChecksum(const uint8_t* data, size_t size);

}  // namespace wire

}  // namespace distsketch

#endif  // DISTSKETCH_WIRE_CHECKSUM_H_
