// The version-2 frame checksum: CRC-64/XZ through the SimdKernelTable's
// crc64 entry. Every compiled backend must equal a bitwise reference
// (no tables, no folding) at every length and alignment, and the CRC
// must reject every error burst of at most 64 bits in a frame payload.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/simd_dispatch.h"
#include "wire/checksum.h"
#include "wire/frame.h"

namespace distsketch {
namespace wire {
namespace {

// One bit at a time, straight from the definition: reflected polynomial,
// register starts all-ones, output inverted.
constexpr uint64_t kReflectedPoly = 0xC96C5795D7870F42ULL;

uint64_t BitwiseStep(uint64_t reg, uint8_t byte) {
  reg ^= byte;
  for (int i = 0; i < 8; ++i) {
    reg = (reg >> 1) ^ ((reg & 1) ? kReflectedPoly : 0);
  }
  return reg;
}

uint64_t BitwiseCrc64(const uint8_t* data, size_t n) {
  uint64_t reg = ~uint64_t{0};
  for (size_t i = 0; i < n; ++i) reg = BitwiseStep(reg, data[i]);
  return ~reg;
}

std::vector<SimdBackend> SupportedBackends() {
  std::vector<SimdBackend> out;
  for (SimdBackend b :
       {SimdBackend::kScalar, SimdBackend::kAvx2, SimdBackend::kAvx512}) {
    if (SimdBackendSupported(b)) out.push_back(b);
  }
  return out;
}

// Deterministic, non-repeating fill.
std::vector<uint8_t> Bytes(size_t n, uint64_t seed) {
  std::vector<uint8_t> out(n);
  uint64_t s = seed;
  for (uint8_t& b : out) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    b = static_cast<uint8_t>(s >> 56);
  }
  return out;
}

TEST(FrameChecksumTest, CatalogueCheckValue) {
  const char* check = "123456789";
  const auto* p = reinterpret_cast<const uint8_t*>(check);
  EXPECT_EQ(BitwiseCrc64(p, 9), 0x995DC9BBDF1939FAULL);
  for (SimdBackend b : SupportedBackends()) {
    SCOPED_TRACE(std::string(SimdBackendName(b)));
    EXPECT_EQ(SimdTableFor(b).crc64(0, p, 9), 0x995DC9BBDF1939FAULL);
  }
  EXPECT_EQ(FrameChecksum(p, 9), 0x995DC9BBDF1939FAULL);
  EXPECT_EQ(FrameChecksum(nullptr, 0), 0u);
}

// Lengths 0..4096 at start offsets 0..63 cover every fold's entry and
// exit: the table-only short path, each lane count, the 16-byte tail loop
// and every byte tail. For one offset the reference CRC of each prefix
// comes from one bitwise pass.
TEST(FrameChecksumTest, EveryBackendMatchesTheBitwiseReference) {
  constexpr size_t kMaxLen = 4096;
  constexpr size_t kOffsets = 64;
  const std::vector<uint8_t> buf = Bytes(kMaxLen + kOffsets, 0xC0FFEE);
  const std::vector<SimdBackend> backends = SupportedBackends();
  const SimdBackend active = ActiveSimdBackend();
  for (size_t off = 0; off < kOffsets; ++off) {
    const uint8_t* p = buf.data() + off;
    uint64_t reg = ~uint64_t{0};
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const uint64_t want = ~reg;
      for (SimdBackend b : backends) {
        ASSERT_EQ(SimdTableFor(b).crc64(0, p, len), want)
            << SimdBackendName(b) << " offset " << off << " length " << len;
      }
      if (len < kMaxLen) reg = BitwiseStep(reg, p[len]);
    }
  }
  // FrameChecksum is the active table's entry.
  for (SimdBackend b : backends) {
    SetSimdBackendForTesting(b);
    EXPECT_EQ(FrameChecksum(buf.data() + 3, 3001),
              BitwiseCrc64(buf.data() + 3, 3001))
        << SimdBackendName(b);
  }
  SetSimdBackendForTesting(active);
}

TEST(FrameChecksumTest, ContinuesFromAPrefixCrc) {
  const std::vector<uint8_t> buf = Bytes(1500, 7);
  const uint64_t whole = BitwiseCrc64(buf.data(), buf.size());
  for (SimdBackend b : SupportedBackends()) {
    const auto crc64 = SimdTableFor(b).crc64;
    for (size_t cut : {0, 1, 15, 16, 17, 127, 128, 256, 700, 1500}) {
      EXPECT_EQ(crc64(crc64(0, buf.data(), cut), buf.data() + cut,
                      buf.size() - cut),
                whole)
          << SimdBackendName(b) << " cut " << cut;
    }
  }
}

// A small v2 payload: every single-bit flip, and every burst of 2..64
// bits (first and last bit of the span flipped) at every bit offset, with
// several interior patterns each, must fail verification.
TEST(FrameChecksumTest, RejectsEveryBurstOfAtMost64Bits) {
  Frame f;
  f.tag = "local_cs";
  f.from = 5;
  f.to = 2;
  f.payload = Bytes(48, 99);
  const std::vector<uint8_t> clean = EncodeFrame(f);
  ASSERT_TRUE(VerifyFrame(clean.data(), clean.size()).ok());
  const size_t payload_off = FrameBytes(f.tag.size(), 0);
  const size_t payload_bits = 8 * f.payload.size();
  const uint64_t interiors[] = {0, ~uint64_t{0}, 0x5555555555555555ULL,
                                0x9E3779B97F4A7C15ULL};
  std::vector<uint8_t> buf;
  auto flip = [&](size_t bit) {
    buf[payload_off + bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  };
  size_t cases = 0;
  for (size_t start = 0; start < payload_bits; ++start) {
    for (size_t len = 1; len <= 64 && start + len <= payload_bits; ++len) {
      for (uint64_t interior : interiors) {
        if (len <= 2 && interior != 0) continue;  // no interior bits
        buf = clean;
        flip(start);
        if (len > 1) flip(start + len - 1);
        for (size_t i = 1; i + 1 < len; ++i) {
          if ((interior >> i) & 1) flip(start + i);
        }
        auto verified = VerifyFrame(buf.data(), buf.size());
        ASSERT_FALSE(verified.ok()) << "start " << start << " len " << len;
        ASSERT_EQ(verified.status().message(),
                  "wire frame: checksum mismatch");
        ++cases;
      }
    }
  }
  EXPECT_GT(cases, payload_bits * 64);
}

}  // namespace
}  // namespace wire
}  // namespace distsketch
