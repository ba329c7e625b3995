#include "wire/frame.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../corruption_sweep.h"
#include "wire/checksum.h"

#ifndef DS_GOLDEN_DIR
#error "DS_GOLDEN_DIR must point at the committed tests/golden directory"
#endif

namespace distsketch {
namespace wire {
namespace {

using testing::ForEachBitFlip;
using testing::ForEachTruncation;

Frame TestFrame() {
  Frame f;
  f.tag = "local_sketch";
  f.from = 3;
  f.to = -1;  // the coordinator
  f.attempt = 2;
  f.payload = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  return f;
}

// The frozen version-1 frame (XXH64 checksum): decoding stays supported,
// so every sweep below also runs over it.
std::vector<uint8_t> GoldenV1Frame() {
  std::ifstream in(std::string(DS_GOLDEN_DIR) + "/frame_local_sketch.frame",
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden v1 frame";
  return {std::istreambuf_iterator<char>(in), {}};
}

// The swept frames: a v2 frame as EncodeFrame writes it, and the golden
// v1 frame. Both carry a 12-byte tag.
struct SweptFrame {
  const char* name;
  std::vector<uint8_t> bytes;
  size_t tag_len;
};

std::vector<SweptFrame> SweptFrames() {
  const Frame f = TestFrame();
  return {{"v2", EncodeFrame(f), f.tag.size()},
          {"golden v1", GoldenV1Frame(), 12}};
}

void ExpectRejects(const std::vector<uint8_t>& buf, const char* substring) {
  auto decoded = DecodeFrame(buf.data(), buf.size());
  ASSERT_FALSE(decoded.ok()) << "expected rejection: " << substring;
  EXPECT_NE(decoded.status().message().find(substring), std::string::npos)
      << decoded.status().message();
}

TEST(FrameTest, RoundTripPreservesEverything) {
  const Frame f = TestFrame();
  const std::vector<uint8_t> buf = EncodeFrame(f);
  EXPECT_EQ(buf.size(), kFrameHeaderBytes + f.tag.size() + f.payload.size());
  auto decoded = DecodeFrame(buf.data(), buf.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->tag, f.tag);
  EXPECT_EQ(decoded->from, f.from);
  EXPECT_EQ(decoded->to, f.to);
  EXPECT_EQ(decoded->attempt, f.attempt);
  EXPECT_EQ(decoded->payload, f.payload);
}

TEST(FrameTest, EmptyPayloadAndTagRoundTrip) {
  Frame f;
  const std::vector<uint8_t> buf = EncodeFrame(f);
  EXPECT_EQ(buf.size(), kFrameHeaderBytes);
  auto decoded = DecodeFrame(buf.data(), buf.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->tag.empty());
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(FrameTest, EveryStrictPrefixFailsDecode) {
  for (const SweptFrame& frame : SweptFrames()) {
    SCOPED_TRACE(frame.name);
    ASSERT_TRUE(DecodeFrame(frame.bytes.data(), frame.bytes.size()).ok());
    ForEachTruncation(frame.bytes, [](const std::vector<uint8_t>& prefix,
                                      const std::string& what) {
      EXPECT_FALSE(DecodeFrame(prefix.data(), prefix.size()).ok()) << what;
    });
  }
}

TEST(FrameTest, RejectsBadMagic) {
  std::vector<uint8_t> buf = EncodeFrame(TestFrame());
  buf[0] ^= 0x01;
  ExpectRejects(buf, "bad magic");
}

TEST(FrameTest, RejectsBadVersion) {
  std::vector<uint8_t> buf = EncodeFrame(TestFrame());
  const uint16_t wrong = kFrameVersion + 1;
  std::memcpy(buf.data() + 4, &wrong, sizeof(wrong));
  ExpectRejects(buf, "bad version");
}

TEST(FrameTest, RejectsLengthMismatch) {
  std::vector<uint8_t> buf = EncodeFrame(TestFrame());
  buf.push_back(0);  // trailing byte: header length no longer matches
  ExpectRejects(buf, "length mismatch");
}

TEST(FrameTest, RejectsTamperedTag) {
  const Frame f = TestFrame();
  std::vector<uint8_t> buf = EncodeFrame(f);
  buf[kFrameHeaderBytes] ^= 0xFF;  // first tag byte
  ExpectRejects(buf, "tag id mismatch");
}

TEST(FrameTest, ChecksumCatchesEverySingleBitFlipInPayload) {
  for (const SweptFrame& frame : SweptFrames()) {
    SCOPED_TRACE(frame.name);
    const size_t payload_off = FrameBytes(frame.tag_len, 0);
    const std::span<const uint8_t> payload =
        std::span<const uint8_t>(frame.bytes).subspan(payload_off);
    ForEachBitFlip(payload, [&](const std::vector<uint8_t>& flipped,
                                const std::string& what) {
      std::vector<uint8_t> buf = frame.bytes;
      std::copy(flipped.begin(), flipped.end(), buf.begin() + payload_off);
      SCOPED_TRACE(what);
      ExpectRejects(buf, "checksum mismatch");
    });
  }
}

TEST(FrameTest, EncodeFrameIntoIsByteEqualToEncodeFrame) {
  const Frame f = TestFrame();
  // A reused buffer with stale, larger contents must be fully replaced.
  std::vector<uint8_t> out(4096, 0xAB);
  EncodeFrameInto(f.tag, f.from, f.to, f.attempt, f.payload,
                  FrameChecksum(f.payload.data(), f.payload.size()), &out);
  EXPECT_EQ(out, EncodeFrame(f));
  EXPECT_EQ(out.size(), FrameBytes(f.tag.size(), f.payload.size()));

  EncodeFrameInto("", 0, 0, 0, {}, FrameChecksum(nullptr, 0), &out);
  EXPECT_EQ(out, EncodeFrame(Frame{}));
  EXPECT_EQ(out.size(), FrameBytes(0, 0));
}

TEST(FrameTest, VerifyFrameViewsTheHeaderAndPayloadInPlace) {
  const Frame f = TestFrame();
  const std::vector<uint8_t> buf = EncodeFrame(f);
  auto view = VerifyFrame(buf.data(), buf.size());
  ASSERT_TRUE(view.ok()) << view.status().message();
  EXPECT_EQ(view->tag, f.tag);
  EXPECT_EQ(view->tag.data(),
            reinterpret_cast<const char*>(buf.data() + kFrameHeaderBytes));
  EXPECT_EQ(view->from, f.from);
  EXPECT_EQ(view->to, f.to);
  EXPECT_EQ(view->attempt, f.attempt);
  EXPECT_EQ(view->payload_offset, FrameBytes(f.tag.size(), 0));
  ASSERT_EQ(view->payload_size, f.payload.size());
  EXPECT_EQ(std::memcmp(buf.data() + view->payload_offset, f.payload.data(),
                        f.payload.size()),
            0);
}

// VerifyFrame and DecodeFrame must agree on every input: same verdict,
// same status text, and on acceptance the same header and payload.
void ExpectVerifyMatchesDecode(const std::vector<uint8_t>& buf,
                               const std::string& what) {
  auto decoded = DecodeFrame(buf.data(), buf.size());
  auto verified = VerifyFrame(buf.data(), buf.size());
  ASSERT_EQ(decoded.ok(), verified.ok()) << what;
  if (!decoded.ok()) {
    EXPECT_EQ(decoded.status().code(), verified.status().code()) << what;
    EXPECT_EQ(decoded.status().message(), verified.status().message())
        << what;
    return;
  }
  EXPECT_EQ(decoded->tag, verified->tag) << what;
  EXPECT_EQ(decoded->from, verified->from) << what;
  EXPECT_EQ(decoded->to, verified->to) << what;
  EXPECT_EQ(decoded->attempt, verified->attempt) << what;
  const std::vector<uint8_t> payload(
      buf.begin() + static_cast<std::ptrdiff_t>(verified->payload_offset),
      buf.end());
  EXPECT_EQ(decoded->payload, payload) << what;
}

TEST(FrameTest, VerifyFrameAgreesWithDecodeFrameOnEveryPrefix) {
  for (const SweptFrame& frame : SweptFrames()) {
    SCOPED_TRACE(frame.name);
    ForEachTruncation(frame.bytes, [](const std::vector<uint8_t>& prefix,
                                      const std::string& what) {
      EXPECT_FALSE(VerifyFrame(prefix.data(), prefix.size()).ok()) << what;
      ExpectVerifyMatchesDecode(prefix, what);
    });
    ExpectVerifyMatchesDecode(frame.bytes, "whole frame");
  }
}

TEST(FrameTest, VerifyFrameAgreesWithDecodeFrameOnEveryBitFlip) {
  for (const SweptFrame& frame : SweptFrames()) {
    SCOPED_TRACE(frame.name);
    ForEachBitFlip(frame.bytes, ExpectVerifyMatchesDecode);
  }
}

TEST(FrameTest, EncodeFrameHeadIntoWritesTheFramesLeadingBytes) {
  const Frame f = TestFrame();
  const std::vector<uint8_t> whole = EncodeFrame(f);
  std::vector<uint8_t> head(4096, 0xAB);
  EncodeFrameHeadInto(f.tag, f.from, f.to, f.attempt, f.payload.size(),
                      FrameChecksum(f.payload.data(), f.payload.size()), &head);
  ASSERT_EQ(head.size(), FrameBytes(f.tag.size(), 0));
  EXPECT_TRUE(std::equal(head.begin(), head.end(), whole.begin()));
}

// VerifyFrameParts over a frame split after its tag (as the sender holds
// it: an encoded head plus its own payload) must give VerifyFrame's
// verdict and status text on the contiguous bytes, and on acceptance the
// same view.
void ExpectPartsMatchVerify(const std::vector<uint8_t>& buf, size_t tag_len,
                            const std::string& what) {
  const size_t split = std::min(buf.size(), FrameBytes(tag_len, 0));
  // Exact-size copies of both parts, so a read past either is an ASan
  // error.
  const std::vector<uint8_t> head(buf.begin(), buf.begin() + split);
  const std::vector<uint8_t> payload(buf.begin() + split, buf.end());
  auto whole = VerifyFrame(buf.data(), buf.size());
  auto parts = VerifyFrameParts(head, payload);
  ASSERT_EQ(whole.ok(), parts.ok()) << what;
  if (!whole.ok()) {
    EXPECT_EQ(whole.status().code(), parts.status().code()) << what;
    EXPECT_EQ(whole.status().message(), parts.status().message()) << what;
    return;
  }
  EXPECT_EQ(whole->tag, parts->tag) << what;
  EXPECT_EQ(whole->from, parts->from) << what;
  EXPECT_EQ(whole->to, parts->to) << what;
  EXPECT_EQ(whole->attempt, parts->attempt) << what;
  EXPECT_EQ(whole->payload_offset, parts->payload_offset) << what;
  EXPECT_EQ(whole->payload_size, parts->payload_size) << what;
}

TEST(FrameTest, VerifyFramePartsAgreesWithVerifyFrameOnEveryPrefix) {
  for (const SweptFrame& frame : SweptFrames()) {
    SCOPED_TRACE(frame.name);
    ForEachTruncation(frame.bytes, [&](const std::vector<uint8_t>& prefix,
                                       const std::string& what) {
      ExpectPartsMatchVerify(prefix, frame.tag_len, what);
    });
    ExpectPartsMatchVerify(frame.bytes, frame.tag_len, "whole frame");
  }
  // The payload need not follow the head in memory.
  const Frame f = TestFrame();
  const std::vector<uint8_t> buf = EncodeFrame(f);
  const std::vector<uint8_t> head(
      buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(
                                     FrameBytes(f.tag.size(), 0)));
  EXPECT_TRUE(VerifyFrameParts(head, f.payload).ok());
}

TEST(FrameTest, VerifyFramePartsAgreesWithVerifyFrameOnEveryBitFlip) {
  for (const SweptFrame& frame : SweptFrames()) {
    SCOPED_TRACE(frame.name);
    ForEachBitFlip(frame.bytes, [&](const std::vector<uint8_t>& buf,
                                    const std::string& what) {
      ExpectPartsMatchVerify(buf, frame.tag_len, what);
    });
  }
}

TEST(FrameTest, VerifyFramePartsRejectsAHeadThatDoesNotEndAtTheTag) {
  const Frame f = TestFrame();
  const std::vector<uint8_t> buf = EncodeFrame(f);
  const size_t split = FrameBytes(f.tag.size(), 0);
  for (const size_t off : {split - 1, split + 1}) {
    const std::vector<uint8_t> head(buf.begin(), buf.begin() + off);
    const std::vector<uint8_t> payload(buf.begin() + off, buf.end());
    auto parts = VerifyFrameParts(head, payload);
    ASSERT_FALSE(parts.ok()) << off;
    EXPECT_EQ(parts.status().message(), "wire frame: length mismatch");
  }
}

TEST(FrameTest, WireTagIdIsStableAndDiscriminates) {
  EXPECT_EQ(WireTagId("local_sketch"), WireTagId("local_sketch"));
  EXPECT_NE(WireTagId("local_sketch"), WireTagId("local_mass"));
  // FNV-1a 32 of the empty string is the offset basis.
  EXPECT_EQ(WireTagId(""), 0x811C9DC5u);
}

TEST(ChecksumTest, MatchesXxh64EmptyVectorAndSeparatesInputs) {
  // Published XXH64 vector: empty input, seed 0.
  EXPECT_EQ(Checksum64(nullptr, 0), 0xEF46DB3751D8E999ull);
  const uint8_t a[] = {1, 2, 3, 4};
  const uint8_t b[] = {1, 2, 3, 5};
  EXPECT_EQ(Checksum64(a, 4), Checksum64(a, 4));
  EXPECT_NE(Checksum64(a, 4), Checksum64(b, 4));
  EXPECT_NE(Checksum64(a, 4), Checksum64(a, 3));
  EXPECT_NE(Checksum64(a, 4, /*seed=*/1), Checksum64(a, 4, /*seed=*/2));
}

}  // namespace
}  // namespace wire
}  // namespace distsketch
