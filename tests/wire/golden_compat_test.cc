// Golden-binary compatibility suite: replays the committed binaries
// under tests/golden/ (emitted by tools/gen_golden) and asserts they
// still decode bit-exactly and re-encode to identical bytes. A failure
// here means a wire format changed. Fix the code, not the goldens;
// regenerating them is a format break and needs a version bump. The one
// bump so far is the frame's (v1 XXH64 -> v2 CRC-64): the v1 frame stays
// committed and must keep decoding, and re-encodes as the v2 golden.

#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "wire/checksum.h"
#include "wire/codec.h"
#include "wire/frame.h"
#include "wire/sketch_serde.h"

#ifndef DS_GOLDEN_DIR
#error "DS_GOLDEN_DIR must point at the committed tests/golden directory"
#endif

namespace distsketch {
namespace wire {
namespace {

struct ManifestEntry {
  std::string kind;
  size_t bytes = 0;
  uint64_t checksum = 0;
};

std::string GoldenPath(const std::string& file) {
  return std::string(DS_GOLDEN_DIR) + "/" + file;
}

std::vector<uint8_t> ReadGolden(const std::string& file) {
  std::ifstream in(GoldenPath(file), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden: " << file;
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  return bytes;
}

std::map<std::string, ManifestEntry> ReadManifest() {
  std::map<std::string, ManifestEntry> manifest;
  std::ifstream in(GoldenPath("manifest.txt"));
  EXPECT_TRUE(in.good()) << "missing golden manifest";
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string file, checksum_hex;
    ManifestEntry entry;
    fields >> file >> entry.kind >> entry.bytes >> checksum_hex;
    EXPECT_FALSE(fields.fail()) << "bad manifest line: " << line;
    entry.checksum = std::stoull(checksum_hex, nullptr, 16);
    manifest[file] = entry;
  }
  return manifest;
}

TEST(GoldenCompatTest, FormatConstantsAreFrozen) {
  // These values are load-bearing for every committed binary. Changing
  // any of them is a format break.
  EXPECT_EQ(kSketchMagic, 0x4B535344u);
  EXPECT_EQ(kSketchFormatVersion, 1u);
  EXPECT_EQ(kSketchHeaderBytes, 32u);
  EXPECT_EQ(kSketchSectionEntryBytes, 24u);
  EXPECT_EQ(kFrameMagic, 0x46575344u);
  EXPECT_EQ(kFrameVersion, 2u);
  EXPECT_EQ(kFrameVersionV1, 1u);
  EXPECT_EQ(kFrameHeaderBytes, 40u);
}

TEST(GoldenCompatTest, ManifestMatchesFilesOnDisk) {
  const auto manifest = ReadManifest();
  EXPECT_EQ(manifest.size(), 13u);
  for (const auto& [file, entry] : manifest) {
    const std::vector<uint8_t> bytes = ReadGolden(file);
    EXPECT_EQ(bytes.size(), entry.bytes) << file;
    EXPECT_EQ(Checksum64(bytes.data(), bytes.size()), entry.checksum) << file;
  }
}

TEST(GoldenCompatTest, SketchBlobsDecodeAndReencodeIdentically) {
  const auto manifest = ReadManifest();
  for (const auto& [file, entry] : manifest) {
    if (file.find(".sketch") == std::string::npos) continue;
    const std::vector<uint8_t> blob = ReadGolden(file);
    if (entry.kind == "coordinator_checkpoint") {
      auto checkpoint = DecodeCoordinatorCheckpoint(blob.data(), blob.size());
      ASSERT_TRUE(checkpoint.ok())
          << file << ": " << checkpoint.status().message();
      EXPECT_EQ(EncodeCoordinatorCheckpoint(*checkpoint), blob) << file;
      continue;
    }
    auto compact = CompactSketch::Wrap(blob.data(), blob.size());
    ASSERT_TRUE(compact.ok()) << file << ": " << compact.status().message();
    std::vector<uint8_t> reencoded;
    if (entry.kind == "frequent_directions") {
      auto state = compact->ToFdState();
      ASSERT_TRUE(state.ok()) << file << ": " << state.status().message();
      reencoded = SerializeSketchState(*state);
    } else if (entry.kind == "fast_frequent_directions") {
      auto state = compact->ToFastFdState();
      ASSERT_TRUE(state.ok()) << file << ": " << state.status().message();
      reencoded = SerializeSketchState(*state);
    } else if (entry.kind == "svs") {
      auto state = compact->ToSvsState();
      ASSERT_TRUE(state.ok()) << file << ": " << state.status().message();
      reencoded = SerializeSketchState(*state);
    } else if (entry.kind == "adaptive") {
      auto state = compact->ToAdaptiveState();
      ASSERT_TRUE(state.ok()) << file << ": " << state.status().message();
      reencoded = SerializeSketchState(*state);
    } else if (entry.kind == "countsketch") {
      auto state = compact->ToCountSketchState();
      ASSERT_TRUE(state.ok()) << file << ": " << state.status().message();
      reencoded = SerializeSketchState(*state);
    } else if (entry.kind == "sliding_window") {
      auto state = compact->ToSlidingWindowState();
      ASSERT_TRUE(state.ok()) << file << ": " << state.status().message();
      reencoded = SerializeSketchState(*state);
    } else if (entry.kind == "row_sampling") {
      auto state = compact->ToRowSamplingState();
      ASSERT_TRUE(state.ok()) << file << ": " << state.status().message();
      reencoded = SerializeSketchState(*state);
    } else {
      FAIL() << "unknown manifest kind: " << entry.kind;
    }
    EXPECT_EQ(reencoded, blob) << file << " re-encode differs";
  }
}

TEST(GoldenCompatTest, PayloadGoldensDecodeAndReencodeIdentically) {
  {
    const std::vector<uint8_t> payload = ReadGolden("dense_3x5.payload");
    auto decoded = DecodeMatrixPayload(payload.data(), payload.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded->matrix.rows(), 3u);
    EXPECT_EQ(decoded->matrix.cols(), 5u);
    EXPECT_EQ(EncodeDensePayload(decoded->matrix), payload);
  }
  {
    const std::vector<uint8_t> payload = ReadGolden("dense_0x4.payload");
    auto decoded = DecodeMatrixPayload(payload.data(), payload.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded->matrix.rows(), 0u);
    EXPECT_EQ(decoded->matrix.cols(), 4u);
    EXPECT_EQ(EncodeDensePayload(decoded->matrix), payload);
  }
  {
    const std::vector<uint8_t> payload = ReadGolden("quant_4x4_b12.payload");
    auto decoded = DecodeMatrixPayload(payload.data(), payload.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded->matrix.rows(), 4u);
    EXPECT_EQ(decoded->matrix.cols(), 4u);
    EXPECT_EQ(decoded->encoding, MatrixEncoding::kQuantized);
    EXPECT_EQ(decoded->precision, 1.0 / 1024.0);
  }
}

// The v1 frame decodes; EncodeFrame only writes v2, so its re-encoding
// is the v2 golden of the same frame, byte for byte.
TEST(GoldenCompatTest, FrameGoldenDecodesAndReencodesIdentically) {
  const std::vector<uint8_t> buf = ReadGolden("frame_local_sketch.frame");
  ASSERT_GE(buf.size(), kFrameHeaderBytes);
  EXPECT_EQ(buf[4], kFrameVersionV1);
  auto frame = DecodeFrame(buf.data(), buf.size());
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  EXPECT_EQ(frame->tag, "local_sketch");
  EXPECT_EQ(frame->from, 3);
  EXPECT_EQ(frame->to, -1);
  EXPECT_EQ(frame->attempt, 1u);
  EXPECT_EQ(EncodeFrame(*frame), ReadGolden("frame_local_sketch_v2.frame"));
}

TEST(GoldenCompatTest, FrameV2GoldenDecodesAndReencodesIdentically) {
  const std::vector<uint8_t> v1 = ReadGolden("frame_local_sketch.frame");
  const std::vector<uint8_t> buf = ReadGolden("frame_local_sketch_v2.frame");
  ASSERT_EQ(buf.size(), v1.size());  // the versions differ in no length
  EXPECT_EQ(buf[4], kFrameVersion);
  auto frame = DecodeFrame(buf.data(), buf.size());
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  EXPECT_EQ(frame->tag, "local_sketch");
  EXPECT_EQ(frame->from, 3);
  EXPECT_EQ(frame->to, -1);
  EXPECT_EQ(frame->attempt, 1u);
  EXPECT_EQ(frame->payload,
            std::vector<uint8_t>(v1.begin() + static_cast<std::ptrdiff_t>(
                                                  FrameBytes(12, 0)),
                                 v1.end()));
  EXPECT_EQ(EncodeFrame(*frame), buf);
  // The header's checksum field is the payload's CRC-64/XZ.
  uint64_t checksum;
  std::memcpy(&checksum, buf.data() + 32, sizeof(checksum));
  EXPECT_EQ(checksum, FrameChecksum(frame->payload.data(),
                                    frame->payload.size()));
}

TEST(GoldenCompatTest, VersionBumpIsCleanlyRejected) {
  std::vector<uint8_t> blob = ReadGolden("fd_state.sketch");
  ASSERT_GE(blob.size(), kSketchHeaderBytes);
  blob[4] = 2;  // version u16 LE low byte: 1 -> 2
  auto compact = CompactSketch::Wrap(blob.data(), blob.size());
  ASSERT_FALSE(compact.ok());
  EXPECT_NE(
      compact.status().message().find("unsupported sketch format version"),
      std::string::npos)
      << compact.status().message();
}

TEST(GoldenCompatTest, FrameVersionBumpIsCleanlyRejected) {
  std::vector<uint8_t> buf = ReadGolden("frame_local_sketch.frame");
  ASSERT_GE(buf.size(), kFrameHeaderBytes);
  buf[4] = 3;  // version u16 LE low byte: neither v1 nor v2
  auto frame = DecodeFrame(buf.data(), buf.size());
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("bad version"), std::string::npos);
}

}  // namespace
}  // namespace wire
}  // namespace distsketch
