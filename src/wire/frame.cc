#include "wire/frame.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "telemetry/telemetry.h"
#include "wire/checksum.h"

namespace distsketch {
namespace wire {
namespace {

template <typename T>
void WritePod(T v, uint8_t* p) {
  std::memcpy(p, &v, sizeof(T));
}

template <typename T>
T ReadPod(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace

uint32_t WireTagId(std::string_view tag) {
  uint32_t h = 2166136261u;
  for (unsigned char c : tag) {
    h ^= c;
    h *= 16777619u;
  }
  return h;
}

void EncodeFrameHeadInto(std::string_view tag, int from, int to,
                         uint32_t attempt, uint64_t payload_len,
                         uint64_t payload_checksum, std::vector<uint8_t>* out) {
  // Codec cost is always host time (never the virtual clock): the
  // histograms answer "how expensive is the codec", not "when did the
  // simulated transfer happen".
  const bool telem = telemetry::Telemetry::Current()->enabled();
  const uint64_t t0 = telem ? telemetry::Telemetry::WallNowNs() : 0;
  uint8_t header[kFrameHeaderBytes] = {};
  WritePod<uint32_t>(kFrameMagic, header);
  WritePod<uint16_t>(kFrameVersion, header + 4);
  WritePod<uint16_t>(static_cast<uint16_t>(tag.size()), header + 6);
  WritePod<uint32_t>(WireTagId(tag), header + 8);
  WritePod<int32_t>(from, header + 12);
  WritePod<int32_t>(to, header + 16);
  WritePod<uint32_t>(attempt, header + 20);
  WritePod<uint64_t>(payload_len, header + 24);
  WritePod<uint64_t>(payload_checksum, header + 32);
  // clear + reserve + range inserts: each byte is written once (no
  // zero-fill pass), and the reserve is a no-op on a reused buffer.
  out->clear();
  out->reserve(FrameBytes(tag.size(), 0));
  out->insert(out->end(), header, header + kFrameHeaderBytes);
  out->insert(out->end(), tag.begin(), tag.end());
  if (telem) {
    telemetry::Observe("wire.encode_ns",
                       telemetry::Telemetry::WallNowNs() - t0);
    telemetry::Count("wire.frames_encoded");
  }
}

void EncodeFrameInto(std::string_view tag, int from, int to, uint32_t attempt,
                     std::span<const uint8_t> payload,
                     uint64_t payload_checksum, std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(FrameBytes(tag.size(), payload.size()));
  EncodeFrameHeadInto(tag, from, to, attempt, payload.size(),
                      payload_checksum, out);
  out->insert(out->end(), payload.begin(), payload.end());
}

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  std::vector<uint8_t> out;
  EncodeFrameInto(frame.tag, frame.from, frame.to, frame.attempt,
                  frame.payload,
                  FrameChecksum(frame.payload.data(), frame.payload.size()),
                  &out);
  return out;
}

namespace {

StatusOr<FrameView> VerifyFramePartsImpl(std::span<const uint8_t> head,
                                         std::span<const uint8_t> payload) {
  if (head.size() < kFrameHeaderBytes) {
    return Status::InvalidArgument("wire frame: truncated header");
  }
  const uint8_t* data = head.data();
  if (ReadPod<uint32_t>(data) != kFrameMagic) {
    return Status::InvalidArgument("wire frame: bad magic");
  }
  const uint16_t version = ReadPod<uint16_t>(data + 4);
  if (version != kFrameVersion && version != kFrameVersionV1) {
    return Status::InvalidArgument("wire frame: bad version " +
                                   std::to_string(version));
  }
  const uint16_t tag_len = ReadPod<uint16_t>(data + 6);
  const uint32_t tag_id = ReadPod<uint32_t>(data + 8);
  FrameView view;
  view.from = ReadPod<int32_t>(data + 12);
  view.to = ReadPod<int32_t>(data + 16);
  view.attempt = ReadPod<uint32_t>(data + 20);
  const uint64_t payload_len = ReadPod<uint64_t>(data + 24);
  const uint64_t checksum = ReadPod<uint64_t>(data + 32);
  if (payload_len > std::numeric_limits<size_t>::max() - kFrameHeaderBytes -
                        tag_len ||
      head.size() + payload.size() != FrameBytes(tag_len, payload_len) ||
      head.size() != FrameBytes(tag_len, 0)) {
    return Status::InvalidArgument("wire frame: length mismatch");
  }
  view.tag = std::string_view(
      reinterpret_cast<const char*>(data + kFrameHeaderBytes), tag_len);
  if (WireTagId(view.tag) != tag_id) {
    return Status::InvalidArgument("wire frame: tag id mismatch");
  }
  view.payload_offset = head.size();
  view.payload_size = payload_len;
  const uint64_t expected =
      version == kFrameVersion
          ? FrameChecksum(payload.data(), payload.size())
          : Checksum64(payload.data(), payload.size());
  if (expected != checksum) {
    telemetry::Count("wire.checksum_failure");
    return Status::InvalidArgument("wire frame: checksum mismatch");
  }
  return view;
}

}  // namespace

StatusOr<FrameView> VerifyFrameParts(std::span<const uint8_t> head,
                                     std::span<const uint8_t> payload) {
  const bool telem = telemetry::Telemetry::Current()->enabled();
  if (!telem) return VerifyFramePartsImpl(head, payload);
  const uint64_t t0 = telemetry::Telemetry::WallNowNs();
  StatusOr<FrameView> result = VerifyFramePartsImpl(head, payload);
  telemetry::Observe("wire.decode_ns", telemetry::Telemetry::WallNowNs() - t0);
  telemetry::Count("wire.frames_decoded");
  if (!result.ok()) telemetry::Count("wire.decode_failure");
  return result;
}

StatusOr<FrameView> VerifyFrame(const uint8_t* data, size_t size) {
  // Split after the tag the header announces (or keep a short buffer
  // whole, which fails as a truncated header).
  const std::span<const uint8_t> frame(data, size);
  size_t head = size;
  if (size >= kFrameHeaderBytes) {
    head = std::min(size, FrameBytes(ReadPod<uint16_t>(data + 6), 0));
  }
  return VerifyFrameParts(frame.first(head), frame.subspan(head));
}

StatusOr<Frame> DecodeFrame(const uint8_t* data, size_t size) {
  DS_ASSIGN_OR_RETURN(FrameView view, VerifyFrame(data, size));
  Frame frame;
  frame.tag = std::string(view.tag);
  frame.from = view.from;
  frame.to = view.to;
  frame.attempt = view.attempt;
  const uint8_t* payload = data + view.payload_offset;
  frame.payload.assign(payload, payload + view.payload_size);
  return frame;
}

}  // namespace wire
}  // namespace distsketch
