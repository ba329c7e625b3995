#include "dist/fault_injection.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "telemetry/span.h"
#include "wire/checksum.h"
#include "wire/frame.h"

namespace distsketch {
namespace {

uint64_t PayloadChecksum(const wire::Message& msg) {
  return msg.payload_checksum
             ? *msg.payload_checksum
             : wire::FrameChecksum(msg.payload.data(), msg.payload.size());
}

// The receiver's check of a clean attempt: the frame's header and tag are
// encoded into `head`, and every VerifyFrame check runs over them plus
// the sender's payload where it lies (the checksum is recomputed over
// those bytes), so the delivery can be a view of the sender's payload.
void VerifyCleanAttempt(const wire::Message& msg, int from, int to,
                        int attempt, uint64_t payload_checksum,
                        std::vector<uint8_t>* head) {
  wire::EncodeFrameHeadInto(msg.tag, from, to, static_cast<uint32_t>(attempt),
                            msg.payload.size(), payload_checksum, head);
  DS_CHECK(wire::VerifyFrameParts(*head, msg.payload).ok());
}

}  // namespace

bool ServerFaultProfile::CanFault() const {
  return drop_prob > 0.0 || duplicate_prob > 0.0 || truncate_prob > 0.0 ||
         corrupt_prob > 0.0 || transient_fail_prob > 0.0 ||
         die_at_time != kNeverDies;
}

const ServerFaultProfile& FaultConfig::ProfileFor(int server) const {
  auto it = per_server.find(server);
  return it == per_server.end() ? default_profile : it->second;
}

bool FaultConfig::CanFault() const {
  if (default_profile.CanFault()) return true;
  for (const auto& [id, profile] : per_server) {
    if (profile.CanFault()) return true;
  }
  return false;
}

std::string_view FaultEventKindToString(FaultEventKind kind) {
  switch (kind) {
    case FaultEventKind::kDelivered:
      return "delivered";
    case FaultEventKind::kDropped:
      return "dropped";
    case FaultEventKind::kTruncated:
      return "truncated";
    case FaultEventKind::kDuplicated:
      return "duplicated";
    case FaultEventKind::kStalled:
      return "stalled";
    case FaultEventKind::kDead:
      return "dead";
    case FaultEventKind::kBackoff:
      return "backoff";
    case FaultEventKind::kGaveUp:
      return "gave_up";
    case FaultEventKind::kCorrupted:
      return "corrupted";
    case FaultEventKind::kNak:
      return "nak";
  }
  return "unknown";
}

FaultInjector::FaultInjector(FaultConfig config) : config_(std::move(config)) {
  DS_CHECK(config_.max_retries >= 0);
  DS_CHECK(config_.timeout >= 0.0);
}

void FaultInjector::Reset() {
  clock_.Reset();
  server_rngs_.clear();
  events_.clear();
  lost_.clear();
}

Rng& FaultInjector::RngFor(int server) {
  auto it = server_rngs_.find(server);
  if (it == server_rngs_.end()) {
    // Stream ids offset by 1 so server 0 does not collapse onto the root
    // seed's own stream.
    const uint64_t stream = static_cast<uint64_t>(server) + 1;
    it = server_rngs_
             .emplace(server, Rng(Rng::DeriveSeed(config_.seed, stream)))
             .first;
  }
  return it->second;
}

bool FaultInjector::IsLost(int server) const {
  return std::find(lost_.begin(), lost_.end(), server) != lost_.end();
}

void FaultInjector::AddEvent(FaultEventKind kind, int from, int to,
                             std::string_view tag, int attempt,
                             uint64_t words) {
  FaultEvent e;
  e.time = clock_.Now();
  e.kind = kind;
  e.from = from;
  e.to = to;
  e.tag = std::string(tag);
  e.attempt = attempt;
  e.words = words;
  events_.push_back(std::move(e));

  // Fault-plan activity surfaces on the enclosing comm span (opened by
  // Cluster::Send) as instant events plus per-kind counters.
  if (telemetry::Telemetry::Current()->enabled()) {
    const std::string_view name = FaultEventKindToString(kind);
    telemetry::Count(std::string("fault.") + std::string(name));
    telemetry::AddSpanEvent(std::string("fault/") + std::string(name));
    telemetry::AddSpanEventAttr("attempt", static_cast<uint64_t>(attempt));
    if (words > 0) telemetry::AddSpanEventAttr("words", words);
  }
}

void FaultInjector::MeterAttempt(CommLog& log, int from, int to,
                                 std::string_view tag, uint64_t words,
                                 uint64_t bits, uint64_t wire_bytes,
                                 int attempt, bool truncated, bool duplicate,
                                 bool corrupted) {
  MessageRecord rec;
  rec.from = from;
  rec.to = to;
  rec.tag = std::string(tag);
  rec.words = words;
  rec.bits = bits;
  rec.wire_bytes = wire_bytes;
  rec.attempt = attempt;
  rec.truncated = truncated;
  rec.duplicate = duplicate;
  rec.corrupted = corrupted;
  rec.time = clock_.Now();
  log.RecordDetailed(std::move(rec));
}

void FaultInjector::MeterNak(CommLog& log, int from, int to,
                             std::string_view tag, int attempt,
                             SendOutcome& out) {
  // The NAK is a real control frame flowing receiver -> sender: empty
  // payload, the rejected message's tag, the rejected attempt index. It
  // piggybacks on the round trip the sender is already waiting out, so
  // no extra virtual latency is charged. Only its size is metered.
  constexpr size_t kNakBytes =
      wire::FrameBytes(std::string_view("nak").size(), 0);

  MessageRecord rec;
  rec.from = to;
  rec.to = from;
  rec.tag = std::string(tag);
  rec.words = 0;
  rec.bits = 0;
  rec.wire_bytes = kNakBytes;
  rec.attempt = attempt;
  rec.control = true;
  rec.time = clock_.Now();
  log.RecordDetailed(std::move(rec));
  out.control_bytes += kNakBytes;
  AddEvent(FaultEventKind::kNak, to, from, tag, attempt, 0);
}

SendOutcome FaultInjector::Send(CommLog& log, int from, int to,
                                const wire::Message& msg) {
  SendOutcome out;
  const std::string& tag = msg.tag;
  const uint64_t words = msg.words;
  const uint64_t bits = msg.bits;
  // The fault domain is the server endpoint of the channel; the
  // coordinator itself never fails in the paper's model. Server-to-server
  // links (tree aggregation) have two server endpoints: link faults and
  // loss-by-exhausted-retries are charged to the *sender* (its channel,
  // its RNG stream), while the *receiver* can additionally be dead — the
  // interior-node-death case the merge trees re-parent around.
  const int server = (from == kCoordinator) ? to : from;
  const bool server_receiver = (from != kCoordinator && to != kCoordinator);
  if (IsLost(server) || (server_receiver && IsLost(to))) {
    out.server_lost = true;
    return out;
  }
  const ServerFaultProfile& profile = config_.ProfileFor(server);
  Rng& rng = RngFor(server);
  bool receiver_dead = false;
  // The frame checksum covers the payload only, so every attempt carries
  // the same value. A clean attempt encodes only its header and tag into
  // `head`; `mangled` holds a whole frame, built only for an attempt the
  // network truncates or corrupts.
  const uint64_t payload_checksum = PayloadChecksum(msg);
  const size_t frame_bytes = wire::FrameBytes(tag.size(), msg.payload.size());
  std::vector<uint8_t> head;
  std::vector<uint8_t> mangled;

  for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
    // Retry attempts get their own retransmit-phase span (nested inside
    // the enclosing comm span): run reports bucket recovery time
    // separately from first-attempt transfer time.
    std::optional<telemetry::Span> retry_span;
    if (attempt > 0) {
      retry_span.emplace("net/retry", telemetry::Phase::kRetransmit);
      if (retry_span->active()) {
        retry_span->SetAttr("attempt", static_cast<int64_t>(attempt));
        retry_span->SetAttr("tag", tag);
      }
      const double delay = config_.backoff.DelayForRetry(attempt, rng);
      clock_.Advance(delay);
      AddEvent(FaultEventKind::kBackoff, from, to, tag, attempt, 0);
    }
    ++out.attempts;

    if (clock_.Expired(profile.die_at_time)) {
      // Dead peer: the attempt reaches nothing; the sender only learns
      // by timing out. Dead servers never recover, so stop retrying.
      AddEvent(FaultEventKind::kDead, from, to, tag, attempt, 0);
      clock_.Advance(config_.timeout);
      break;
    }
    if (server_receiver &&
        clock_.Expired(config_.ProfileFor(to).die_at_time)) {
      // Dead *receiver* on a server-to-server link: the frame reaches
      // nothing, the sender times out, and since death is permanent the
      // receiver — not the healthy sender — is the endpoint to declare
      // lost. The tree driver reacts by re-parenting the sender to the
      // receiver's nearest live ancestor and retransmitting.
      AddEvent(FaultEventKind::kDead, from, to, tag, attempt, 0);
      clock_.Advance(config_.timeout);
      receiver_dead = true;
      break;
    }
    if (rng.NextBernoulli(profile.transient_fail_prob)) {
      // Stall: nothing reaches the wire; the peer burns the timeout.
      AddEvent(FaultEventKind::kStalled, from, to, tag, attempt, 0);
      clock_.Advance(config_.timeout);
      continue;
    }

    // Each attempt's frame differs in its header (the attempt counter);
    // its size does not.
    if (rng.NextBernoulli(profile.drop_prob)) {
      // Whole payload lost in flight: the words crossed the wire and are
      // metered, but never acked.
      MeterAttempt(log, from, to, tag, words, bits, frame_bytes, attempt,
                   /*truncated=*/false, /*duplicate=*/false,
                   /*corrupted=*/false);
      out.wire_words += words;
      out.wire_bytes += frame_bytes;
      AddEvent(FaultEventKind::kDropped, from, to, tag, attempt, words);
      clock_.Advance(config_.timeout);
      continue;
    }
    if (words > 1 && rng.NextBernoulli(profile.truncate_prob)) {
      // Truncation: a strict byte prefix of the frame crosses the wire.
      // The word draw keeps the metering identical to the analytic
      // model; the byte cut is proportional, and the receiver detects
      // the mangled frame (short header or length mismatch) and NAKs.
      const uint64_t prefix = 1 + rng.NextUint64Below(words - 1);
      const uint64_t prefix_bits =
          bits == 0 ? 0 : std::max<uint64_t>(1, bits * prefix / words);
      const size_t kept = static_cast<size_t>(std::clamp<uint64_t>(
          frame_bytes * prefix / words, 1, frame_bytes - 1));
      wire::EncodeFrameInto(tag, from, to, static_cast<uint32_t>(attempt),
                            msg.payload, payload_checksum, &mangled);
      mangled.resize(kept);
      DS_CHECK(!wire::VerifyFrame(mangled.data(), mangled.size()).ok());
      MeterAttempt(log, from, to, tag, prefix, prefix_bits, kept, attempt,
                   /*truncated=*/true, /*duplicate=*/false,
                   /*corrupted=*/false);
      out.wire_words += prefix;
      out.wire_bytes += kept;
      AddEvent(FaultEventKind::kTruncated, from, to, tag, attempt, prefix);
      clock_.Advance(profile.latency);
      MeterNak(log, from, to, tag, attempt, out);
      continue;
    }
    if (!msg.payload.empty() && rng.NextBernoulli(profile.corrupt_prob)) {
      // Corruption: the full frame crosses the wire with one payload
      // byte flipped. The receiver's checksum verification catches it:
      // the frame CRC detects every error burst of up to 64 bits.
      const size_t off = wire::FrameBytes(tag.size(), 0) +
                         static_cast<size_t>(rng.NextUint64Below(
                             msg.payload.size()));
      const auto flip = static_cast<uint8_t>(1 + rng.NextUint64Below(255));
      wire::EncodeFrameInto(tag, from, to, static_cast<uint32_t>(attempt),
                            msg.payload, payload_checksum, &mangled);
      mangled[off] ^= flip;
      DS_CHECK(!wire::VerifyFrame(mangled.data(), mangled.size()).ok());
      MeterAttempt(log, from, to, tag, words, bits, frame_bytes, attempt,
                   /*truncated=*/false, /*duplicate=*/false,
                   /*corrupted=*/true);
      out.wire_words += words;
      out.wire_bytes += frame_bytes;
      AddEvent(FaultEventKind::kCorrupted, from, to, tag, attempt, words);
      clock_.Advance(profile.latency);
      MeterNak(log, from, to, tag, attempt, out);
      continue;
    }

    // Clean delivery: the receiver parses and checksum-verifies the
    // frame before acking.
    VerifyCleanAttempt(msg, from, to, attempt, payload_checksum, &head);
    double latency = profile.latency;
    if (profile.latency_jitter > 0.0) {
      latency *= 1.0 + profile.latency_jitter * rng.NextDouble();
    }
    MeterAttempt(log, from, to, tag, words, bits, frame_bytes, attempt,
                 /*truncated=*/false, /*duplicate=*/false,
                 /*corrupted=*/false);
    out.wire_words += words;
    out.wire_bytes += frame_bytes;
    clock_.Advance(latency);
    AddEvent(FaultEventKind::kDelivered, from, to, tag, attempt, words);
    if (rng.NextBernoulli(profile.duplicate_prob)) {
      // The network delivers a second copy; the receiver deduplicates,
      // so only the accounting sees it.
      MeterAttempt(log, from, to, tag, words, bits, frame_bytes, attempt,
                   /*truncated=*/false, /*duplicate=*/true,
                   /*corrupted=*/false);
      out.wire_words += words;
      out.wire_bytes += frame_bytes;
      AddEvent(FaultEventKind::kDuplicated, from, to, tag, attempt, words);
    }
    out.delivered = true;
    out.payload = msg.payload;
    return out;
  }

  AddEvent(FaultEventKind::kGaveUp, from, to, tag, out.attempts - 1, 0);
  lost_.push_back(receiver_dead ? to : server);
  out.server_lost = true;
  return out;
}

namespace {

inline void FnvMix(uint64_t& h, uint64_t v) {
  // FNV-1a over the 8 bytes of v.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

inline void FnvMixString(uint64_t& h, const std::string& s) {
  FnvMix(h, s.size());
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
}

inline uint64_t DoubleBits(double d) {
  uint64_t out;
  static_assert(sizeof(out) == sizeof(d));
  __builtin_memcpy(&out, &d, sizeof(out));
  return out;
}

}  // namespace

uint64_t TranscriptDigest(const CommLog& log, const FaultInjector* injector) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const MessageRecord& m : log.messages()) {
    FnvMix(h, static_cast<uint64_t>(static_cast<int64_t>(m.from)));
    FnvMix(h, static_cast<uint64_t>(static_cast<int64_t>(m.to)));
    FnvMixString(h, m.tag);
    FnvMix(h, m.words);
    FnvMix(h, m.bits);
    FnvMix(h, m.wire_bytes);
    FnvMix(h, static_cast<uint64_t>(m.round));
    FnvMix(h, static_cast<uint64_t>(m.attempt));
    FnvMix(h, (m.control ? 8u : 0u) | (m.corrupted ? 4u : 0u) |
                  (m.truncated ? 2u : 0u) | (m.duplicate ? 1u : 0u));
    FnvMix(h, DoubleBits(m.time));
  }
  if (injector != nullptr) {
    for (const FaultEvent& e : injector->events()) {
      FnvMix(h, DoubleBits(e.time));
      FnvMix(h, static_cast<uint64_t>(e.kind));
      FnvMix(h, static_cast<uint64_t>(static_cast<int64_t>(e.from)));
      FnvMix(h, static_cast<uint64_t>(static_cast<int64_t>(e.to)));
      FnvMixString(h, e.tag);
      FnvMix(h, static_cast<uint64_t>(e.attempt));
      FnvMix(h, e.words);
    }
    for (int id : injector->lost_servers()) {
      FnvMix(h, static_cast<uint64_t>(static_cast<int64_t>(id)));
    }
  }
  return h;
}

SendOutcome SendOverIdealWire(CommLog& log, int from, int to,
                              const wire::Message& msg) {
  std::vector<uint8_t> head;
  VerifyCleanAttempt(msg, from, to, /*attempt=*/0, PayloadChecksum(msg),
                     &head);
  const size_t frame_bytes =
      wire::FrameBytes(msg.tag.size(), msg.payload.size());
  log.Record(from, to, msg.tag, msg.words, msg.bits, frame_bytes);
  SendOutcome out;
  out.delivered = true;
  out.attempts = 1;
  out.wire_words = msg.words;
  out.wire_bytes = frame_bytes;
  out.payload = msg.payload;
  return out;
}

}  // namespace distsketch
