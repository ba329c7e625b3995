#ifndef DISTSKETCH_DIST_FAULT_INJECTION_H_
#define DISTSKETCH_DIST_FAULT_INJECTION_H_

#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/backoff.h"
#include "common/rng.h"
#include "common/status.h"
#include "dist/comm_log.h"
#include "dist/sim_clock.h"
#include "wire/message.h"

namespace distsketch {

/// Sentinel for `ServerFaultProfile::die_at_time`: the server never dies.
inline constexpr double kNeverDies = std::numeric_limits<double>::infinity();

/// Fault behaviour of one server's channel to the coordinator. All
/// probabilities are per wire attempt and are evaluated against the
/// injector's seeded RNG, so a (config, seed) pair fixes the entire
/// fault schedule.
struct ServerFaultProfile {
  /// Chance an attempt's payload is lost after being metered on the wire.
  double drop_prob = 0.0;
  /// Chance a delivered message is delivered a second time (the receiver
  /// deduplicates; the extra copy is metered as retransmitted words).
  double duplicate_prob = 0.0;
  /// Chance an attempt's payload is cut short on the wire; the truncated
  /// prefix is metered, the receiver discards and the sender retries.
  double truncate_prob = 0.0;
  /// Chance a payload byte is flipped in flight. The full frame crosses
  /// the wire (and is metered), the receiver's checksum verification
  /// fails, it discards and NAKs, and the sender retries.
  double corrupt_prob = 0.0;
  /// Chance an attempt finds the server stalled: nothing reaches the
  /// wire and the peer burns the per-message timeout.
  double transient_fail_prob = 0.0;
  /// Virtual time a delivered message spends in flight.
  double latency = 1.0;
  /// Latency jitter fraction: in-flight time is latency * (1 + jitter*u),
  /// u uniform in [0, 1).
  double latency_jitter = 0.0;
  /// Virtual time at which the server fails permanently (kNeverDies =
  /// never). Attempts at or after this time reach nothing.
  double die_at_time = kNeverDies;

  /// True iff this profile can ever perturb a run.
  bool CanFault() const;
};

/// Full fault plan for a simulated cluster run.
struct FaultConfig {
  /// Profile applied to servers without a per-server override.
  ServerFaultProfile default_profile;
  /// Per-server overrides, keyed by server id.
  std::map<int, ServerFaultProfile> per_server;
  /// Retries after the first failed attempt before the peer is declared
  /// permanently lost (total wire attempts = max_retries + 1).
  int max_retries = 5;
  /// Virtual time a failed attempt costs the sender (waiting for the ack
  /// that never comes).
  double timeout = 8.0;
  /// Backoff schedule between attempts.
  BackoffPolicy backoff;
  /// Root seed of the injector's RNG streams (decorrelated from protocol
  /// seeds; protocols draw from their own Rng instances). Each server's
  /// channel draws from its own stream derived from (seed, server id), so
  /// one server's fault schedule is independent of how sends to other
  /// servers interleave with it — the property that lets protocols
  /// reorder or parallelize per-server computation without perturbing the
  /// fault plan.
  uint64_t seed = 0;

  const ServerFaultProfile& ProfileFor(int server) const;
  /// True iff any profile can fault; protocols consult this (through
  /// Cluster::fault_mode()) to decide whether to run the extra
  /// mass-accounting messages, so an all-zero config reproduces the
  /// fault-free wire format bit for bit.
  bool CanFault() const;
};

/// What the simulated network did to one wire attempt.
enum class FaultEventKind : uint8_t {
  kDelivered = 0,
  kDropped = 1,
  kTruncated = 2,
  kDuplicated = 3,
  kStalled = 4,
  kDead = 5,
  kBackoff = 6,
  kGaveUp = 7,
  kCorrupted = 8,
  /// The receiver rejected a mangled frame and sent a NAK control frame
  /// back (metered as a control record, not payload words).
  kNak = 9,
};

std::string_view FaultEventKindToString(FaultEventKind kind);

/// One entry of the fault transcript (paired with the CommLog message
/// trace it fully describes a simulated run).
struct FaultEvent {
  double time = 0.0;
  FaultEventKind kind = FaultEventKind::kDelivered;
  int from = kCoordinator;
  int to = kCoordinator;
  std::string tag;
  int attempt = 0;
  /// Words metered for this event (0 for stalls/backoffs/dead peers).
  uint64_t words = 0;
};

/// Result of pushing one logical message through the simulated network.
struct SendOutcome {
  /// True iff the payload reached the receiver intact.
  bool delivered = false;
  /// Wire attempts made (including stalled ones that sent nothing).
  int attempts = 0;
  /// Total words metered across all attempts and duplicates.
  uint64_t wire_words = 0;
  /// Total encoded frame bytes metered across all attempts/duplicates.
  uint64_t wire_bytes = 0;
  /// Bytes of NAK control frames the receiver sent back (metered in the
  /// CommLog as control records, separate from payload wire_bytes).
  uint64_t control_bytes = 0;
  /// True iff the server endpoint is (now) declared permanently lost.
  bool server_lost = false;
  /// On delivery: a view of the delivered payload bytes, which are the
  /// sent message's own `payload`. The clean attempt was verified over
  /// them in place (wire::VerifyFrameParts), so the receiver decodes
  /// exactly the bytes every frame check ran on, and nothing copied them.
  /// Valid while the sent message lives. Empty when not delivered.
  std::span<const uint8_t> payload;
};

/// The deterministic simulated network: wraps a CommLog and injects the
/// configured faults into every transfer, charging latency, timeouts and
/// exponential backoff against a virtual SimClock. Retries are handled
/// here — callers see one logical Send per message and an outcome.
///
/// Loss semantics: when a logical send still fails after max_retries
/// retries, the *server* endpoint of the channel (the sender for uplink,
/// the receiver for a coordinator broadcast leg) is declared permanently
/// lost, and every later send touching it fails immediately. Protocols
/// react by entering degraded mode (see DegradedModeInfo in protocol.h).
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config);

  /// Starts a fresh simulation: clock to 0, RNG re-seeded, lost-server
  /// set and event transcript cleared. Cluster::ResetLog() calls this so
  /// every protocol Run replays the identical fault schedule.
  void Reset();

  /// Simulates one logical message, metering every wire attempt into
  /// `log` at its encoded frame size. The payload checksum is taken from
  /// the message or computed once. Only an attempt the network mangles is
  /// built as a whole frame (one reused buffer): truncation cuts it,
  /// corruption flips a payload byte, and the receiver's VerifyFrame must
  /// reject it; the attempt is NAKed and the sender retries. A clean
  /// attempt encodes just its header and tag and runs every receiver
  /// check over them plus the sender's payload in place
  /// (VerifyFrameParts); the delivery is a view of that payload, valid
  /// while `msg` lives.
  SendOutcome Send(CommLog& log, int from, int to, const wire::Message& msg);

  /// True iff `server` has been declared permanently lost.
  bool IsLost(int server) const;

  /// Ids of permanently lost servers, in loss order.
  const std::vector<int>& lost_servers() const { return lost_; }

  /// Fault transcript (in simulation order).
  const std::vector<FaultEvent>& events() const { return events_; }

  const SimClock& clock() const { return clock_; }
  const FaultConfig& config() const { return config_; }

 private:
  void AddEvent(FaultEventKind kind, int from, int to,
                std::string_view tag, int attempt, uint64_t words);
  void MeterAttempt(CommLog& log, int from, int to, std::string_view tag,
                    uint64_t words, uint64_t bits, uint64_t wire_bytes,
                    int attempt, bool truncated, bool duplicate,
                    bool corrupted);
  /// Meters the receiver's NAK for a rejected attempt: an empty-payload
  /// control frame tagged "nak" from `to` back to `from` (metered at its
  /// encoded size), logged with control=true.
  void MeterNak(CommLog& log, int from, int to, std::string_view tag,
                int attempt, SendOutcome& out);
  // The per-server fault stream, lazily seeded from (config seed, id).
  Rng& RngFor(int server);

  FaultConfig config_;
  SimClock clock_;
  std::map<int, Rng> server_rngs_;
  std::vector<FaultEvent> events_;
  std::vector<int> lost_;
};

/// Order-sensitive FNV-1a digest of a run's transcript: every metered
/// message (endpoints, tag, words, bits, wire bytes, round, attempt,
/// flags) and every fault event are folded in. Two runs with identical
/// (data, config, seed) must produce identical digests — the determinism
/// property the chaos sweep asserts. `injector` may be null (fault-free
/// run).
uint64_t TranscriptDigest(const CommLog& log, const FaultInjector* injector);

/// Pushes one message over an ideal (fault-free) wire: meters the frame
/// once at its encoded size, runs every receiver check over the encoded
/// header and tag plus the sender's payload in place, and hands the
/// receiver a view of that payload (valid while `msg` lives). Measured
/// wire bytes, verification and the receiver-side decode path are
/// identical with and without faults.
SendOutcome SendOverIdealWire(CommLog& log, int from, int to,
                              const wire::Message& msg);

}  // namespace distsketch

#endif  // DISTSKETCH_DIST_FAULT_INJECTION_H_
