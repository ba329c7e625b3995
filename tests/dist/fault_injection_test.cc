#include "dist/fault_injection.h"

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dist/comm_log.h"
#include "dist/sim_clock.h"
#include "wire/message.h"

namespace distsketch {
namespace {

// Sends `words` zero-valued scalars as one real dense message, so the
// byte path is exercised; `bits` overrides the metered bit count as in
// CommLog::Record. Every message lives as long as the sender, so each
// outcome's delivered view stays valid.
class WordSender {
 public:
  explicit WordSender(FaultInjector& injector) : injector_(injector) {}

  SendOutcome Send(CommLog& log, int from, int to, std::string tag,
                   uint64_t words, uint64_t bits = 0) {
    wire::Message& msg = sent_.emplace_back(wire::ScalarsMessage(
        std::move(tag), std::vector<double>(words, 0.0)));
    msg.bits = bits;
    return injector_.Send(log, from, to, msg);
  }

 private:
  FaultInjector& injector_;
  std::deque<wire::Message> sent_;
};

// Checks the bucketing invariant on a log: every metered word is either a
// first-attempt word or a retransmit word.
void ExpectAccountingBalances(const CommLog& log) {
  const CommStats stats = log.Stats();
  EXPECT_EQ(stats.first_attempt_words + stats.retransmit_words,
            stats.total_words);
  uint64_t first = 0;
  uint64_t retrans = 0;
  for (const MessageRecord& m : log.messages()) {
    if (m.attempt == 0 && !m.duplicate) {
      first += m.words;
    } else {
      retrans += m.words;
    }
  }
  EXPECT_EQ(first, stats.first_attempt_words);
  EXPECT_EQ(retrans, stats.retransmit_words);
}

TEST(SimClockTest, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_DOUBLE_EQ(clock.Now(), 0.0);
  clock.Advance(1.5);
  EXPECT_DOUBLE_EQ(clock.Now(), 1.5);
  clock.Advance(0.0);
  EXPECT_DOUBLE_EQ(clock.Now(), 1.5);
  clock.AdvanceTo(3.0);
  EXPECT_DOUBLE_EQ(clock.Now(), 3.0);
  // AdvanceTo never goes backwards.
  clock.AdvanceTo(2.0);
  EXPECT_DOUBLE_EQ(clock.Now(), 3.0);
  EXPECT_TRUE(clock.Expired(3.0));
  EXPECT_FALSE(clock.Expired(3.1));
  clock.Reset();
  EXPECT_DOUBLE_EQ(clock.Now(), 0.0);
}

TEST(FaultConfigTest, CanFaultDetectsAnyNonIdealProfile) {
  FaultConfig config;
  EXPECT_FALSE(config.CanFault());
  // Latency alone is not a fault: it perturbs timestamps, not payloads.
  config.default_profile.latency = 5.0;
  config.default_profile.latency_jitter = 0.5;
  EXPECT_FALSE(config.CanFault());
  config.per_server[2].drop_prob = 0.5;
  EXPECT_TRUE(config.CanFault());

  FaultConfig dying;
  dying.default_profile.die_at_time = 10.0;
  EXPECT_TRUE(dying.CanFault());
}

TEST(FaultConfigTest, ProfileForUsesOverrides) {
  FaultConfig config;
  config.default_profile.drop_prob = 0.1;
  config.per_server[3].drop_prob = 0.9;
  EXPECT_DOUBLE_EQ(config.ProfileFor(0).drop_prob, 0.1);
  EXPECT_DOUBLE_EQ(config.ProfileFor(3).drop_prob, 0.9);
}

TEST(FaultInjectorTest, IdealConfigDeliversEverythingFirstTry) {
  FaultInjector injector{FaultConfig{}};
  WordSender sender(injector);
  CommLog log(64);
  log.BeginRound();
  for (int i = 0; i < 4; ++i) {
    const SendOutcome out = sender.Send(log, i, kCoordinator, "payload", 10);
    EXPECT_TRUE(out.delivered);
    EXPECT_EQ(out.attempts, 1);
    EXPECT_EQ(out.wire_words, 10u);
    EXPECT_FALSE(out.server_lost);
  }
  EXPECT_EQ(log.messages().size(), 4u);
  for (const MessageRecord& m : log.messages()) {
    EXPECT_EQ(m.attempt, 0);
    EXPECT_FALSE(m.truncated);
    EXPECT_FALSE(m.duplicate);
  }
  // Default latency 1.0 per delivery.
  EXPECT_DOUBLE_EQ(injector.clock().Now(), 4.0);
  EXPECT_TRUE(injector.lost_servers().empty());
  ExpectAccountingBalances(log);
}

TEST(FaultInjectorTest, CertainDropExhaustsRetriesAndLosesServer) {
  FaultConfig config;
  config.default_profile.drop_prob = 1.0;
  config.max_retries = 3;
  FaultInjector injector(config);
  WordSender sender(injector);
  CommLog log(64);
  log.BeginRound();

  const SendOutcome out = sender.Send(log, 0, kCoordinator, "sketch", 7);
  EXPECT_FALSE(out.delivered);
  EXPECT_TRUE(out.server_lost);
  EXPECT_EQ(out.attempts, 4);  // first try + 3 retries
  // Every attempt's words crossed the wire before being lost.
  EXPECT_EQ(out.wire_words, 4u * 7u);
  EXPECT_TRUE(injector.IsLost(0));

  const CommStats stats = log.Stats();
  EXPECT_EQ(stats.total_words, 28u);
  EXPECT_EQ(stats.first_attempt_words, 7u);
  EXPECT_EQ(stats.retransmit_words, 21u);
  EXPECT_EQ(stats.num_retransmits, 3u);
  ExpectAccountingBalances(log);

  // A lost server fails instantly, without wire traffic or events.
  const size_t events_before = injector.events().size();
  const SendOutcome again = sender.Send(log, 0, kCoordinator, "more", 5);
  EXPECT_FALSE(again.delivered);
  EXPECT_TRUE(again.server_lost);
  EXPECT_EQ(again.attempts, 0);
  EXPECT_EQ(again.wire_words, 0u);
  EXPECT_EQ(injector.events().size(), events_before);
  EXPECT_EQ(stats.total_words, log.Stats().total_words);
}

TEST(FaultInjectorTest, LossIsPerServerNotGlobal) {
  FaultConfig config;
  config.per_server[0].drop_prob = 1.0;
  config.max_retries = 1;
  FaultInjector injector(config);
  WordSender sender(injector);
  CommLog log(64);
  log.BeginRound();
  EXPECT_FALSE(sender.Send(log, 0, kCoordinator, "x", 3).delivered);
  EXPECT_TRUE(sender.Send(log, 1, kCoordinator, "x", 3).delivered);
  EXPECT_TRUE(injector.IsLost(0));
  EXPECT_FALSE(injector.IsLost(1));
}

TEST(FaultInjectorTest, BroadcastLegFaultsTheReceivingServer) {
  FaultConfig config;
  config.per_server[2].drop_prob = 1.0;
  config.max_retries = 0;
  FaultInjector injector(config);
  WordSender sender(injector);
  CommLog log(64);
  log.BeginRound();
  // Coordinator -> server 2: the server endpoint is the receiver.
  const SendOutcome out = sender.Send(log, kCoordinator, 2, "bcast", 1);
  EXPECT_FALSE(out.delivered);
  EXPECT_TRUE(injector.IsLost(2));
}

TEST(FaultInjectorTest, TruncationMetersStrictPrefixAndRetries) {
  FaultConfig config;
  config.default_profile.truncate_prob = 1.0;
  config.max_retries = 2;
  FaultInjector injector(config);
  WordSender sender(injector);
  CommLog log(64);
  log.BeginRound();

  const uint64_t words = 20;
  const SendOutcome out =
      sender.Send(log, 0, kCoordinator, "sketch", words, words * 64);
  EXPECT_FALSE(out.delivered);
  EXPECT_TRUE(out.server_lost);
  // 3 truncated payload attempts, each answered by a NAK control record.
  ASSERT_EQ(log.messages().size(), 6u);
  size_t truncated_records = 0;
  size_t nak_records = 0;
  for (const MessageRecord& m : log.messages()) {
    if (m.control) {
      ++nak_records;
      EXPECT_EQ(m.words, 0u);
      EXPECT_GT(m.wire_bytes, 0u);
      continue;
    }
    ++truncated_records;
    EXPECT_TRUE(m.truncated);
    EXPECT_GE(m.words, 1u);
    EXPECT_LT(m.words, words);  // strict prefix
    EXPECT_GE(m.bits, 1u);
    EXPECT_LT(m.bits, words * 64);
  }
  EXPECT_EQ(truncated_records, 3u);
  EXPECT_EQ(nak_records, 3u);
  ExpectAccountingBalances(log);
}

TEST(FaultInjectorTest, OneWordMessagesCannotBeTruncated) {
  FaultConfig config;
  config.default_profile.truncate_prob = 1.0;
  FaultInjector injector(config);
  WordSender sender(injector);
  CommLog log(64);
  log.BeginRound();
  const SendOutcome out = sender.Send(log, 0, kCoordinator, "mass", 1);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.attempts, 1);
  ASSERT_EQ(log.messages().size(), 1u);
  EXPECT_FALSE(log.messages()[0].truncated);
}

TEST(FaultInjectorTest, DuplicationDeliversButMetersExtraCopy) {
  FaultConfig config;
  config.default_profile.duplicate_prob = 1.0;
  FaultInjector injector(config);
  WordSender sender(injector);
  CommLog log(64);
  log.BeginRound();
  const SendOutcome out = sender.Send(log, 1, kCoordinator, "rows", 6);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.wire_words, 12u);
  ASSERT_EQ(log.messages().size(), 2u);
  EXPECT_FALSE(log.messages()[0].duplicate);
  EXPECT_TRUE(log.messages()[1].duplicate);
  const CommStats stats = log.Stats();
  EXPECT_EQ(stats.first_attempt_words, 6u);
  EXPECT_EQ(stats.retransmit_words, 6u);
  EXPECT_EQ(stats.num_retransmits, 1u);
  ExpectAccountingBalances(log);
}

TEST(FaultInjectorTest, TransientStallSendsNothingAndBurnsTimeout) {
  FaultConfig config;
  config.default_profile.transient_fail_prob = 1.0;
  config.max_retries = 1;
  config.timeout = 4.0;
  config.backoff.base_delay = 1.0;
  FaultInjector injector(config);
  WordSender sender(injector);
  CommLog log(64);
  log.BeginRound();
  const SendOutcome out = sender.Send(log, 0, kCoordinator, "x", 9);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_EQ(out.wire_words, 0u);
  EXPECT_TRUE(log.messages().empty());
  // Two timeouts plus one backoff delay of 1.0.
  EXPECT_DOUBLE_EQ(injector.clock().Now(), 2.0 * 4.0 + 1.0);
}

TEST(FaultInjectorTest, DeadServerStopsRetriesImmediately) {
  FaultConfig config;
  config.default_profile.die_at_time = 0.0;
  config.max_retries = 5;
  config.timeout = 2.0;
  FaultInjector injector(config);
  WordSender sender(injector);
  CommLog log(64);
  log.BeginRound();
  const SendOutcome out = sender.Send(log, 0, kCoordinator, "x", 3);
  EXPECT_FALSE(out.delivered);
  EXPECT_TRUE(out.server_lost);
  // Dead peers never recover, so there is exactly one (futile) attempt.
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.wire_words, 0u);
  EXPECT_TRUE(log.messages().empty());
  EXPECT_TRUE(injector.IsLost(0));
}

TEST(FaultInjectorTest, ServerDiesMidRun) {
  FaultConfig config;
  // Default latency 1.0: the first delivery moves the clock to 1.0,
  // past the death time, so the second send finds a dead peer.
  config.default_profile.die_at_time = 0.5;
  config.max_retries = 0;
  FaultInjector injector(config);
  WordSender sender(injector);
  CommLog log(64);
  log.BeginRound();
  EXPECT_TRUE(sender.Send(log, 0, kCoordinator, "first", 2).delivered);
  const SendOutcome out = sender.Send(log, 0, kCoordinator, "second", 2);
  EXPECT_FALSE(out.delivered);
  EXPECT_TRUE(out.server_lost);
  EXPECT_EQ(log.messages().size(), 1u);
}

TEST(FaultInjectorTest, BackoffDelaysFollowThePolicy) {
  FaultConfig config;
  config.default_profile.drop_prob = 1.0;
  config.max_retries = 3;
  config.timeout = 10.0;
  config.backoff = BackoffPolicy{.base_delay = 1.0, .multiplier = 2.0,
                                 .max_delay = 64.0};
  FaultInjector injector(config);
  WordSender sender(injector);
  CommLog log(64);
  log.BeginRound();
  sender.Send(log, 0, kCoordinator, "x", 2);
  // 4 attempts * timeout + backoffs 1 + 2 + 4.
  EXPECT_DOUBLE_EQ(injector.clock().Now(), 4.0 * 10.0 + 1.0 + 2.0 + 4.0);
  int backoffs = 0;
  for (const FaultEvent& e : injector.events()) {
    if (e.kind == FaultEventKind::kBackoff) ++backoffs;
  }
  EXPECT_EQ(backoffs, 3);
}

// Drives a moderately faulty traffic pattern and returns the digest.
uint64_t RunTrafficDigest(uint64_t seed) {
  FaultConfig config;
  config.default_profile.drop_prob = 0.3;
  config.default_profile.duplicate_prob = 0.2;
  config.default_profile.truncate_prob = 0.2;
  config.default_profile.transient_fail_prob = 0.1;
  config.default_profile.latency_jitter = 0.5;
  config.seed = seed;
  FaultInjector injector(config);
  WordSender sender(injector);
  CommLog log(64);
  log.BeginRound();
  for (int i = 0; i < 8; ++i) {
    sender.Send(log, i % 4, kCoordinator, "up", 12);
  }
  log.BeginRound();
  for (int i = 0; i < 4; ++i) {
    sender.Send(log, kCoordinator, i, "down", 3);
  }
  return TranscriptDigest(log, &injector);
}

TEST(FaultInjectorTest, IdenticalSeedGivesIdenticalTranscript) {
  EXPECT_EQ(RunTrafficDigest(99), RunTrafficDigest(99));
  EXPECT_NE(RunTrafficDigest(99), RunTrafficDigest(100));
}

TEST(FaultInjectorTest, ResetReplaysTheIdenticalSchedule) {
  FaultConfig config;
  config.default_profile.drop_prob = 0.4;
  config.default_profile.duplicate_prob = 0.3;
  config.seed = 5;
  FaultInjector injector(config);
  WordSender sender(injector);

  CommLog log_a(64);
  log_a.BeginRound();
  for (int i = 0; i < 6; ++i) sender.Send(log_a, i % 3, kCoordinator, "m", 9);
  const uint64_t digest_a = TranscriptDigest(log_a, &injector);

  injector.Reset();
  EXPECT_DOUBLE_EQ(injector.clock().Now(), 0.0);
  EXPECT_TRUE(injector.events().empty());
  EXPECT_TRUE(injector.lost_servers().empty());

  CommLog log_b(64);
  log_b.BeginRound();
  for (int i = 0; i < 6; ++i) sender.Send(log_b, i % 3, kCoordinator, "m", 9);
  EXPECT_EQ(digest_a, TranscriptDigest(log_b, &injector));
}

TEST(TranscriptDigestTest, SensitiveToEveryMeteredField) {
  CommLog base(64);
  base.BeginRound();
  base.Record(0, kCoordinator, "a", 5);

  CommLog other_words(64);
  other_words.BeginRound();
  other_words.Record(0, kCoordinator, "a", 6);

  CommLog other_tag(64);
  other_tag.BeginRound();
  other_tag.Record(0, kCoordinator, "b", 5);

  const uint64_t h = TranscriptDigest(base, nullptr);
  EXPECT_NE(h, TranscriptDigest(other_words, nullptr));
  EXPECT_NE(h, TranscriptDigest(other_tag, nullptr));

  CommLog same(64);
  same.BeginRound();
  same.Record(0, kCoordinator, "a", 5);
  EXPECT_EQ(h, TranscriptDigest(same, nullptr));
}

}  // namespace
}  // namespace distsketch
