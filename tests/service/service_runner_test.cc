// The ServiceRunner's request queue: submission-order answers, per-client
// order under concurrent producers, typed kOverloaded shedding at the
// per-client capacity, a destroyed runner sending and answering nothing,
// drains that pop submits accepted while they run, answers and
// transcripts independent of the thread-pool width and pinned under a
// seeded fault plan, zero-copy request delivery, and response metering
// through the same spans and counters as the request leg.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "service/service_runner.h"
#include "service/service_wire.h"
#include "telemetry/span.h"
#include "telemetry/telemetry.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

constexpr size_t kDim = 8;

Matrix Rows(size_t n, uint64_t seed) {
  return GenerateGaussian(n, kDim, 1.0, seed);
}

ServiceRunnerOptions SmallRunner() {
  ServiceRunnerOptions options;
  options.service = {.tenant = {.dim = kDim, .eps = 0.25, .epoch_rows = 8},
                     .max_tenants = 8,
                     .max_resident = 8};
  return options;
}

std::unique_ptr<ServiceRunner> MakeRunner(const ServiceRunnerOptions& o) {
  auto runner = ServiceRunner::Create(o);
  DS_CHECK(runner.ok());
  return std::move(*runner);
}

std::string Attr(const telemetry::SpanRecord& span, std::string_view key) {
  for (const telemetry::SpanAttr& a : span.attrs) {
    if (a.key == key) return a.value;
  }
  return "0";
}

TEST(ServiceRunner, CreateRejectsZeroQueueCapacity) {
  ServiceRunnerOptions options = SmallRunner();
  options.client_queue_capacity = 0;
  EXPECT_EQ(ServiceRunner::Create(options).status().code(),
            StatusCode::kInvalidArgument);
}

// Requests cross the wire and are answered in submission order, across
// clients.
TEST(ServiceRunner, AnswersInSubmissionOrder) {
  auto runner = MakeRunner(SmallRunner());
  std::vector<int> answered;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(runner
                    ->SubmitIngest(i % 4, "t" + std::to_string(i % 4),
                                   Rows(1, 10 + i),
                                   [&answered, i](const ServiceResponse& r) {
                                     EXPECT_EQ(r.code, StatusCode::kOk);
                                     answered.push_back(i);
                                   })
                    .ok());
  }
  EXPECT_EQ(runner->Drain(), 20u);
  ASSERT_EQ(answered.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(answered[i], i);
  // The request legs were sent first, in submission order.
  const std::vector<MessageRecord>& sent = runner->log().messages();
  ASSERT_EQ(sent.size(), 40u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(sent[i].from, i % 4);
    EXPECT_EQ(sent[i].to, kCoordinator);
  }
}

// Producers submit while the test thread keeps draining. The global
// order interleaves arbitrarily, but each client's requests are answered
// in its own submission order, each exactly once.
TEST(ServiceRunner, ConcurrentProducersAreAnsweredInPerClientOrder) {
  constexpr int kProducers = 6;
  constexpr int kPerProducer = 40;
  ServiceRunnerOptions options = SmallRunner();
  options.client_queue_capacity = kPerProducer;
  auto runner = MakeRunner(options);
  std::vector<std::pair<int, int>> answered;  // (client, index)
  std::atomic<int> running{kProducers};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        auto cb = [&answered, p, i](const ServiceResponse&) {
          answered.push_back({p, i});
        };
        EXPECT_TRUE(runner
                        ->SubmitIngest(p, "t" + std::to_string(p),
                                       Rows(1, 100 * p + i), cb)
                        .ok());
      }
      --running;
    });
  }
  size_t drained = 0;
  while (running.load() > 0) drained += runner->Drain();
  for (auto& t : producers) t.join();
  drained += runner->Drain();
  EXPECT_EQ(drained, size_t{kProducers * kPerProducer});
  ASSERT_EQ(answered.size(), size_t{kProducers * kPerProducer});
  std::vector<int> next(kProducers, 0);
  for (const auto& [client, i] : answered) {
    EXPECT_EQ(i, next[client]) << "client " << client << " reordered";
    next[client] = i + 1;
  }
  EXPECT_EQ(runner->accepted(), runner->responded());
}

TEST(ServiceRunner, ShedsAtClientCapacityAndAcceptsAgainOnceDrained) {
  ServiceRunnerOptions options = SmallRunner();
  options.client_queue_capacity = 3;
  auto runner = MakeRunner(options);
  int callbacks = 0;
  auto count = [&callbacks](const ServiceResponse&) { ++callbacks; };
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(runner->SubmitIngest(1, "a", Rows(1, i), count).ok());
  }
  // Client 1 is full: the fourth submit sheds, typed, with no callback.
  EXPECT_EQ(runner->SubmitIngest(1, "a", Rows(1, 3), count).code(),
            StatusCode::kOverloaded);
  // Another client still has room.
  EXPECT_TRUE(runner->SubmitIngest(2, "b", Rows(1, 4), count).ok());
  EXPECT_EQ(runner->accepted(), 4u);
  EXPECT_EQ(runner->Drain(), 4u);
  EXPECT_EQ(callbacks, 4);
  // Drained: client 1 accepts again.
  EXPECT_TRUE(runner->SubmitIngest(1, "a", Rows(1, 5), count).ok());
  EXPECT_EQ(runner->Drain(), 1u);
  EXPECT_EQ(callbacks, 5);
}

// Only Drain sends: a runner destroyed with a queue puts nothing on the
// wire and answers nothing.
TEST(ServiceRunner, DestroyedRunnerSendsAndAnswersNothing) {
  telemetry::Telemetry telem;
  telemetry::ScopedTelemetry scope(telem);
  int callbacks = 0;
  {
    auto runner = MakeRunner(SmallRunner());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(runner
                      ->SubmitIngest(i, "a", Rows(2, i),
                                     [&callbacks](const ServiceResponse&) {
                                       ++callbacks;
                                     })
                      .ok());
    }
  }
  EXPECT_EQ(callbacks, 0);
  EXPECT_EQ(telem.metrics().CounterValue("comm.messages"), 0);
  for (const telemetry::SpanRecord& rec : telem.Spans()) {
    EXPECT_NE(rec.name, "cluster/send");
  }
}

// Drain pops one request at a time, so a request accepted while it runs
// is answered by that Drain, not left for the next. The telemetry clock
// is read on the draining thread as each wire transfer opens its span;
// the test submits from that read.
TEST(ServiceRunner, SubmitAcceptedDuringDrainIsAnsweredByThatDrain) {
  auto runner = MakeRunner(SmallRunner());
  std::vector<int> answered;
  auto answer_as = [&answered](int i) {
    return [&answered, i](const ServiceResponse& r) {
      EXPECT_EQ(r.code, StatusCode::kOk);
      answered.push_back(i);
    };
  };
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(runner->SubmitIngest(i, "a", Rows(2, i), answer_as(i)).ok());
  }
  telemetry::Telemetry telem;
  telemetry::ScopedTelemetry scope(telem);
  bool submitted = false;
  telem.SetVirtualTimeSource([&] {
    if (!submitted) {
      submitted = true;
      EXPECT_TRUE(
          runner->SubmitIngest(7, "late", Rows(2, 7), answer_as(3)).ok());
    }
    return 0.0;
  });
  EXPECT_EQ(runner->Drain(), 4u);
  telem.SetVirtualTimeSource(nullptr);
  EXPECT_TRUE(submitted);
  EXPECT_EQ(answered, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(runner->Drain(), 0u);
}

FaultConfig SeededChaos() {
  FaultConfig fc;
  fc.default_profile.drop_prob = 0.2;
  fc.default_profile.corrupt_prob = 0.15;
  fc.default_profile.truncate_prob = 0.1;
  fc.default_profile.duplicate_prob = 0.1;
  fc.default_profile.transient_fail_prob = 0.1;
  fc.max_retries = 2;
  fc.seed = 4242;
  return fc;
}

struct RoundResult {
  std::vector<StatusCode> codes;
  uint64_t digest = 0;
  bool operator==(const RoundResult&) const = default;
};

// 48 requests from 5 clients over 7 tenants (one more than fit), every
// eleventh a query, under SeededChaos.
RoundResult RunSeededFaultedRound() {
  ServiceRunnerOptions options = SmallRunner();
  options.service.max_tenants = 6;
  options.service.max_resident = 6;
  options.faults = SeededChaos();
  auto runner = MakeRunner(options);
  RoundResult out;
  for (int i = 0; i < 48; ++i) {
    const int client = i % 5;
    const std::string tenant = "t" + std::to_string(i % 7);
    auto cb = [&out](const ServiceResponse& r) { out.codes.push_back(r.code); };
    const Status s =
        i % 11 == 10
            ? runner->Submit(client, EncodeQueryRequest(tenant), cb)
            : runner->SubmitIngest(client, tenant, Rows(3, 100 + i), cb);
    DS_CHECK(s.ok());
  }
  runner->Drain();
  out.digest = TranscriptDigest(runner->log(), &*runner->faults());
  return out;
}

// The answers and the transcript (every metered request and response
// attempt, every fault event) do not depend on the thread-pool width.
TEST(ServiceRunner, AnswersAndTranscriptIndependentOfThreadPoolWidth) {
  const size_t saved_threads = ThreadPool::GlobalThreads();
  std::vector<RoundResult> runs;
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool::SetGlobalThreads(threads);
    runs.push_back(RunSeededFaultedRound());
  }
  ThreadPool::SetGlobalThreads(saved_threads);
  EXPECT_EQ(runs[0], runs[1]);
}

// Under a seeded drop/corrupt/truncate/duplicate/transient plan the
// answers and the transcript are a pure function of the seed: repeated,
// they are the same, and both are pinned.
TEST(ServiceRunner, SeededFaultPlanGivesTheSameAnswersAndTranscript) {
  std::vector<RoundResult> runs;
  for (int i = 0; i < 2; ++i) runs.push_back(RunSeededFaultedRound());
  EXPECT_EQ(runs[0], runs[1]);
  // 29 kOk (0), 15 kUnavailable (8: lost on the request leg) and 4
  // kOverloaded (10: the seventh tenant).
  const std::vector<int> pinned_codes = {
      0, 0, 0, 0, 0, 0, 10, 0, 0, 0, 0, 0,
      0, 10, 0, 0, 8, 0, 0, 8, 10, 8, 0, 0,
      8, 0, 8, 10, 0, 8, 0, 8, 0, 0, 8, 0,
      8, 0, 0, 8, 0, 8, 8, 0, 8, 0, 8, 8};
  std::vector<int> codes;
  for (const StatusCode c : runs[0].codes) codes.push_back(static_cast<int>(c));
  EXPECT_EQ(codes, pinned_codes);
  EXPECT_EQ(runs[0].digest, 11137506453514253834ULL);
}

// A delivered request is the submitted message's own buffer: Drain
// checks each delivered view against the queued message by identity
// (DS_CHECK), so a copy anywhere on the wire aborts this test.
TEST(ServiceRunner, DeliveredRequestIsTheSubmittedBuffer) {
  for (const bool faults : {false, true}) {
    SCOPED_TRACE(faults ? "fault plan" : "ideal wire");
    ServiceRunnerOptions options = SmallRunner();
    if (faults) options.faults = SeededChaos();
    auto runner = MakeRunner(options);
    size_t ok = 0;
    for (int i = 0; i < 24; ++i) {
      ASSERT_TRUE(runner
                      ->SubmitIngest(i % 3, "t" + std::to_string(i % 3),
                                     Rows(2, 300 + i),
                                     [&ok](const ServiceResponse& r) {
                                       ok += r.code == StatusCode::kOk;
                                     })
                      .ok());
    }
    EXPECT_EQ(runner->Drain(), 24u);
    EXPECT_EQ(ok, 24u - runner->wire_lost());
    EXPECT_GT(ok, 0u);
  }
}

// Requests and responses both meter through one point: the cluster/send
// spans and the comm.* counters add up to the runner's CommLog, as they
// do for a protocol run, with the requests under a drop/corrupt plan and
// the responses over the ideal wire.
TEST(ServiceRunner, CommSpansAndCountersSumToCommLog) {
  ServiceRunnerOptions options = SmallRunner();
  FaultConfig fc;
  fc.default_profile.drop_prob = 0.2;
  fc.default_profile.corrupt_prob = 0.2;
  // Enough retries that no client is lost: a lost client's later
  // requests fail without an attempt, so they meter no record.
  fc.max_retries = 12;
  fc.seed = 17;
  options.faults = fc;
  telemetry::Telemetry telem;
  telemetry::ScopedTelemetry scope(telem);
  auto runner = MakeRunner(options);
  for (int i = 0; i < 30; ++i) {
    const std::string tenant = "t" + std::to_string(i % 4);
    const Status s =
        i % 7 == 6
            ? runner->Submit(i % 3, EncodeQueryRequest(tenant), nullptr)
            : runner->SubmitIngest(i % 3, tenant, Rows(2, 500 + i), nullptr);
    ASSERT_TRUE(s.ok());
  }
  EXPECT_EQ(runner->Drain(), 30u);
  ASSERT_EQ(runner->wire_lost(), 0u);
  const CommStats stats = runner->log().Stats();
  ASSERT_GT(stats.num_retransmits, 0u);
  ASSERT_GT(stats.control_wire_bytes, 0u);

  uint64_t span_bytes = 0, span_control_bytes = 0, responses = 0;
  for (const telemetry::SpanRecord& rec : telem.Spans()) {
    if (rec.name != "cluster/send") continue;
    span_bytes += std::stoull(Attr(rec, "bytes"));
    span_control_bytes += std::stoull(Attr(rec, "control_bytes"));
    responses += Attr(rec, "from") == std::to_string(kCoordinator);
  }
  EXPECT_EQ(responses, 30u);
  EXPECT_EQ(span_bytes, stats.total_wire_bytes);
  EXPECT_EQ(span_control_bytes, stats.control_wire_bytes);
  const telemetry::MetricsRegistry& m = telem.metrics();
  EXPECT_EQ(static_cast<uint64_t>(m.CounterValue("comm.wire_bytes")),
            stats.total_wire_bytes);
  EXPECT_EQ(static_cast<uint64_t>(m.CounterValue("comm.control_wire_bytes")),
            stats.control_wire_bytes);
  // Drops and corruptions are metered per attempt: each retry is one
  // more record than the logical message count.
  EXPECT_EQ(static_cast<uint64_t>(m.CounterValue("comm.messages") +
                                  m.CounterValue("comm.retries")),
            stats.num_messages);
  EXPECT_EQ(static_cast<uint64_t>(m.CounterValue("comm.retries")),
            stats.num_retransmits);
}

}  // namespace
}  // namespace distsketch
