// Allocation budget of the message path. This binary replaces the global
// operator new with one that counts every allocation of at least a
// threshold size, so the tests can pin how many payload-sized buffers one
// send makes: the frame is encoded once per attempt into one reused
// buffer, the receiver gets that buffer back, and the blocking channel
// path borrows the caller's message instead of copying it. The
// replacement forwards to malloc/free, so it also runs under ASan.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "dist/channel.h"
#include "dist/cluster.h"
#include "dist/comm_log.h"
#include "dist/fault_injection.h"
#include "linalg/matrix.h"
#include "wire/message.h"

namespace {

std::atomic<size_t> g_threshold{SIZE_MAX};
std::atomic<uint64_t> g_big_allocs{0};

void* CountedAlloc(size_t n) {
  if (n >= g_threshold.load(std::memory_order_relaxed)) {
    g_big_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t n) { return CountedAlloc(n); }
void* operator new[](size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace distsketch {
namespace {

// Counts allocations of at least `threshold` bytes while in scope.
class BigAllocCounter {
 public:
  explicit BigAllocCounter(size_t threshold) {
    g_big_allocs.store(0);
    g_threshold.store(threshold);
  }
  ~BigAllocCounter() { g_threshold.store(SIZE_MAX); }
  uint64_t count() const { return g_big_allocs.load(); }
};

// A 64 KiB dense payload: far above every bookkeeping allocation the
// send path makes (log records, fault events, queue nodes).
wire::Message BigMessage() {
  Matrix m(128, 64);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = 0.25 * i;
  return wire::DenseMessage("big", m);
}

FaultConfig LossyConfig() {
  FaultConfig config;
  config.default_profile.drop_prob = 0.25;
  config.default_profile.truncate_prob = 0.2;
  config.default_profile.corrupt_prob = 0.2;
  config.default_profile.duplicate_prob = 0.2;
  config.default_profile.transient_fail_prob = 0.1;
  config.max_retries = 8;
  config.seed = 17;
  return config;
}

TEST(SendAllocBudget, FaultPlanSendAllocatesOnePayloadBufferPerAttemptAtMost) {
  const wire::Message msg = BigMessage();
  FaultInjector injector(LossyConfig());
  int retried_sends = 0;
  for (int server = 0; server < 24; ++server) {
    CommLog log(64);
    SendOutcome out;
    uint64_t allocs = 0;
    {
      BigAllocCounter counter(msg.payload.size());
      out = injector.Send(log, server, kCoordinator, msg);
      allocs = counter.count();
    }
    EXPECT_LE(allocs, static_cast<uint64_t>(out.attempts))
        << "server " << server;
    // Stronger than the per-attempt budget: retries re-encode into the
    // one frame buffer, which a delivery hands to the receiver.
    EXPECT_LE(allocs, 1u) << "server " << server;
    if (out.delivered) {
      EXPECT_EQ(out.payload, msg.payload) << "server " << server;
    }
    if (out.attempts > 1) ++retried_sends;
  }
  // The plan must actually exercise retransmission for the bound to bite.
  EXPECT_GT(retried_sends, 0);
}

TEST(SendAllocBudget, IdealWireAllocatesExactlyTheReceiverPayload) {
  wire::Message msg = BigMessage();
  CommLog log(64);
  {
    BigAllocCounter counter(msg.payload.size());
    SendOutcome out = SendOverIdealWire(log, 3, kCoordinator, msg);
    EXPECT_EQ(counter.count(), 1u);
    EXPECT_EQ(out.payload, msg.payload);
  }
  // The pre-encoded path copies the payload out of the cached frame once.
  wire::PreEncodeFrame(msg, 3, kCoordinator);
  {
    BigAllocCounter counter(msg.payload.size());
    SendOutcome out = SendOverIdealWire(log, 3, kCoordinator, msg);
    EXPECT_EQ(counter.count(), 1u);
    EXPECT_EQ(out.payload, msg.payload);
    EXPECT_NE(out.payload.data(), msg.payload.data());
  }
}

TEST(SendAllocBudget, SendAndWaitBorrowsTheMessageUntilTheWireRuns) {
  const wire::Message msg = BigMessage();
  std::atomic<uint64_t> allocs_at_wire{UINT64_MAX};
  const wire::Message* seen = nullptr;
  ChannelTransport channel([&](int, int, const wire::Message& m) {
    allocs_at_wire.store(g_big_allocs.load());
    seen = &m;
    SendOutcome out;
    out.delivered = true;
    out.attempts = 1;
    return out;
  });
  BigAllocCounter counter(msg.payload.size());
  SendOutcome out = channel.SendAndWait(1, kCoordinator, msg);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(allocs_at_wire.load(), 0u);
  EXPECT_EQ(seen, &msg);
}

TEST(SendAllocBudget, ClusterSendMakesOnePayloadBufferEndToEnd) {
  auto cluster = Cluster::Create({Matrix(4, 3), Matrix(4, 3)}, 0.1);
  ASSERT_TRUE(cluster.ok());
  const wire::Message msg = BigMessage();
  {
    BigAllocCounter counter(msg.payload.size());
    SendOutcome out = cluster->Send(0, kCoordinator, msg);
    EXPECT_EQ(counter.count(), 1u);
    EXPECT_EQ(out.payload, msg.payload);
  }
  cluster->InstallFaultPlan(LossyConfig());
  for (int server = 0; server < 2; ++server) {
    BigAllocCounter counter(msg.payload.size());
    SendOutcome out = cluster->Send(server, kCoordinator, msg);
    EXPECT_LE(counter.count(), 1u);
  }
}

}  // namespace
}  // namespace distsketch
