// Semantics of the async ChannelTransport: global-FIFO execution (so
// per-peer ordering is submission ordering), bounded per-peer queues with
// backpressure on the blocking path and typed kOverloaded shedding on the
// non-blocking path, deterministic drains independent of the thread-pool
// width, loop-mode drain on a background thread, and fault-injected
// drop/duplicate/stall behaviour surfacing through the async path exactly
// as through the synchronous one.

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "dist/channel.h"
#include "wire/message.h"

namespace distsketch {
namespace {

wire::Message TestMessage(const std::string& tag, double value) {
  return wire::ScalarMessage(tag, value);
}

// Records the execution order the wire function observes.
struct RecordingWire {
  std::mutex lock;
  std::vector<std::pair<int, std::string>> executed;  // (peer, tag)

  WireFn Fn() {
    return [this](int from, int to, const wire::Message& msg) {
      std::lock_guard<std::mutex> g(lock);
      executed.push_back({ChannelTransport::PeerOf(from, to), msg.tag});
      SendOutcome out;
      out.delivered = true;
      out.attempts = 1;
      out.wire_words = msg.words;
      return out;
    };
  }
};

TEST(ChannelTransport, ExecutesInSubmissionOrder) {
  RecordingWire wire;
  ChannelTransport channel(wire.Fn());
  for (int i = 0; i < 20; ++i) {
    Status s = channel.TrySubmit(i % 4, kCoordinator,
                                 TestMessage("m" + std::to_string(i), i),
                                 nullptr);
    ASSERT_TRUE(s.ok());
  }
  EXPECT_EQ(channel.pending(), 20u);
  EXPECT_EQ(channel.DrainAll(), 20u);
  ASSERT_EQ(wire.executed.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(wire.executed[i].second, "m" + std::to_string(i));
    EXPECT_EQ(wire.executed[i].first, i % 4);
  }
  EXPECT_EQ(channel.executed(), 20u);
  EXPECT_EQ(channel.shed(), 0u);
}

TEST(ChannelTransport, SendAndWaitReturnsOutcomeInline) {
  RecordingWire wire;
  ChannelTransport channel(wire.Fn());
  const SendOutcome out =
      channel.SendAndWait(2, kCoordinator, TestMessage("one", 1.0));
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(channel.pending(), 0u);
  ASSERT_EQ(wire.executed.size(), 1u);
  EXPECT_EQ(wire.executed[0].first, 2);
}

TEST(ChannelTransport, TrySubmitShedsWithOverloadedAtPeerCapacity) {
  RecordingWire wire;
  ChannelTransport channel(wire.Fn(), ChannelOptions{.peer_queue_capacity = 3});
  std::atomic<int> callbacks{0};
  auto done = [&callbacks](const SendOutcome&) { ++callbacks; };
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        channel.TrySubmit(1, kCoordinator, TestMessage("q", i), done).ok());
  }
  // Peer 1 is full: the fourth submit sheds, typed, with no callback.
  Status shed = channel.TrySubmit(1, kCoordinator, TestMessage("q", 3), done);
  EXPECT_EQ(shed.code(), StatusCode::kOverloaded);
  // A different peer still has room.
  EXPECT_TRUE(
      channel.TrySubmit(2, kCoordinator, TestMessage("q", 4), done).ok());
  EXPECT_EQ(channel.shed(), 1u);
  EXPECT_EQ(channel.DrainAll(), 4u);
  EXPECT_EQ(callbacks.load(), 4);  // the shed submit never fired
  // Capacity freed: the peer accepts again.
  EXPECT_TRUE(
      channel.TrySubmit(1, kCoordinator, TestMessage("q", 5), done).ok());
  channel.DrainAll();
}

TEST(ChannelTransport, SendAndWaitBackpressuresInsteadOfShedding) {
  RecordingWire wire;
  ChannelTransport channel(wire.Fn(), ChannelOptions{.peer_queue_capacity = 2});
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        channel.TrySubmit(0, kCoordinator, TestMessage("pre", i), nullptr)
            .ok());
  }
  // The blocking path pumps the queue to make room rather than shedding.
  const SendOutcome out =
      channel.SendAndWait(0, kCoordinator, TestMessage("blocked", 9.0));
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(channel.shed(), 0u);
  ASSERT_EQ(wire.executed.size(), 3u);
  EXPECT_EQ(wire.executed.back().second, "blocked");
}

TEST(ChannelTransport, ConcurrentProducersKeepPerProducerOrder) {
  RecordingWire wire;
  ChannelTransport channel(wire.Fn(), ChannelOptions{.peer_queue_capacity =
                                                         1000});
  constexpr int kProducers = 6;
  constexpr int kPerProducer = 50;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&channel, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::string tag =
            "p" + std::to_string(p) + "/" + std::to_string(i);
        while (!channel.TrySubmit(p, kCoordinator, TestMessage(tag, i),
                                  nullptr)
                    .ok()) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(channel.DrainAll(), size_t{kProducers * kPerProducer});
  // Global order interleaves arbitrarily, but each producer's own
  // messages execute in its submission order.
  std::vector<int> next(kProducers, 0);
  for (const auto& [peer, tag] : wire.executed) {
    const int idx = std::stoi(tag.substr(tag.find('/') + 1));
    EXPECT_EQ(idx, next[peer]) << "peer " << peer << " reordered";
    next[peer] = idx + 1;
  }
}

TEST(ChannelTransport, LoopModeDrainsEverythingBeforeStopping) {
  RecordingWire wire;
  ChannelTransport channel(wire.Fn(), ChannelOptions{.peer_queue_capacity =
                                                         1000});
  channel.StartLoop();
  EXPECT_TRUE(channel.loop_running());
  std::atomic<int> callbacks{0};
  for (int i = 0; i < 200; ++i) {
    while (!channel
                .TrySubmit(i % 8, kCoordinator, TestMessage("loop", i),
                           [&callbacks](const SendOutcome&) { ++callbacks; })
                .ok()) {
      std::this_thread::yield();
    }
  }
  channel.StopLoop();
  EXPECT_FALSE(channel.loop_running());
  EXPECT_EQ(callbacks.load(), 200);
  EXPECT_EQ(channel.executed(), 200u);
  EXPECT_EQ(channel.pending(), 0u);
}

// SendAndWait borrows the caller's message. When the loop thread, not the
// caller, executes the transfer, the wire fn reads that message from the
// loop thread while the caller blocks — the path TSan watches. The
// schedule is forced: the loop thread is parked inside transfer "W" while
// the caller enqueues "B" behind "X"; the caller's own pump takes X (and
// holds it until B is gone from the queue), so only the loop thread can
// run B.
TEST(ChannelTransport, SendAndWaitExecutedByTheLoopThreadReturnsItsOutcome) {
  std::atomic<bool> w_entered{false};
  std::atomic<bool> w_release{false};
  std::atomic<ChannelTransport*> channel_ptr{nullptr};
  std::thread::id w_thread;
  std::thread::id b_thread;
  ChannelTransport channel([&](int from, int to, const wire::Message& msg) {
    if (msg.tag == "W") {
      w_thread = std::this_thread::get_id();
      w_entered = true;
      while (!w_release) std::this_thread::yield();
    } else if (msg.tag == "X") {
      while (channel_ptr.load()->pending() != 0) std::this_thread::yield();
    } else if (msg.tag == "B") {
      b_thread = std::this_thread::get_id();
    }
    SendOutcome out;
    out.delivered = true;
    out.attempts = 1;
    out.wire_words = msg.words;
    out.wire_bytes = msg.payload.size();
    out.payload = msg.payload;
    (void)from;
    (void)to;
    return out;
  });
  channel_ptr = &channel;
  channel.StartLoop();
  ASSERT_TRUE(channel.TrySubmit(1, kCoordinator, TestMessage("W", 1), nullptr)
                  .ok());
  while (!w_entered) std::this_thread::yield();
  ASSERT_TRUE(channel.TrySubmit(2, kCoordinator, TestMessage("X", 2), nullptr)
                  .ok());

  const wire::Message b = wire::ScalarsMessage("B", {1.5, -2.5, 4.0});
  SendOutcome b_out;
  std::thread::id caller_thread;
  std::thread caller([&] {
    caller_thread = std::this_thread::get_id();
    b_out = channel.SendAndWait(3, kCoordinator, b);
  });
  // B is queued and the caller has popped X: only B is left.
  while (channel.submitted() != 3 || channel.pending() != 1) {
    std::this_thread::yield();
  }
  w_release = true;
  caller.join();
  channel.StopLoop();

  EXPECT_EQ(b_thread, w_thread);
  EXPECT_NE(b_thread, caller_thread);
  EXPECT_TRUE(b_out.delivered);
  EXPECT_EQ(b_out.attempts, 1);
  EXPECT_EQ(b_out.wire_words, 3u);
  EXPECT_EQ(b_out.wire_bytes, b.payload.size());
  EXPECT_EQ(b_out.payload.data(), b.payload.data());
  EXPECT_EQ(b_out.payload.size(), b.payload.size());
  EXPECT_EQ(channel.executed(), 3u);
}

// A drain executed while the global thread pool is wide must observe the
// same wire schedule as with a single thread: the channel serializes
// execution regardless of who else is running.
TEST(ChannelTransport, DrainScheduleIndependentOfThreadPoolWidth) {
  const size_t saved_threads = ThreadPool::GlobalThreads();
  std::vector<std::vector<std::pair<int, std::string>>> schedules;
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    ThreadPool::SetGlobalThreads(threads);
    RecordingWire wire;
    ChannelTransport channel(wire.Fn(),
                             ChannelOptions{.peer_queue_capacity = 1000});
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(channel
                      .TrySubmit(i % 5, kCoordinator,
                                 TestMessage("d" + std::to_string(i), i),
                                 nullptr)
                      .ok());
    }
    // Drive the drain from inside pool work to prove independence.
    ThreadPool::Global().ParallelFor(1, [&](size_t) { channel.DrainAll(); });
    schedules.push_back(wire.executed);
  }
  ThreadPool::SetGlobalThreads(saved_threads);
  EXPECT_EQ(schedules[0], schedules[1]);
}

// Faults flow through the async path exactly as through the synchronous
// one: a WireEndpoint with a seeded chaos plan produces a deterministic
// outcome sequence, replayed identically on a second run.
TEST(ChannelTransport, FaultInjectedDropDupStallIsDeterministic) {
  auto run = [] {
    WireEndpoint wire(64);
    FaultConfig fc;
    fc.default_profile.drop_prob = 0.2;
    fc.default_profile.duplicate_prob = 0.15;
    fc.default_profile.transient_fail_prob = 0.15;
    fc.max_retries = 2;
    fc.seed = 1234;
    wire.faults.emplace(fc);
    ChannelTransport channel(
        [&wire](int from, int to, const wire::Message& msg) {
          return wire.Transfer(from, to, msg);
        },
        ChannelOptions{.peer_queue_capacity = 1000});
    std::vector<std::pair<bool, int>> outcomes;  // (delivered, attempts)
    std::mutex lock;
    for (int i = 0; i < 60; ++i) {
      Status s = channel.TrySubmit(
          i % 4, kCoordinator, TestMessage("chaos", i),
          [&outcomes, &lock](const SendOutcome& out) {
            std::lock_guard<std::mutex> g(lock);
            outcomes.push_back({out.delivered, out.attempts});
          });
      DS_CHECK(s.ok());
    }
    channel.DrainAll();
    return std::make_pair(outcomes,
                          TranscriptDigest(wire.log, &*wire.faults));
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  // The chaos plan actually perturbed something.
  bool any_lost = false, any_retried = false;
  for (const auto& [delivered, attempts] : first.first) {
    any_lost |= !delivered;
    any_retried |= attempts > 1;
  }
  EXPECT_TRUE(any_lost || any_retried);
}

}  // namespace
}  // namespace distsketch
