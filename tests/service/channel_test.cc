// Semantics of the ChannelTransport: global-FIFO execution (so per-peer
// ordering is submission ordering), bounded per-peer queues with typed
// kOverloaded shedding, concurrent producers, deterministic drains
// independent of the thread-pool width, a destroyed channel dropping its
// queue unexecuted, and fault-injected drop/duplicate/stall behaviour
// surfacing through the queue exactly as through a direct wire call.

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

// Only DrainAll executes transfers: a channel destroyed with a queue
// neither runs the wire nor fires a callback.
TEST(ChannelTransport, DestroyedChannelDropsItsQueueUnexecuted) {
  RecordingWire wire;
  int callbacks = 0;
  {
    ChannelTransport channel(wire.Fn());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(channel
                      .TrySubmit(i, kCoordinator, TestMessage("q", i),
                                 [&callbacks](SendOutcome&&) { ++callbacks; })
                      .ok());
    }
    EXPECT_EQ(channel.pending(), 3u);
  }
  EXPECT_TRUE(wire.executed.empty());
  EXPECT_EQ(callbacks, 0);
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

// A drain executed while the global thread pool is wide must observe the
// same wire schedule as with a single thread: one drainer runs the queue
// in FIFO order regardless of who else is running.
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

// Faults flow through the queue exactly as through a direct wire call: a
// WireEndpoint with a seeded chaos plan produces a deterministic outcome
// sequence, replayed identically on a second run.
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
