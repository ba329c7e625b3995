#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace distsketch {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, ZeroAndOneIndexBatches) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> sum{0};
    pool.ParallelFor(100, [&](size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  const auto caller = std::this_thread::get_id();
  pool.ParallelFor(16, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, ParallelMapPreservesIndexOrder) {
  const size_t old_threads = ThreadPool::GlobalThreads();
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    std::vector<double> out =
        ParallelMap<double>(257, [](size_t i) { return 1.0 / (i + 1); });
    ASSERT_EQ(out.size(), 257u);
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], 1.0 / (i + 1));
    }
  }
  ThreadPool::SetGlobalThreads(old_threads);
}

// Floating-point addition is not associative, so a completion-order
// reduction would give different bits run to run. The ordered reduce must
// reproduce the serial fold exactly, for every thread count.
TEST(ThreadPoolTest, OrderedReduceBitIdenticalAcrossThreadCounts) {
  constexpr size_t kN = 400;
  auto term = [](size_t i) {
    // Terms of wildly different magnitude make the fold order visible.
    return (i % 2 == 0 ? 1.0 : -1.0) * std::pow(10.0, double(i % 17) - 8.0);
  };
  double serial = 0.0;
  for (size_t i = 0; i < kN; ++i) serial += term(i);

  const size_t old_threads = ThreadPool::GlobalThreads();
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    for (int rep = 0; rep < 5; ++rep) {
      const double folded = ParallelOrderedReduce<double, double>(
          kN, 0.0, term,
          [](double acc, double x) { return acc + x; });
      EXPECT_EQ(folded, serial) << "threads=" << threads << " rep=" << rep;
    }
  }
  ThreadPool::SetGlobalThreads(old_threads);
}

TEST(ThreadPoolTest, UnevenWorkStillCoversAllIndices) {
  ThreadPool pool(4);
  constexpr size_t kN = 64;
  std::vector<uint64_t> out(kN, 0);
  pool.ParallelFor(kN, [&](size_t i) {
    // Index 0 does ~kN times the work of the rest; dynamic claiming must
    // still complete every index.
    uint64_t acc = 0;
    const uint64_t iters = (i == 0) ? 2000000 : 30000;
    for (uint64_t t = 0; t < iters; ++t) acc += t * (i + 1);
    out[i] = acc;
  });
  for (size_t i = 0; i < kN; ++i) EXPECT_NE(out[i], 0u) << i;
}

// Bodies running at once see distinct lanes below num_threads(), and the
// ParallelFor caller's lane is 0, so per-lane scratch is never shared.
TEST(ThreadPoolTest, ConcurrentBodiesSeeDistinctLanes) {
  EXPECT_EQ(ThreadPool::CurrentLane(), 0u);
  for (size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<bool>> busy(threads);
    std::vector<std::atomic<int>> runs(threads);
    const std::thread::id caller = std::this_thread::get_id();
    pool.ParallelFor(256, [&](size_t) {
      const size_t lane = ThreadPool::CurrentLane();
      ASSERT_LT(lane, threads);
      EXPECT_EQ(lane == 0, std::this_thread::get_id() == caller);
      EXPECT_FALSE(busy[lane].exchange(true)) << "lane " << lane;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      busy[lane].store(false);
      runs[lane].fetch_add(1);
    });
    int total = 0;
    for (const auto& r : runs) total += r.load();
    EXPECT_EQ(total, 256);
  }
}

}  // namespace
}  // namespace distsketch
