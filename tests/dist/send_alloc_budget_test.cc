// Allocation budget of the message path. This binary replaces the global
// operator new with one that counts every allocation of at least a
// threshold size, so the tests can pin how many payload-sized buffers one
// send makes: a clean attempt is verified over the sender's own payload
// and delivered as a view of it (none), an attempt the network mangles
// builds one whole frame in a buffer the send's later attempts reuse (at
// most one per send), and Cluster::Send hands the caller's message to the
// wire without copying it. The tree-path tests pin the protocols' side of
// the budget (RunSumReduce's): a leaf's local sketch is built in the
// calling thread's reused per-lane scratch and encoded straight into its
// uplink, so only nodes that absorb uplinks hold a sketch-sized
// accumulator. The replacement forwards to malloc/free, so it also runs
// under ASan and TSan.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "dist/cluster.h"
#include "dist/comm_log.h"
#include "dist/adaptive_sketch_protocol.h"
#include "dist/countsketch_protocol.h"
#include "dist/exact_gram_protocol.h"
#include "dist/fault_injection.h"
#include "dist/merge_topology.h"
#include "dist/protocol.h"
#include "dist/row_sampling_protocol.h"
#include "dist/svs_protocol.h"
#include "dist/tree_reduce.h"
#include "linalg/matrix.h"
#include "sketch/countsketch.h"
#include "wire/frame.h"
#include "wire/message.h"

namespace {

std::atomic<size_t> g_threshold{SIZE_MAX};
std::atomic<size_t> g_ceiling{SIZE_MAX};
std::atomic<uint64_t> g_big_allocs{0};
// The thread that opened the counter, and the big allocations made on any
// other thread (the pool's workers).
std::atomic<std::thread::id> g_counting_thread{};
std::atomic<uint64_t> g_big_allocs_elsewhere{0};

// Null on failure, like the nothrow operator new.
void* CountedAlloc(size_t n) noexcept {
  if (n >= g_threshold.load(std::memory_order_relaxed) &&
      n <= g_ceiling.load(std::memory_order_relaxed)) {
    g_big_allocs.fetch_add(1, std::memory_order_relaxed);
    if (std::this_thread::get_id() !=
        g_counting_thread.load(std::memory_order_relaxed)) {
      g_big_allocs_elsewhere.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* CountedAllocOrThrow(size_t n) {
  void* p = CountedAlloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// otherwise ASan sees the library's allocation freed by this free().
void* operator new(size_t n) { return CountedAllocOrThrow(n); }
void* operator new[](size_t n) { return CountedAllocOrThrow(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace distsketch {
namespace {

// Counts allocations of at least `threshold` (and at most `ceiling`)
// bytes while in scope, in total and off the thread that opened the
// counter.
class BigAllocCounter {
 public:
  explicit BigAllocCounter(size_t threshold, size_t ceiling = SIZE_MAX) {
    g_big_allocs.store(0);
    g_big_allocs_elsewhere.store(0);
    g_counting_thread.store(std::this_thread::get_id());
    g_ceiling.store(ceiling);
    g_threshold.store(threshold);
  }
  ~BigAllocCounter() { g_threshold.store(SIZE_MAX); }
  uint64_t count() const { return g_big_allocs.load(); }
  uint64_t off_thread_count() const { return g_big_allocs_elsewhere.load(); }
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

// Attempts of the last send the network truncated or corrupted.
size_t MangledAttempts(const CommLog& log) {
  size_t n = 0;
  for (const MessageRecord& rec : log.messages()) {
    if (rec.truncated || rec.corrupted) ++n;
  }
  return n;
}

TEST(SendAllocBudget, FaultPlanSendAllocatesOnePayloadBufferPerAttemptAtMost) {
  const wire::Message msg = BigMessage();
  FaultInjector injector(LossyConfig());
  int clean_sends = 0;
  int mangled_sends = 0;
  for (int server = 0; server < 24; ++server) {
    CommLog log(64);
    SendOutcome out;
    uint64_t allocs = 0;
    {
      BigAllocCounter counter(msg.payload.size());
      out = injector.Send(log, server, kCoordinator, msg);
      allocs = counter.count();
    }
    // Only a mangled attempt builds a whole frame, and every later one
    // reuses its buffer; clean, dropped and stalled attempts build none.
    const bool mangled = MangledAttempts(log) > 0;
    EXPECT_LE(allocs, mangled ? 1u : 0u) << "server " << server;
    if (out.delivered) {
      EXPECT_EQ(out.payload.data(), msg.payload.data()) << "server " << server;
      EXPECT_EQ(out.payload.size(), msg.payload.size()) << "server " << server;
    }
    ++(mangled ? mangled_sends : clean_sends);
  }
  // The plan must exercise both kinds of send for the bounds to bite.
  EXPECT_GT(clean_sends, 0);
  EXPECT_GT(mangled_sends, 0);
}

TEST(SendAllocBudget, CleanFaultPlanSendAllocatesNothing) {
  const wire::Message msg = BigMessage();
  FaultConfig config;
  config.default_profile.drop_prob = 0.4;
  config.default_profile.duplicate_prob = 0.3;
  config.default_profile.transient_fail_prob = 0.2;
  config.max_retries = 8;
  config.seed = 23;
  FaultInjector injector(config);
  int retried_sends = 0;
  for (int server = 0; server < 24; ++server) {
    CommLog log(64);
    BigAllocCounter counter(msg.payload.size());
    SendOutcome out = injector.Send(log, server, kCoordinator, msg);
    EXPECT_EQ(counter.count(), 0u) << "server " << server;
    if (out.delivered) {
      EXPECT_EQ(out.payload.data(), msg.payload.data()) << "server " << server;
    }
    if (out.attempts > 1) ++retried_sends;
  }
  EXPECT_GT(retried_sends, 0);
}

TEST(SendAllocBudget, IdealWireAllocatesNoPayloadBuffer) {
  const wire::Message msg = BigMessage();
  CommLog log(64);
  BigAllocCounter counter(msg.payload.size());
  SendOutcome out = SendOverIdealWire(log, 3, kCoordinator, msg);
  EXPECT_EQ(counter.count(), 0u);
  EXPECT_EQ(out.payload.data(), msg.payload.data());
  EXPECT_EQ(out.payload.size(), msg.payload.size());
  EXPECT_EQ(out.wire_bytes, wire::FrameBytes(3, msg.payload.size()));
}

TEST(SendAllocBudget, ClusterSendCopiesNoPayloadEndToEnd) {
  auto cluster = Cluster::Create({Matrix(4, 3), Matrix(4, 3)}, 0.1);
  ASSERT_TRUE(cluster.ok());
  const wire::Message msg = BigMessage();
  {
    BigAllocCounter counter(msg.payload.size());
    SendOutcome out = cluster->Send(0, kCoordinator, msg);
    EXPECT_EQ(counter.count(), 0u);
    EXPECT_EQ(out.payload.data(), msg.payload.data());
  }
  cluster->InstallFaultPlan(LossyConfig());
  for (int server = 0; server < 2; ++server) {
    BigAllocCounter counter(msg.payload.size());
    cluster->Send(server, kCoordinator, msg);
    EXPECT_LE(counter.count(), 1u);
  }
}

// Tree-path budget: s = 64 servers under tree(8), each holding a few rows
// far smaller than one sketch-sized buffer.
constexpr size_t kTreeServers = 64;

std::vector<Matrix> TreeShards(size_t rows_per_server, size_t d,
                               size_t servers = kTreeServers) {
  std::vector<Matrix> shards;
  for (size_t i = 0; i < servers; ++i) {
    Matrix m(rows_per_server, d);
    for (size_t k = 0; k < m.size(); ++k) {
      m.data()[k] = std::sin(0.37 * static_cast<double>(i * m.size() + k));
    }
    shards.push_back(std::move(m));
  }
  return shards;
}

size_t ReceivingNodes(const MergeTopologyOptions& options,
                      size_t servers = kTreeServers) {
  auto topo = MergeTopology::Build(servers, options);
  DS_CHECK(topo.ok());
  size_t receivers = 0;
  for (size_t i = 0; i < servers; ++i) {
    if (!topo->node(i).children.empty()) ++receivers;
  }
  return receivers;
}

// Sketch-sized allocations of the second Run in the process (the first
// warms up the lanes' scratch and the comm log). The lanes - 1 slack is
// headroom: every lane's scratch belongs to the calling thread, so a warm
// run allocates none.
uint64_t SecondRunAllocs(SketchProtocol& protocol, Cluster& cluster,
                         size_t threshold, size_t ceiling = SIZE_MAX) {
  EXPECT_TRUE(protocol.Run(cluster).ok());
  BigAllocCounter counter(threshold, ceiling);
  EXPECT_TRUE(protocol.Run(cluster).ok());
  return counter.count();
}

// The exact_gram coordinator's share of a warm run's Gram-sized
// allocations (its sum and eigensolve), for the kTreeServers x 8 rows of
// TreeShards(8, d): measured on one server holding all of them, whose
// single leaf builds its Gram inline in the calling thread's reused
// scratch, so the count holds the coordinator's buffers alone.
uint64_t CoordinatorGramAllocs(SketchProtocol& protocol, size_t d) {
  auto one = Cluster::Create(TreeShards(8 * kTreeServers, d, 1), 0.1);
  DS_CHECK(one.ok());
  return SecondRunAllocs(protocol, *one, d * d * sizeof(double));
}

class TreeAllocBudget : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    saved_threads_ = ThreadPool::GlobalThreads();
    ThreadPool::SetGlobalThreads(GetParam());
  }
  void TearDown() override { ThreadPool::SetGlobalThreads(saved_threads_); }
  size_t lane_slack() const { return GetParam() - 1; }

 private:
  size_t saved_threads_ = 1;
};

TEST_P(TreeAllocBudget, CountSketchLeavesHoldNoAccumulator) {
  constexpr size_t d = 32;
  CountSketchProtocolOptions options;
  options.eps = 0.2;
  options.topology = MergeTopologyOptions::Tree(8);
  const size_t m = CountSketchBuckets(options.eps, options.oversample);
  auto cluster = Cluster::Create(TreeShards(4, d), 0.1);
  ASSERT_TRUE(cluster.ok());
  CountSketchProtocol protocol(options);
  const size_t receivers = ReceivingNodes(options.topology);
  ASSERT_GT(receivers, 0u);
  ASSERT_LT(receivers, kTreeServers);
  const uint64_t allocs =
      SecondRunAllocs(protocol, *cluster, m * d * sizeof(double));
  // One payload per uplink, one accumulator per receiving node, and the
  // coordinator's sum; a per-node accumulator would add s - receivers.
  EXPECT_LE(allocs, kTreeServers + receivers + 1 + lane_slack());
}

TEST_P(TreeAllocBudget, ExactGramLeavesHoldNoGram) {
  // d = 48 keeps a d-by-d buffer above RunTreeReduce's per-node
  // bookkeeping array (s entries), which a star run does not make. The
  // packed upper triangle a Gram uplink carries stays below it, so only
  // whole Grams (and the coordinator's eigensolve) count.
  constexpr size_t d = 48;
  const size_t threshold = d * d * sizeof(double);
  ASSERT_LT(wire::DensePayloadBytes(1, d * (d + 1) / 2), threshold);
  auto cluster = Cluster::Create(TreeShards(8, d), 0.1);
  ASSERT_TRUE(cluster.ok());
  ExactGramProtocol star;
  const uint64_t coordinator_allocs = CoordinatorGramAllocs(star, d);
  ASSERT_GT(coordinator_allocs, 0u);
  // The star is all leaves: beyond the coordinator's share it allocates
  // only the lanes' scratch. The tree keeps Grams only at receiving nodes.
  EXPECT_LE(SecondRunAllocs(star, *cluster, threshold),
            coordinator_allocs + lane_slack());
  ExactGramOptions options;
  options.topology = MergeTopologyOptions::Tree(8);
  ExactGramProtocol tree(options);
  const size_t receivers = ReceivingNodes(options.topology);
  const uint64_t allocs = SecondRunAllocs(tree, *cluster, threshold);
  EXPECT_LE(allocs, receivers + coordinator_allocs + lane_slack());
}

// s = 1024 under tree(8): 896 leaves, 128 receiving nodes. Leaves share
// one window of uplink buffers, so the run's sketch-sized allocations are
// an accumulator and a reserved uplink per receiving node, the window's
// leaf buffers, the coordinator's sum and the lanes' scratch — none per
// leaf. At this s the driver's and the comm log's per-run arrays outgrow
// one m-by-d buffer, so the count takes only sizes from an m-by-d matrix
// to its encoded payload. The drop-only fault plan mangles no frame, so
// the fault-mode sends allocate nothing either
// (CleanFaultPlanSendAllocatesNothing).
TEST_P(TreeAllocBudget, CountSketchLeafBuffersDoNotGrowWithLeafCount) {
  constexpr size_t servers = 1024;
  constexpr size_t d = 32;
  CountSketchProtocolOptions options;
  options.eps = 0.2;
  options.topology = MergeTopologyOptions::Tree(8);
  const size_t m = CountSketchBuckets(options.eps, options.oversample);
  const size_t receivers = ReceivingNodes(options.topology, servers);
  ASSERT_LT(2 * receivers + kTreeReduceWindow, servers - receivers);
  CountSketchProtocol protocol(options);
  FaultConfig drops;
  drops.default_profile.drop_prob = 0.05;
  drops.seed = 31;
  for (const bool fault_mode : {false, true}) {
    SCOPED_TRACE(fault_mode ? "fault mode" : "ideal wire");
    auto cluster = Cluster::Create(TreeShards(2, d, servers), 0.1);
    ASSERT_TRUE(cluster.ok());
    if (fault_mode) cluster->InstallFaultPlan(drops);
    const uint64_t allocs =
        SecondRunAllocs(protocol, *cluster, m * d * sizeof(double),
                        wire::DensePayloadBytes(m, d));
    EXPECT_LE(allocs, 2 * receivers + kTreeReduceWindow + GetParam());
  }
}

// The exact_gram counterpart: the 896 leaves share one window of uplink
// buffers, so no buffer is reserved per leaf. Only packed upper-triangle
// payloads count (the Grams and the coordinator's eigensolve are
// larger), so the receivers' Grams are slack in the bound.
TEST_P(TreeAllocBudget, ExactGramLeafBuffersDoNotGrowWithLeafCount) {
  constexpr size_t servers = 1024;
  constexpr size_t d = 48;
  const size_t packed = d * (d + 1) / 2;
  ExactGramOptions options;
  options.topology = MergeTopologyOptions::Tree(8);
  const size_t receivers = ReceivingNodes(options.topology, servers);
  ASSERT_LT(2 * receivers + kTreeReduceWindow, servers - receivers);
  ExactGramProtocol protocol(options);
  FaultConfig drops;
  drops.default_profile.drop_prob = 0.05;
  drops.seed = 31;
  for (const bool fault_mode : {false, true}) {
    SCOPED_TRACE(fault_mode ? "fault mode" : "ideal wire");
    auto cluster = Cluster::Create(TreeShards(2, d, servers), 0.1);
    ASSERT_TRUE(cluster.ok());
    if (fault_mode) cluster->InstallFaultPlan(drops);
    const uint64_t allocs =
        SecondRunAllocs(protocol, *cluster, packed * sizeof(double),
                        wire::DensePayloadBytes(1, packed));
    EXPECT_LE(allocs, 2 * receivers + kTreeReduceWindow + GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, TreeAllocBudget,
                         ::testing::Values(size_t{1}, size_t{4}));

// Stacking the servers' rows reserves the total once, and summing
// additive shares adds in place: over 64 shards, AssembleGroundTruth makes
// one allocation of at least half the result's size under either
// partition model, where appending (or adding) shard by shard reallocated
// and copied the growing result.
TEST(StackAllocBudget, AssembleGroundTruthAllocatesTheResultOnce) {
  constexpr size_t d = 16;
  constexpr size_t rows = 8;
  const size_t stacked_bytes = kTreeServers * rows * d * sizeof(double);
  auto stacked = Cluster::Create(TreeShards(rows, d), 0.1);
  ASSERT_TRUE(stacked.ok());
  auto summed = Cluster::CreateAdditive(TreeShards(rows, d), 0.1);
  ASSERT_TRUE(summed.ok());
  for (auto [cluster, result_bytes] :
       {std::pair{&*stacked, stacked_bytes},
        std::pair{&*summed, rows * d * sizeof(double)}}) {
    uint64_t allocs = 0;
    Matrix truth;
    {
      BigAllocCounter counter(result_bytes / 2);
      truth = cluster->AssembleGroundTruth();
      allocs = counter.count();
    }
    EXPECT_EQ(truth.size() * sizeof(double), result_bytes);
    EXPECT_LE(allocs, 1u);
  }
}

// The exact_gram star is all leaves: each builds its d-by-d Gram in its
// lane's reused scratch and packs it into an uplink buffer the calling
// thread reserved. So a warm run at 4 lanes makes no Gram-sized
// allocation on a pool worker, and no more in all than the coordinator's
// share plus the lanes' scratch.
TEST(StarAllocBudget, ExactGramStarAllocatesGramsOnTheCallingThread) {
  constexpr size_t d = 48;
  constexpr size_t lanes = 4;
  const size_t saved_threads = ThreadPool::GlobalThreads();
  ThreadPool::SetGlobalThreads(lanes);
  auto cluster = Cluster::Create(TreeShards(8, d), 0.1);
  ASSERT_TRUE(cluster.ok());
  ExactGramProtocol star;
  const uint64_t coordinator_allocs = CoordinatorGramAllocs(star, d);
  EXPECT_TRUE(star.Run(*cluster).ok());
  uint64_t allocs = 0;
  uint64_t off_thread = 0;
  {
    BigAllocCounter counter(d * d * sizeof(double));
    EXPECT_TRUE(star.Run(*cluster).ok());
    allocs = counter.count();
    off_thread = counter.off_thread_count();
  }
  ThreadPool::SetGlobalThreads(saved_threads);
  EXPECT_LE(allocs, coordinator_allocs + lanes - 1);
  EXPECT_EQ(off_thread, 0u);
}

// Resizing the pool starts fresh workers. The leaves' scratch belongs to
// the calling thread, so a CountSketch tree run right after the resize
// makes no m-by-d allocation on any of them: a per-worker scratch would
// be allocated by each new worker at its first leaf. 1024 servers give
// 896 leaves in 14 windows, enough for the workers to claim some.
TEST(PoolResizeAllocBudget, CountSketchAllocatesNoSketchOnFreshWorkers) {
  constexpr size_t d = 32;
  const size_t saved_threads = ThreadPool::GlobalThreads();
  CountSketchProtocolOptions options;
  options.eps = 0.2;
  options.topology = MergeTopologyOptions::Tree(8);
  const size_t m = CountSketchBuckets(options.eps, options.oversample);
  auto cluster = Cluster::Create(TreeShards(2, d, 1024), 0.1);
  ASSERT_TRUE(cluster.ok());
  CountSketchProtocol protocol(options);
  ThreadPool::SetGlobalThreads(1);
  EXPECT_TRUE(protocol.Run(*cluster).ok());
  ThreadPool::SetGlobalThreads(4);
  uint64_t off_thread = 0;
  {
    BigAllocCounter counter(m * d * sizeof(double));
    EXPECT_TRUE(protocol.Run(*cluster).ok());
    off_thread = counter.off_thread_count();
  }
  ThreadPool::SetGlobalThreads(saved_threads);
  EXPECT_EQ(off_thread, 0u);
}

// The SVS, adaptive and row-sampling coordinators keep each decoded part
// and stack them once, so the allocations of between half and all of the
// final sketch's bytes do not grow with the number of servers. Appending
// part by part reserved exactly each time and so copied the growing
// sketch on every message: about s/2 such allocations. Each server holds
// 16 rows, so no local buffer reaches half a sketch.
TEST(StarAllocBudget, StarCoordinatorsStackTheSketchOnce) {
  constexpr size_t d = 64;
  SvsProtocol svs({.alpha = 0.05, .seed = 5});
  AdaptiveSketchProtocol adaptive({.eps = 0.05, .k = 2, .seed = 5});
  RowSamplingProtocol sampling({.eps = 0.05, .seed = 5});
  for (SketchProtocol* protocol :
       {static_cast<SketchProtocol*>(&svs),
        static_cast<SketchProtocol*>(&adaptive),
        static_cast<SketchProtocol*>(&sampling)}) {
    std::vector<uint64_t> allocs;
    for (const size_t s : {size_t{32}, size_t{256}}) {
      auto cluster = Cluster::Create(TreeShards(16, d, s), 0.1);
      ASSERT_TRUE(cluster.ok());
      auto sized = protocol->Run(*cluster);
      ASSERT_TRUE(sized.ok());
      ASSERT_GT(sized->sketch.rows(), 0u);
      {
        const size_t bytes = sized->sketch.size() * sizeof(double);
        BigAllocCounter counter(bytes / 2, bytes);
        EXPECT_TRUE(protocol->Run(*cluster).ok());
        allocs.push_back(counter.count());
      }
    }
    EXPECT_LE(allocs[1], allocs[0])
        << protocol->Name() << ": " << allocs[0] << " at s=32, "
        << allocs[1] << " at s=256";
  }
}

}  // namespace
}  // namespace distsketch
