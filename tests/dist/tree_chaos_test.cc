// Fault injection against the tree-reduce driver: interior-node deaths
// re-parent the dead node's subtree to its nearest live ancestor, so the
// coordinator loses exactly the dead servers' local rows — nothing more.
// Integer-valued (+-1) inputs make the additive merges exact, so the
// degraded tree result must be *bit-identical* to a fault-free run on
// the same data with the lost shards emptied. Mass accounting follows
// the star protocols: every node reports its 1-word mass up front, so a
// node that dies stages later still widens the bound by a known amount.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "dist/countsketch_protocol.h"
#include "dist/exact_gram_protocol.h"
#include "dist/fd_merge_protocol.h"
#include "linalg/blas.h"
#include "telemetry/telemetry.h"
#include "workload/generators.h"
#include "workload/partition.h"

namespace distsketch {
namespace {

constexpr size_t kServers = 12;

Matrix SignData() { return GenerateSignMatrix(96, 7, /*seed=*/31); }

std::vector<Matrix> Parts(const Matrix& a) {
  return PartitionRows(a, kServers, PartitionScheme::kRoundRobin);
}

Cluster MakeCluster(std::vector<Matrix> parts) {
  auto cluster = Cluster::Create(std::move(parts), 0.2);
  DS_CHECK(cluster.ok());
  return std::move(*cluster);
}

/// The oracle for a run that lost `lost`: the same protocol, fault-free,
/// with the lost servers' shards emptied (0-row partitions).
Matrix OracleWithout(const std::vector<int>& lost, const Matrix& a,
                     SketchProtocol& protocol) {
  std::vector<Matrix> parts = Parts(a);
  for (int i : lost) parts[static_cast<size_t>(i)].SetZero(0, a.cols());
  Cluster cluster = MakeCluster(std::move(parts));
  auto result = protocol.Run(cluster);
  DS_CHECK(result.ok());
  return std::move(result->sketch);
}

// With fanout 3 over 12 servers, node 3 is an interior head: its
// children (4, 5) merge into it at stage 0 and it forwards to node 0.
TEST(TreeChaosTest, InteriorDeathLosesExactlyTheDeadNodesRows) {
  const Matrix a = SignData();
  FaultConfig config;
  // After node 3's own 1-word mass report (~t=4 of the id-order report
  // round) but before its uplink stage: sends to or from node 3 fail
  // from t=8 on, so its subtree re-parents to node 0.
  config.per_server[3].die_at_time = 8.0;
  config.seed = 5;

  ExactGramProtocol protocol({.topology = MergeTopologyOptions::Tree(3)});
  Cluster cluster = MakeCluster(Parts(a));
  cluster.InstallFaultPlan(config);
  auto result = protocol.Run(cluster);
  ASSERT_TRUE(result.ok());

  ASSERT_EQ(result->degraded.lost_servers, std::vector<int>{3});
  // The up-front report round landed before the death: mass is known and
  // the widening is exactly the dead shard's Frobenius mass.
  EXPECT_TRUE(result->degraded.mass_known);
  EXPECT_DOUBLE_EQ(result->degraded.BoundWidening(),
                   SquaredFrobeniusNorm(Parts(a)[3]));

  // Children 4 and 5 re-parent: their contributions survive, so the
  // result equals a fault-free run missing only shard 3 — bit for bit
  // (integer data, exact additive merge).
  EXPECT_TRUE(result->sketch == OracleWithout({3}, a, protocol));
}

TEST(TreeChaosTest, DeathDuringReportRoundLeavesMassUnknown) {
  const Matrix a = SignData();
  FaultConfig config;
  config.per_server[6].die_at_time = 0.0;  // dead before its report
  config.seed = 5;

  ExactGramProtocol protocol({.topology = MergeTopologyOptions::Tree(3)});
  Cluster cluster = MakeCluster(Parts(a));
  cluster.InstallFaultPlan(config);
  auto result = protocol.Run(cluster);
  ASSERT_TRUE(result.ok());

  ASSERT_EQ(result->degraded.lost_servers, std::vector<int>{6});
  EXPECT_FALSE(result->degraded.mass_known);
  EXPECT_TRUE(std::isinf(result->degraded.BoundWidening()));
  EXPECT_TRUE(result->sketch == OracleWithout({6}, a, protocol));
}

TEST(TreeChaosTest, MultipleInteriorDeathsCascadeReparenting) {
  const Matrix a = SignData();
  FaultConfig config;
  // Nodes 3 and 6 are both stage-1 heads under node 0: both subtrees
  // must climb to node 0 (and node 0's merge still reaches the
  // coordinator).
  config.per_server[3].die_at_time = 8.0;
  config.per_server[6].die_at_time = 8.0;
  config.seed = 5;

  ExactGramProtocol protocol({.topology = MergeTopologyOptions::Tree(3)});
  Cluster cluster = MakeCluster(Parts(a));
  cluster.InstallFaultPlan(config);
  auto result = protocol.Run(cluster);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(result->degraded.lost_servers.size(), 2u);
  EXPECT_TRUE(result->degraded.mass_known);
  EXPECT_TRUE(result->sketch == OracleWithout({3, 6}, a, protocol));
}

TEST(TreeChaosTest, FlakyLinksRetryWithoutChangingTheAnswer) {
  const Matrix a = SignData();
  FaultConfig config;
  config.default_profile.drop_prob = 0.1;
  config.default_profile.truncate_prob = 0.1;
  config.default_profile.corrupt_prob = 0.05;
  config.seed = 23;

  ExactGramProtocol protocol({.topology = MergeTopologyOptions::Tree(3)});
  Cluster faulty = MakeCluster(Parts(a));
  faulty.InstallFaultPlan(config);
  auto degraded_run = protocol.Run(faulty);
  ASSERT_TRUE(degraded_run.ok());
  ASSERT_FALSE(degraded_run->degraded.degraded())
      << "this seed is expected to retry through every fault";
  EXPECT_GT(degraded_run->comm.retransmit_words, 0u);

  Cluster ideal = MakeCluster(Parts(a));
  auto clean_run = protocol.Run(ideal);
  ASSERT_TRUE(clean_run.ok());
  // Retries re-send identical payloads; the merged result is unchanged.
  // (Fault mode adds the 1-word mass reports, so word totals differ.)
  EXPECT_TRUE(degraded_run->sketch == clean_run->sketch);
}

TEST(TreeChaosTest, CountSketchRoutesSeedAroundDeadForwarder) {
  const Matrix a = SignData();
  FaultConfig config;
  config.per_server[3].die_at_time = 0.0;  // dead before the downlink
  config.seed = 5;

  CountSketchProtocol protocol({.eps = 0.4,
                                .oversample = 2.0,
                                .seed = 77,
                                .topology = MergeTopologyOptions::Tree(3)});
  Cluster cluster = MakeCluster(Parts(a));
  cluster.InstallFaultPlan(config);
  auto result = protocol.Run(cluster);
  ASSERT_TRUE(result.ok());

  // Node 3 forwarded the seed to 4 and 5; with it dead they fetch the
  // seed from the next live ancestor instead, compress their shards
  // under the same hashes, and only shard 3 is missing from the sum.
  ASSERT_EQ(result->degraded.lost_servers, std::vector<int>{3});
  EXPECT_TRUE(result->sketch == OracleWithout({3}, a, protocol));
}

TEST(TreeChaosTest, ChaosRunsBitIdenticalAcrossThreadCounts) {
  const Matrix a = SignData();
  FaultConfig config;
  config.default_profile.drop_prob = 0.12;
  config.default_profile.truncate_prob = 0.08;
  config.default_profile.transient_fail_prob = 0.05;
  config.default_profile.latency_jitter = 0.25;
  config.per_server[3].die_at_time = 8.0;
  config.seed = 41;

  const size_t saved = ThreadPool::GlobalThreads();
  FdMergeProtocol protocol(
      {.eps = 0.3, .k = 0, .topology = MergeTopologyOptions::Tree(3)});

  ThreadPool::SetGlobalThreads(1);
  Cluster base_cluster = MakeCluster(Parts(a));
  base_cluster.InstallFaultPlan(config);
  auto base = protocol.Run(base_cluster);
  ASSERT_TRUE(base.ok());
  const uint64_t base_digest =
      TranscriptDigest(base_cluster.log(), base_cluster.faults());

  for (const size_t threads : {2u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    Cluster cluster = MakeCluster(Parts(a));
    cluster.InstallFaultPlan(config);
    auto got = protocol.Run(cluster);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got->sketch == base->sketch) << "threads=" << threads;
    EXPECT_EQ(TranscriptDigest(cluster.log(), cluster.faults()),
              base_digest)
        << "threads=" << threads;
    EXPECT_EQ(got->degraded.lost_servers, base->degraded.lost_servers);
    EXPECT_EQ(got->comm.retransmit_words, base->comm.retransmit_words);
  }
  ThreadPool::SetGlobalThreads(saved);
}

// Node 3 heads {4, 5} under node 0 (fanout 3 over 12 servers) and dies
// after both children delivered to it and the driver absorbed them, but
// before its own uplink stage. The children are leaves, so their uplinks
// were released after the absorb; replaying them to node 0 calls their
// make_message again. The degraded result must still be bit-identical to
// the fault-free oracle without shard 3 (integer data; exact merges), and
// identical at 1 and 4 pool threads, transcript included.
void ExpectRebuiltReplayMatchesOracle(SketchProtocol& protocol,
                                      double die_at_time) {
  const Matrix a = SignData();
  FaultConfig config;
  config.per_server[3].die_at_time = die_at_time;
  config.seed = 5;
  const Matrix oracle = OracleWithout({3}, a, protocol);

  const size_t saved = ThreadPool::GlobalThreads();
  Matrix first_sketch;
  uint64_t first_digest = 0;
  for (const size_t threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ThreadPool::SetGlobalThreads(threads);
    Cluster cluster = MakeCluster(Parts(a));
    cluster.InstallFaultPlan(config);
    telemetry::Telemetry telem;
    StatusOr<SketchProtocolResult> result = Status::Internal("not run");
    {
      telemetry::ScopedTelemetry scope(telem);
      result = protocol.Run(cluster);
    }
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->degraded.lost_servers, std::vector<int>{3});
    EXPECT_TRUE(result->degraded.mass_known);
    // Both children's uplinks reached node 3 before it died, so both
    // replays were rebuilt rather than re-parented on first send.
    EXPECT_EQ(telem.metrics().CounterValue("tree_reduce.rebuilt_uplinks"),
              2u);
    EXPECT_TRUE(result->sketch == oracle);
    const uint64_t digest = TranscriptDigest(cluster.log(), cluster.faults());
    if (threads == 1) {
      first_sketch = result->sketch;
      first_digest = digest;
    } else {
      EXPECT_TRUE(result->sketch == first_sketch);
      EXPECT_EQ(digest, first_digest);
    }
  }
  ThreadPool::SetGlobalThreads(saved);
}

// Death times come from the virtual clock: every send advances it, so
// node 3's window of death (after its children's stage-0 sends, before
// its own) starts later for CountSketch, whose seed downlink sends first.
TEST(TreeChaosTest, ExactGramReplaysRebuiltLeafUplinks) {
  ExactGramProtocol protocol({.topology = MergeTopologyOptions::Tree(3)});
  ExpectRebuiltReplayMatchesOracle(protocol, /*die_at_time=*/18.0);
}

TEST(TreeChaosTest, CountSketchReplaysRebuiltLeafUplinks) {
  CountSketchProtocol protocol({.eps = 0.4,
                                .oversample = 2.0,
                                .seed = 77,
                                .topology = MergeTopologyOptions::Tree(3)});
  ExpectRebuiltReplayMatchesOracle(protocol, /*die_at_time=*/30.0);
}

// eps = 0.01 sizes the sketch (101 rows) above the 96 input rows, so no
// node ever shrinks and FD merging is exact: the oracle comparison is
// then bit for bit, as for the additive protocols.
TEST(TreeChaosTest, FdMergeReplaysRebuiltLeafUplinks) {
  FdMergeOptions options;
  options.eps = 0.01;
  options.topology = MergeTopologyOptions::Tree(3);
  FdMergeProtocol protocol(options);
  ExpectRebuiltReplayMatchesOracle(protocol, /*die_at_time=*/18.0);
}

}  // namespace
}  // namespace distsketch
