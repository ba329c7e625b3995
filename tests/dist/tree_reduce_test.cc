// The tree-reduce driver holds one copy of each uplink: a receiver's
// absorb hook is handed the very buffer the sender's make_message built
// (checked by data() identity), on the ideal wire and in fault mode,
// including uplinks that re-parent around a dead interior node.
//
// Each uplink is a 2 x s matrix: row 0 is the indicator of the subtree
// the sender has merged so far (absorbs add it), row 1 marks the sender
// alone (absorbs ignore it), so the hook can name the sender of any
// payload it is handed and the coordinator's row 0 shows exactly which
// servers' contributions arrived.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "dist/cluster.h"
#include "dist/comm_log.h"
#include "dist/fault_injection.h"
#include "dist/merge_topology.h"
#include "dist/tree_reduce.h"
#include "telemetry/telemetry.h"
#include "wire/codec.h"
#include "wire/message.h"

namespace distsketch {
namespace {

struct Recorder {
  explicit Recorder(size_t s)
      : acc(s, Matrix(1, s)), built(s, nullptr), absorbed(s), total(1, s) {
    for (size_t i = 0; i < s; ++i) acc[i](0, i) = 1.0;
  }

  /// Node-local accumulators (row 0 of the uplink).
  std::vector<Matrix> acc;
  /// payload.data() of each node's uplink, as make_message built it.
  std::vector<const uint8_t*> built;
  /// Senders each server absorbed, in call order.
  std::vector<std::vector<int>> absorbed;
  std::vector<int> coordinator_absorbed;
  Matrix total;
  /// Per receiver (slot s = coordinator): 1 iff an absorb was handed a
  /// buffer other than the sender's own. One byte per slot, so pool
  /// tasks of distinct receivers never share a memory location.
  std::vector<uint8_t> foreign_at;

  TreeReduceHooks Hooks() {
    const size_t s = acc.size();
    foreign_at.assign(s + 1, 0);
    TreeReduceHooks hooks;
    hooks.make_message = [this, s](int node) -> StatusOr<wire::Message> {
      Matrix m(2, s);
      for (size_t j = 0; j < s; ++j) {
        m(0, j) = acc[static_cast<size_t>(node)](0, j);
      }
      m(1, static_cast<size_t>(node)) = 1.0;
      wire::Message msg = wire::DenseMessage("uplink", m);
      built[static_cast<size_t>(node)] = msg.payload.data();
      return msg;
    };
    hooks.absorb = [this, s](int node,
                             const std::vector<uint8_t>& payload) -> Status {
      DS_ASSIGN_OR_RETURN(
          wire::DecodedMatrix dec,
          wire::DecodeMatrixPayload(payload.data(), payload.size()));
      int sender = -1;
      for (size_t j = 0; j < s; ++j) {
        if (dec.matrix(1, j) == 1.0) sender = static_cast<int>(j);
      }
      if (sender < 0) return Status::Internal("uplink names no sender");
      const bool coord = node == kCoordinator;
      const size_t slot = coord ? s : static_cast<size_t>(node);
      if (payload.data() != built[static_cast<size_t>(sender)]) {
        foreign_at[slot] = 1;
      }
      Matrix& dst = coord ? total : acc[static_cast<size_t>(node)];
      for (size_t j = 0; j < s; ++j) dst(0, j) += dec.matrix(0, j);
      (coord ? coordinator_absorbed : absorbed[slot]).push_back(sender);
      return Status::OK();
    };
    hooks.local_mass = [](int) { return 1.0; };
    return hooks;
  }
};

Cluster MakeCluster(size_t s) {
  std::vector<Matrix> parts(s, Matrix(1, 2));
  auto cluster = Cluster::Create(std::move(parts), 0.2);
  DS_CHECK(cluster.ok());
  return std::move(*cluster);
}

/// The senders `node` hears from on a fault-free wire, in arrival order:
/// stage by stage, ascending id inside a stage.
std::vector<int> ArrivalOrder(const MergeTopology& topo, int node) {
  std::vector<int> out;
  for (const auto& stage : topo.stages()) {
    for (int c : stage) {
      if (topo.node(static_cast<size_t>(c)).parent == node) out.push_back(c);
    }
  }
  return out;
}

void ExpectFaultFreeReduce(size_t s, size_t fanout, const FaultConfig* plan) {
  SCOPED_TRACE(testing::Message() << "s=" << s << " fanout=" << fanout
                                  << (plan ? " fault mode" : " ideal wire"));
  auto topo = MergeTopology::Build(s, MergeTopologyOptions::Tree(fanout));
  ASSERT_TRUE(topo.ok());
  Cluster cluster = MakeCluster(s);
  if (plan != nullptr) cluster.InstallFaultPlan(*plan);
  Recorder rec(s);
  DegradedModeInfo degraded;
  auto stats = RunTreeReduce(cluster, *topo, rec.Hooks(), degraded);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_FALSE(degraded.degraded());

  for (size_t i = 0; i <= s; ++i) {
    EXPECT_EQ(rec.foreign_at[i], 0) << "receiver slot " << i;
  }
  for (size_t i = 0; i < s; ++i) {
    EXPECT_EQ(rec.absorbed[i], ArrivalOrder(*topo, static_cast<int>(i)))
        << "node " << i;
  }
  EXPECT_EQ(rec.coordinator_absorbed, ArrivalOrder(*topo, kCoordinator));
  for (size_t j = 0; j < s; ++j) EXPECT_EQ(rec.total(0, j), 1.0) << j;
}

TEST(TreeReduceTest, IdealWireAbsorbsTheSendersOwnBuffer) {
  for (const size_t fanout : {2, 3, 8}) {
    for (const size_t s : {1, 5, 12, 40}) {
      ExpectFaultFreeReduce(s, fanout, nullptr);
    }
  }
}

TEST(TreeReduceTest, FaultModeRetriesAbsorbTheSendersOwnBuffer) {
  FaultConfig plan;
  plan.default_profile.drop_prob = 0.1;
  plan.default_profile.truncate_prob = 0.1;
  plan.default_profile.corrupt_prob = 0.05;
  plan.seed = 23;
  ExpectFaultFreeReduce(12, 3, &plan);
  ExpectFaultFreeReduce(40, 4, &plan);
}

// Node 3 heads {4, 5} under node 0 (fanout 3 over 12 servers) and dies
// after its mass report: its children's kept uplinks re-parent to node 0,
// which must still be handed their original buffers.
TEST(TreeReduceTest, ReparentedUplinksAreTheSendersOwnBuffer) {
  const size_t s = 12;
  auto topo = MergeTopology::Build(s, MergeTopologyOptions::Tree(3));
  ASSERT_TRUE(topo.ok());
  FaultConfig plan;
  plan.per_server[3].die_at_time = 8.0;
  plan.seed = 5;
  Cluster cluster = MakeCluster(s);
  cluster.InstallFaultPlan(plan);
  Recorder rec(s);
  DegradedModeInfo degraded;
  auto stats = RunTreeReduce(cluster, *topo, rec.Hooks(), degraded);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(degraded.lost_servers, std::vector<int>{3});
  EXPECT_GT(stats->reparented_sends, 0u);

  for (size_t i = 0; i <= s; ++i) {
    EXPECT_EQ(rec.foreign_at[i], 0) << "receiver slot " << i;
  }
  for (int child : topo->node(3).children) {
    size_t hits = 0;
    for (int sender : rec.absorbed[0]) hits += sender == child ? 1 : 0;
    EXPECT_EQ(hits, 1u) << "child " << child << " of the dead node";
  }
  for (size_t j = 0; j < s; ++j) {
    EXPECT_EQ(rec.total(0, j), j == 3 ? 0.0 : 1.0) << j;
  }
}

// The pool runs every stage's merges concurrently; the identity and the
// result must not depend on how many threads it has.
TEST(TreeReduceTest, IdentityHoldsAtAnyThreadCount) {
  const size_t saved = ThreadPool::GlobalThreads();
  FaultConfig plan;
  plan.default_profile.drop_prob = 0.1;
  plan.seed = 7;
  for (const size_t threads : {1, 2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    ExpectFaultFreeReduce(40, 3, nullptr);
    ExpectFaultFreeReduce(40, 3, &plan);
  }
  ThreadPool::SetGlobalThreads(saved);
}

// Stages wider than one window: builds, sends and absorbs run window by
// window, and every receiver must still absorb its senders in arrival
// order, from the senders' own buffers.
TEST(TreeReduceTest, StagesWiderThanAWindowKeepArrivalOrder) {
  FaultConfig plan;
  plan.default_profile.drop_prob = 0.1;
  plan.default_profile.corrupt_prob = 0.05;
  plan.seed = 29;
  for (const size_t fanout : {2, 8}) {
    ExpectFaultFreeReduce(3 * kTreeReduceWindow + 7, fanout, nullptr);
    ExpectFaultFreeReduce(3 * kTreeReduceWindow + 7, fanout, &plan);
  }
}

// Node 3 heads {4, 5} under node 0 and dies at t = 18: after both
// children delivered to it and were absorbed, before its own stage. The
// leaves' uplinks were released after that absorb, so the replay to node
// 0 rebuilds them through make_message, and node 0 must be handed the
// rebuilt buffers.
TEST(TreeReduceTest, ReplayRebuildsReleasedLeafUplinks) {
  const size_t s = 12;
  auto topo = MergeTopology::Build(s, MergeTopologyOptions::Tree(3));
  ASSERT_TRUE(topo.ok());
  FaultConfig plan;
  plan.per_server[3].die_at_time = 18.0;
  plan.seed = 5;
  Cluster cluster = MakeCluster(s);
  cluster.InstallFaultPlan(plan);
  Recorder rec(s);
  DegradedModeInfo degraded;
  telemetry::Telemetry telem;
  StatusOr<TreeReduceStats> stats = Status::Internal("not run");
  {
    telemetry::ScopedTelemetry scope(telem);
    stats = RunTreeReduce(cluster, *topo, rec.Hooks(), degraded);
  }
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(degraded.lost_servers, std::vector<int>{3});

  EXPECT_EQ(rec.absorbed[3], (std::vector<int>{4, 5}));
  EXPECT_EQ(telem.metrics().CounterValue("tree_reduce.rebuilt_uplinks"), 2u);
  for (size_t i = 0; i <= s; ++i) {
    EXPECT_EQ(rec.foreign_at[i], 0) << "receiver slot " << i;
  }
  for (int child : {4, 5}) {
    EXPECT_EQ(std::count(rec.absorbed[0].begin(), rec.absorbed[0].end(),
                         child),
              1)
        << "child " << child << " of the dead node";
  }
  for (size_t j = 0; j < s; ++j) {
    EXPECT_EQ(rec.total(0, j), j == 3 ? 0.0 : 1.0) << j;
  }
}

// The driver releases uplinks window by window through the recycle hook:
// on the ideal wire at most one window of uplinks is live at once and
// every uplink is handed back by the end; in fault mode the uplinks of
// nodes that absorbed others may also stay, for replay.
TEST(TreeReduceTest, AtMostOneWindowOfUplinksIsLive) {
  const size_t s = 4 * kTreeReduceWindow;
  auto topo = MergeTopology::Build(s, MergeTopologyOptions::Tree(8));
  ASSERT_TRUE(topo.ok());
  size_t receivers = 0;
  for (size_t i = 0; i < s; ++i) {
    if (!topo->node(i).children.empty()) ++receivers;
  }
  FaultConfig plan;
  plan.default_profile.drop_prob = 0.1;
  plan.seed = 13;
  for (const bool fault_mode : {false, true}) {
    SCOPED_TRACE(fault_mode ? "fault mode" : "ideal wire");
    Cluster cluster = MakeCluster(s);
    if (fault_mode) cluster.InstallFaultPlan(plan);
    Recorder rec(s);
    TreeReduceHooks hooks = rec.Hooks();
    std::atomic<int64_t> live{0};
    std::atomic<int64_t> peak{0};
    hooks.make_message = [&, build = hooks.make_message](int node) {
      const int64_t now = live.fetch_add(1) + 1;
      int64_t seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      return build(node);
    };
    size_t recycled = 0;
    hooks.recycle = [&](int node, std::vector<uint8_t> payload) {
      EXPECT_EQ(payload.data(), rec.built[static_cast<size_t>(node)]);
      live.fetch_sub(1);
      ++recycled;
    };
    DegradedModeInfo degraded;
    auto stats = RunTreeReduce(cluster, *topo, hooks, degraded);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_FALSE(degraded.degraded());
    for (size_t j = 0; j < s; ++j) EXPECT_EQ(rec.total(0, j), 1.0) << j;
    if (fault_mode) {
      EXPECT_LE(peak.load(),
                static_cast<int64_t>(kTreeReduceWindow + receivers));
    } else {
      EXPECT_LE(peak.load(), static_cast<int64_t>(kTreeReduceWindow));
      EXPECT_EQ(recycled, s);
      EXPECT_EQ(live.load(), 0);
    }
  }
}

// Payload records of a run's transcript, in send order (NAK control
// frames dropped).
std::vector<MessageRecord> PayloadRecords(const Cluster& cluster) {
  std::vector<MessageRecord> out;
  for (const MessageRecord& rec : cluster.log().messages()) {
    if (!rec.control) out.push_back(rec);
  }
  return out;
}

FaultConfig TransientPlan(uint64_t seed) {
  FaultConfig plan;
  plan.default_profile.drop_prob = 0.15;
  plan.default_profile.corrupt_prob = 0.1;
  plan.default_profile.duplicate_prob = 0.1;
  plan.seed = seed;
  return plan;
}

// Deaths are keyed on the simulated clock, so the order of the fault-mode
// mass reports is part of every transcript. On a depth-1 topology (the
// star) each server's report goes right before its own uplink; deeper,
// every report goes before the first uplink.
TEST(TreeReduceTest, StarReportsEachMassRightBeforeItsUplink) {
  const size_t s = 9;
  for (const auto& options :
       {MergeTopologyOptions::Star(), MergeTopologyOptions::Tree(3)}) {
    auto topo = MergeTopology::Build(s, options);
    ASSERT_TRUE(topo.ok());
    SCOPED_TRACE(testing::Message() << "depth " << topo->depth());
    Cluster cluster = MakeCluster(s);
    cluster.InstallFaultPlan(TransientPlan(41));
    Recorder rec(s);
    DegradedModeInfo degraded;
    auto stats = RunTreeReduce(cluster, *topo, rec.Hooks(), degraded);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_FALSE(degraded.degraded());

    const std::vector<MessageRecord> records = PayloadRecords(cluster);
    size_t last_report = 0;
    size_t first_uplink = records.size();
    for (size_t r = 0; r < records.size(); ++r) {
      if (records[r].tag == "local_mass") last_report = r;
      if (records[r].tag == "uplink") first_uplink = std::min(first_uplink, r);
    }
    if (topo->depth() > 1) {
      EXPECT_LT(last_report, first_uplink);
      continue;
    }
    for (size_t i = 0; i < s; ++i) {
      const int id = static_cast<int>(i);
      auto first = std::find_if(
          records.begin(), records.end(), [&](const MessageRecord& r) {
            return r.tag == "uplink" && r.from == id;
          });
      ASSERT_NE(first, records.end()) << "server " << i;
      ASSERT_NE(first, records.begin()) << "server " << i;
      const MessageRecord& before = *std::prev(first);
      EXPECT_EQ(before.tag, "local_mass") << "server " << i;
      EXPECT_EQ(before.from, id) << "server " << i;
    }
  }
}

// A skipped node is already held by the caller: it reports, builds and
// sends nothing, on a star and on a tree (where only leaves may be
// skipped), and the rest of the reduction is untouched.
TEST(TreeReduceTest, SkippedNodesReportBuildAndSendNothing) {
  const size_t s = 12;
  for (const auto& options :
       {MergeTopologyOptions::Star(), MergeTopologyOptions::Tree(3)}) {
    auto topo = MergeTopology::Build(s, options);
    ASSERT_TRUE(topo.ok());
    SCOPED_TRACE(testing::Message() << "depth " << topo->depth());
    std::vector<int> skipped;
    for (size_t i = 0; i < s; ++i) {
      if (i % 4 == 1 && topo->node(i).children.empty()) {
        skipped.push_back(static_cast<int>(i));
      }
    }
    ASSERT_GE(skipped.size(), 2u);
    auto is_skipped = [&](int node) {
      return std::find(skipped.begin(), skipped.end(), node) != skipped.end();
    };
    Cluster cluster = MakeCluster(s);
    cluster.InstallFaultPlan(TransientPlan(43));
    Recorder rec(s);
    TreeReduceHooks hooks = rec.Hooks();
    std::atomic<int> built_skipped{0};
    hooks.make_message = [&, build = hooks.make_message](int node) {
      if (is_skipped(node)) built_skipped.fetch_add(1);
      return build(node);
    };
    hooks.skip = is_skipped;
    DegradedModeInfo degraded;
    auto stats = RunTreeReduce(cluster, *topo, hooks, degraded);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_FALSE(degraded.degraded());

    EXPECT_EQ(built_skipped.load(), 0);
    for (const MessageRecord& r : cluster.log().messages()) {
      EXPECT_FALSE(is_skipped(r.from) || is_skipped(r.to))
          << r.tag << " " << r.from << " -> " << r.to;
    }
    for (size_t j = 0; j < s; ++j) {
      EXPECT_EQ(rec.total(0, j), is_skipped(static_cast<int>(j)) ? 0.0 : 1.0)
          << j;
    }
  }
}

// The settled hook sees each coordinator-bound uplink once it is absorbed
// or its sender lost (server 1 dies before its report), in send order;
// when it asks to halt, nothing more is sent.
TEST(TreeReduceTest, SettledHookHaltStopsSendingAfterThatNode) {
  const size_t s = 6;
  auto topo = MergeTopology::Build(s, MergeTopologyOptions::Star());
  ASSERT_TRUE(topo.ok());
  FaultConfig plan = TransientPlan(47);
  plan.per_server[1].die_at_time = 0.0;
  Cluster cluster = MakeCluster(s);
  cluster.InstallFaultPlan(plan);
  Recorder rec(s);
  TreeReduceHooks hooks = rec.Hooks();
  std::vector<std::pair<int, bool>> settled;
  hooks.settled = [&](int node, bool absorbed) -> StatusOr<bool> {
    settled.emplace_back(node, absorbed);
    return node == 3;
  };
  DegradedModeInfo degraded;
  auto stats = RunTreeReduce(cluster, *topo, hooks, degraded);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->halted);

  const std::vector<std::pair<int, bool>> expected = {
      {0, true}, {1, false}, {2, true}, {3, true}};
  EXPECT_EQ(settled, expected);
  EXPECT_EQ(degraded.lost_servers, std::vector<int>{1});
  EXPECT_EQ(rec.coordinator_absorbed, (std::vector<int>{0, 2, 3}));
  for (const MessageRecord& r : cluster.log().messages()) {
    EXPECT_TRUE(r.from <= 3 && r.to <= 3)
        << r.tag << " " << r.from << " -> " << r.to;
  }
}

}  // namespace
}  // namespace distsketch
