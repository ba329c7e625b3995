// The wire delivers without copying: every path a message can take to its
// receiver hands over a view of the sender's own payload bytes, checked
// by data() identity. Covered: Cluster::Send (ideal wire and under a
// fault plan with retries), a retransmission to a live ancestor after the
// receiver died, and the tree driver re-parenting around a dead interior
// node. The service runner's requests are covered in
// tests/service/service_runner_test.cc.

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dist/cluster.h"
#include "dist/fault_injection.h"
#include "dist/merge_topology.h"
#include "dist/protocol.h"
#include "dist/tree_reduce.h"
#include "wire/message.h"

namespace distsketch {
namespace {

wire::Message Payload(const std::string& tag, double base) {
  return wire::ScalarsMessage(tag, {base, base + 1.0, base + 2.0});
}

FaultConfig RetryingPlan(uint64_t seed) {
  FaultConfig plan;
  plan.default_profile.drop_prob = 0.2;
  plan.default_profile.truncate_prob = 0.2;
  plan.default_profile.corrupt_prob = 0.2;
  plan.default_profile.duplicate_prob = 0.2;
  plan.max_retries = 12;
  plan.seed = seed;
  return plan;
}

Cluster MakeCluster(size_t s) {
  auto cluster = Cluster::Create(std::vector<Matrix>(s, Matrix(1, 2)), 0.2);
  DS_CHECK(cluster.ok());
  return std::move(*cluster);
}

void ExpectViews(const SendOutcome& out, const std::vector<uint8_t>& bytes) {
  ASSERT_TRUE(out.delivered);
  EXPECT_EQ(out.payload.data(), bytes.data());
  EXPECT_EQ(out.payload.size(), bytes.size());
}

TEST(DeliveredViewTest, ClusterSendDeliversTheCallersBytes) {
  Cluster cluster = MakeCluster(4);
  const wire::Message msg = Payload("up", 1.0);
  ExpectViews(cluster.Send(2, kCoordinator, msg), msg.payload);
  ExpectViews(cluster.Send(kCoordinator, 1, msg), msg.payload);
}

TEST(DeliveredViewTest, RetriedSendsDeliverTheCallersBytes) {
  Cluster cluster = MakeCluster(16);
  cluster.InstallFaultPlan(RetryingPlan(31));
  int retried = 0;
  for (int server = 0; server < 16; ++server) {
    const wire::Message msg = Payload("up", server);
    SendOutcome out = cluster.Send(server, kCoordinator, msg);
    if (!out.delivered) continue;
    ExpectViews(out, msg.payload);
    if (out.attempts > 1) ++retried;
  }
  EXPECT_GT(retried, 0);
}

TEST(DeliveredViewTest, RetransmissionToALiveAncestorDeliversTheSameBytes) {
  FaultConfig plan;
  plan.per_server[3].die_at_time = 0.0;
  plan.seed = 3;
  CommLog log(64);
  FaultInjector injector(plan);
  const wire::Message msg = Payload("uplink", 2.0);
  const SendOutcome lost = injector.Send(log, 5, 3, msg);
  EXPECT_FALSE(lost.delivered);
  EXPECT_TRUE(lost.payload.empty());
  EXPECT_TRUE(injector.IsLost(3));
  ExpectViews(injector.Send(log, 5, 0, msg), msg.payload);
}

// Node 3 heads {4, 5} under node 0 (fanout 3 over 12 servers) and dies
// after its mass report: its children's kept uplinks climb to node 0.
// Every absorb must be handed the sender's own buffer, including theirs.
TEST(DeliveredViewTest, ReparentedTreeUplinksAreTheSendersBytes) {
  const size_t s = 12;
  auto topo = MergeTopology::Build(s, MergeTopologyOptions::Tree(3));
  ASSERT_TRUE(topo.ok());
  FaultConfig plan = RetryingPlan(5);
  plan.per_server[3] = plan.default_profile;
  plan.per_server[3].die_at_time = 8.0;
  Cluster cluster = MakeCluster(s);
  cluster.InstallFaultPlan(plan);

  // Each uplink is 1x1 carrying its sender's id, so an absorb can name
  // whose buffer it was handed.
  std::vector<const uint8_t*> built(s, nullptr);
  TreeReduceHooks hooks;
  hooks.make_message = [&](int node) -> StatusOr<wire::Message> {
    wire::Message msg = wire::ScalarMessage("uplink", node);
    built[static_cast<size_t>(node)] = msg.payload.data();
    return msg;
  };
  hooks.absorb = [&](int, const std::vector<uint8_t>& payload) -> Status {
    DS_ASSIGN_OR_RETURN(double sender, wire::DecodeScalarPayload(payload));
    if (payload.data() != built[static_cast<size_t>(sender)]) {
      return Status::Internal("absorb was handed a copy of an uplink");
    }
    return Status::OK();
  };
  hooks.local_mass = [](int) { return 1.0; };
  DegradedModeInfo degraded;
  auto stats = RunTreeReduce(cluster, *topo, hooks, degraded);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(degraded.lost_servers, std::vector<int>{3});
  EXPECT_GT(stats->reparented_sends, 0u);
}

}  // namespace
}  // namespace distsketch
