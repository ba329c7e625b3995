#include "dist/tree_reduce.h"

#include <cstddef>
#include <utility>

#include "common/thread_pool.h"
#include "telemetry/span.h"
#include "wire/checksum.h"

namespace distsketch {
namespace {

/// Per-node transfer state the driver threads through a run.
struct NodeState {
  /// Senders whose uplinks were delivered to this node, in deterministic
  /// arrival order. Only ids: the delivered bytes are the sender's
  /// retained `uplink.payload` (checked on delivery), so this node's
  /// stage absorbs from that one copy. If this node dies, these are the
  /// senders that must retransmit to its live ancestor.
  std::vector<int> contributors;
  /// This node's built uplink, the one copy of it the run holds. In
  /// fault mode it is kept to the end of the run so it can be replayed
  /// verbatim if a downstream ancestor dies; on the ideal wire no server
  /// is ever lost, so it is released once its receiver has absorbed it.
  wire::Message uplink;
  /// Fault-mode bookkeeping.
  double mass = 0.0;
  bool mass_reported = false;
  bool loss_recorded = false;
};

}  // namespace

StatusOr<TreeReduceStats> RunTreeReduce(Cluster& cluster,
                                        const MergeTopology& topology,
                                        const TreeReduceHooks& hooks,
                                        DegradedModeInfo& degraded) {
  const size_t s = topology.num_servers();
  if (s != cluster.num_servers()) {
    return Status::InvalidArgument(
        "tree_reduce: topology built for " + std::to_string(s) +
        " servers, cluster has " + std::to_string(cluster.num_servers()));
  }
  if (!hooks.absorb || !hooks.make_message) {
    return Status::InvalidArgument(
        "tree_reduce: absorb and make_message hooks are required");
  }
  const bool fault_mode = cluster.fault_mode();
  if (fault_mode && !hooks.local_mass) {
    return Status::InvalidArgument(
        "tree_reduce: local_mass hook is required in fault mode");
  }

  TreeReduceStats stats;
  std::vector<NodeState> nodes(s);
  // First hook/decode error seen anywhere; checked after every phase.
  Status first_error = Status::OK();
  auto note_error = [&](const Status& st) {
    if (!st.ok() && first_error.ok()) first_error = st;
  };

  auto first_live_ancestor = [&](int node) {
    int a = topology.node(static_cast<size_t>(node)).parent;
    while (a != kCoordinator && cluster.ServerLost(a)) {
      a = topology.node(static_cast<size_t>(a)).parent;
    }
    return a;
  };

  // A node's local rows are unrecoverable once its channel is exhausted;
  // record the loss exactly once, with its mass iff the 1-word report
  // made it to the coordinator first (star-protocol semantics).
  auto record_own_loss = [&](int node) {
    NodeState& st = nodes[static_cast<size_t>(node)];
    if (st.loss_recorded) return;
    st.loss_recorded = true;
    degraded.RecordLoss(node, st.mass, st.mass_reported);
  };

  // deliver/reparent are mutually recursive: retransmitting a kept
  // uplink can itself discover further dead nodes. Each discovery marks
  // one more node lost, so the recursion is bounded by s.
  std::function<void(int, int)> deliver;
  std::function<void(int)> reparent_contributors;

  deliver = [&](int node, int target) {
    NodeState& st = nodes[static_cast<size_t>(node)];
    while (true) {
      SendOutcome out = cluster.Send(node, target, st.uplink);
      if (out.delivered) {
        // One copy per uplink: the transport verified the sender's
        // retained payload in place and delivered a view of it, which is
        // the buffer the receiver's absorb reads.
        DS_CHECK(out.payload.data() == st.uplink.payload.data() &&
                 out.payload.size() == st.uplink.payload.size());
        if (target == kCoordinator) {
          note_error(hooks.absorb(kCoordinator, st.uplink.payload));
          ++stats.coordinator_inbound;
          if (!fault_mode) st.uplink = wire::Message();
        } else {
          nodes[static_cast<size_t>(target)].contributors.push_back(node);
        }
        return;
      }
      if (cluster.ServerLost(node)) {
        // Sender's channel exhausted: node (and only node) is gone. Its
        // already-absorbed subtree survives in the contributors' kept
        // uplinks — route those around the corpse.
        record_own_loss(node);
        reparent_contributors(node);
        return;
      }
      if (target != kCoordinator && cluster.ServerLost(target)) {
        // Interior death discovered by this send: the target's own
        // contribution is accounted at its stage; our payload just
        // climbs to the nearest live ancestor.
        target = first_live_ancestor(target);
        ++stats.reparented_sends;
        continue;
      }
      // Undelivered with both endpoints live cannot happen under the
      // fault model (loss is permanent); fail safe rather than drop
      // mass silently.
      record_own_loss(node);
      return;
    }
  };

  reparent_contributors = [&](int node) {
    NodeState& st = nodes[static_cast<size_t>(node)];
    if (st.contributors.empty()) return;
    std::vector<int> contributors = std::move(st.contributors);
    st.contributors.clear();
    const int ancestor = first_live_ancestor(node);
    for (int c : contributors) {
      ++stats.reparented_sends;
      deliver(c, ancestor);
    }
  };

  // Mass reports go out before any uplink, every node in ascending id
  // order, exactly like the star protocols: the coordinator learns each
  // server's 1-word mass while its channel is still young, so a node
  // that dies stages later widens the bound by a *known* amount. A
  // report that fails is itself the loss signal (mass unknown), recorded
  // by ReportLocalMass.
  if (fault_mode) {
    for (size_t i = 0; i < s; ++i) {
      NodeState& st = nodes[i];
      st.mass = hooks.local_mass(static_cast<int>(i));
      if (ReportLocalMass(cluster, static_cast<int>(i), st.mass, degraded)) {
        st.mass_reported = true;
      } else {
        st.loss_recorded = true;
      }
    }
  }

  const auto& stages = topology.stages();
  for (size_t level = 0; level < stages.size(); ++level) {
    const std::vector<int>& stage = stages[level];
    telemetry::Span stage_span("tree_reduce/stage",
                               telemetry::Phase::kCompute);
    stage_span.SetAttr("level", static_cast<uint64_t>(level));
    stage_span.SetAttr("width", static_cast<uint64_t>(stage.size()));

    // Merge compute fans out across the pool: each node absorbs its
    // contributors' uplinks and builds and checksums its own, touching
    // only its slot and its contributors' (no two nodes share one), so
    // the result is thread-count invariant.
    std::vector<Status> merge_status = ParallelMap<Status>(
        stage.size(), [&](size_t i) -> Status {
          const int node = stage[i];
          NodeState& st = nodes[static_cast<size_t>(node)];
          if (cluster.ServerLost(node)) return Status::OK();
          telemetry::Span node_span("tree_reduce/node_merge",
                                    telemetry::Phase::kCompute);
          node_span.SetAttr("level", static_cast<uint64_t>(level));
          node_span.SetAttr("node", static_cast<int64_t>(node));
          node_span.SetAttr("inbound",
                            static_cast<uint64_t>(st.contributors.size()));
          // Every contributor sent at an earlier stage and nothing else
          // touches its slot before this stage's transfers, so reading
          // (and on the ideal wire releasing) its uplink here is
          // race-free.
          for (int c : st.contributors) {
            NodeState& sender = nodes[static_cast<size_t>(c)];
            DS_RETURN_IF_ERROR(hooks.absorb(node, sender.uplink.payload));
            if (!fault_mode) sender.uplink = wire::Message();
          }
          DS_ASSIGN_OR_RETURN(st.uplink, hooks.make_message(node));
          // The frame checksum, taken here while the payload is still in
          // cache rather than on the serial transfer path.
          st.uplink.payload_checksum = Checksum64(
              st.uplink.payload.data(), st.uplink.payload.size());
          return Status::OK();
        });
    for (const auto& st : merge_status) note_error(st);
    DS_RETURN_IF_ERROR(first_error);

    // Transfers stay serial in ascending node order: the transcript (and
    // the per-server fault RNG consumption) is independent of DS_THREADS.
    for (int node : stage) {
      if (cluster.ServerLost(node)) {
        // Died before its turn (e.g. as a discovered-dead receiver).
        record_own_loss(node);
        reparent_contributors(node);
        continue;
      }
      deliver(node, topology.node(static_cast<size_t>(node)).parent);
      DS_RETURN_IF_ERROR(first_error);
    }
  }
  DS_RETURN_IF_ERROR(first_error);
  return stats;
}

}  // namespace distsketch
