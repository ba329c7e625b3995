#ifndef DISTSKETCH_DIST_TREE_REDUCE_H_
#define DISTSKETCH_DIST_TREE_REDUCE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "dist/cluster.h"
#include "dist/merge_topology.h"
#include "dist/protocol.h"
#include "wire/message.h"

namespace distsketch {

/// Protocol-specific pieces of a topology-driven reduction. The driver
/// owns scheduling, transfers, loss accounting and re-parenting; the
/// hooks own the sketch math (what "merge" means).
struct TreeReduceHooks {
  /// Folds one delivered uplink payload into `node`'s accumulator
  /// (`node == kCoordinator` for the final merge). Called on the thread
  /// pool for distinct server nodes concurrently — implementations may
  /// mutate only node-local state — and on the caller thread for the
  /// coordinator, in deterministic arrival order. `payload` is the
  /// sender's retained uplink payload (the buffer its make_message
  /// built), which is the delivered view itself (the driver checks data()
  /// and size()); it is only valid for the duration of the call.
  std::function<Status(int node, const std::vector<uint8_t>& payload)>
      absorb;
  /// Builds `node`'s uplink message, called on the thread pool at the
  /// node's stage once every delivered uplink has been absorbed into it.
  /// A node that received uplinks encodes its accumulator (its local
  /// input plus everything absorbed); a node with no topology children
  /// absorbs nothing, so it may compute its whole local contribution
  /// here and encode it straight into the uplink, keeping no accumulator.
  /// RunTreeReduce checksums the returned payload right after, while it
  /// is still in cache.
  std::function<StatusOr<wire::Message>(int node)> make_message;
  /// `node`'s own local Frobenius mass — the degraded-mode accounting
  /// unit. Required when the cluster is in fault mode.
  std::function<double(int node)> local_mass;
};

/// Driver-level counters (the CommLog meters the wire itself).
struct TreeReduceStats {
  /// Uplink payloads the coordinator absorbed.
  size_t coordinator_inbound = 0;
  /// Sends redirected past a dead interior node to a live ancestor.
  size_t reparented_sends = 0;
};

/// Runs one reduction over the topology: stage by stage, every live node
/// absorbs its received payloads and builds its uplink on the thread
/// pool (per-node isolation keeps the result bit-identical at any
/// DS_THREADS), then sends serially in ascending node order — so the
/// wire transcript is a pure function of (data, topology, fault plan).
///
/// Fault handling mirrors the star protocols' degraded mode, extended
/// with re-parenting: a node whose own channel is exhausted is recorded
/// lost (its local rows are the only unrecoverable contribution), and
/// every uplink it had already absorbed is retransmitted by its original
/// sender to the node's nearest live ancestor — recursively, so an
/// arbitrary set of interior deaths degrades the result by exactly the
/// lost nodes' local masses. In fault mode each node first reports its
/// 1-word local mass straight to the coordinator, exactly like the star
/// protocols, so the widened error bound stays honest.
///
/// The run holds one copy of each uplink: the sender's. The transport
/// verifies it in place and delivers a view of it (checked by identity);
/// a delivery to an interior node records only the sender id, and the
/// receiver's stage absorbs from the sender's copy. On the ideal wire an
/// uplink is released once its receiver has absorbed it; in fault mode
/// every uplink is kept to the end of the run for replay.
StatusOr<TreeReduceStats> RunTreeReduce(Cluster& cluster,
                                        const MergeTopology& topology,
                                        const TreeReduceHooks& hooks,
                                        DegradedModeInfo& degraded);

}  // namespace distsketch

#endif  // DISTSKETCH_DIST_TREE_REDUCE_H_
