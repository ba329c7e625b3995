#ifndef DISTSKETCH_DIST_TREE_REDUCE_H_
#define DISTSKETCH_DIST_TREE_REDUCE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "dist/cluster.h"
#include "dist/merge_topology.h"
#include "dist/protocol.h"
#include "linalg/matrix.h"
#include "wire/message.h"

namespace distsketch {

/// Nodes per window: RunTreeReduce builds, sends and absorbs a stage
/// this many consecutive nodes at a time. A fixed constant (never derived
/// from the thread count), so which uplinks are live together, and the
/// memory a run holds, is the same at any DS_THREADS.
inline constexpr size_t kTreeReduceWindow = 64;

/// Protocol-specific pieces of a topology-driven reduction. The driver
/// owns scheduling, transfers, loss accounting and re-parenting; the
/// hooks own the sketch math (what "merge" means).
struct TreeReduceHooks {
  /// Folds one delivered uplink payload into `node`'s accumulator
  /// (`node == kCoordinator` for the final merge). Server nodes absorb
  /// after the window that delivered to them has sent, on the thread
  /// pool, distinct receivers concurrently — implementations may mutate
  /// only node-local state — and each receiver's uplinks in arrival
  /// order; every absorb into a node lands before the node's own stage.
  /// The coordinator absorbs on the caller thread as each uplink
  /// arrives. `payload` is the sender's retained uplink payload (the
  /// buffer its make_message built), which is the delivered view itself
  /// (the driver checks data() and size()); it is only valid for the
  /// duration of the call.
  std::function<Status(int node, const std::vector<uint8_t>& payload)>
      absorb;
  /// Builds `node`'s uplink message, called on the thread pool at the
  /// node's stage once every delivered uplink has been absorbed into it.
  /// A node that received uplinks encodes its accumulator (its local
  /// input plus everything absorbed); a node with no topology children
  /// absorbs nothing, so it may compute its whole local contribution
  /// here and encode it straight into the uplink, keeping no accumulator.
  /// For such a childless node make_message must be pure: in fault mode
  /// the driver releases its uplink once absorbed and, if the receiver
  /// dies later, calls make_message again on the caller thread to replay
  /// the same bytes. RunTreeReduce checksums the returned payload right
  /// after, while it is still in cache.
  std::function<StatusOr<wire::Message>(int node)> make_message;
  /// Optional. `node`'s own local Frobenius mass, the degraded-mode
  /// accounting unit, asked for in fault mode only. Defaults to
  /// cluster.server(node).squared_frobenius_norm().
  std::function<double(int node)> local_mass;
  /// Optional. Called on the caller thread, never concurrently with the
  /// other hooks, with the payload buffer of every uplink the driver
  /// releases; the hook may keep the buffer so a later make_message
  /// reuses its capacity. RunSumReduce is the library's one user.
  std::function<void(int node, std::vector<uint8_t> payload)> recycle;
  /// Optional. Names the childless nodes whose rows the caller already
  /// holds (a restored checkpoint): they report, build and send nothing.
  /// Asked once per node, on the caller thread, before the first stage.
  std::function<bool(int node)> skip;
  /// Optional. Called on the caller thread once the uplink of a node whose
  /// parent is the coordinator is settled: absorbed, or its sender
  /// recorded lost. It may save a checkpoint; returning true stops the run
  /// there, with nothing more sent, and sets TreeReduceStats::halted.
  std::function<StatusOr<bool>(int node, bool absorbed)> settled;
};

/// Driver-level counters (the CommLog meters the wire itself).
struct TreeReduceStats {
  /// Sends redirected past a dead interior node to a live ancestor.
  size_t reparented_sends = 0;
  /// True iff the settled hook stopped the run early.
  bool halted = false;
};

/// Runs one reduction over the topology, stage by stage and, inside a
/// stage, kTreeReduceWindow consecutive nodes at a time. Each window
/// builds its live nodes' uplinks on the thread pool, sends them serially
/// in ascending node order, then has every receiver absorb what this
/// window delivered to it, on the pool. Per-node isolation keeps the
/// result bit-identical at any DS_THREADS, and the wire transcript is a
/// pure function of (data, topology, fault plan).
///
/// A star is the depth-1 case. Fault handling is degraded mode plus
/// re-parenting: a node whose own channel is exhausted is recorded lost
/// (its local rows are the only unrecoverable contribution), and every
/// uplink it had already absorbed is retransmitted by its original sender
/// to the node's nearest live ancestor — recursively, so an arbitrary set
/// of interior deaths degrades the result by exactly the lost nodes' local
/// masses. In fault mode each node reports its 1-word local mass to the
/// coordinator, so the widened error bound stays honest: on a depth-1
/// topology right before its uplink (a failed report skips the uplink),
/// deeper every node before the first stage.
///
/// The run holds one copy of each uplink: the sender's. The transport
/// verifies it in place and delivers a view of it (checked by identity);
/// a delivery to an interior node records only the sender id, and the
/// receiver absorbs from the sender's copy once the window has sent.
/// Uplinks are then released, window by window (and one the coordinator
/// absorbed, at once), so a run holds one window of uplinks at a time,
/// plus those a replay rebuilds in it and, in fault mode only, the
/// uplink of every node with topology children: its make_message
/// consumed its accumulator, so a replay must resend those bytes
/// verbatim. A replayed childless uplink is rebuilt by make_message
/// (counted by the telemetry counter tree_reduce.rebuilt_uplinks).
StatusOr<TreeReduceStats> RunTreeReduce(Cluster& cluster,
                                        const MergeTopology& topology,
                                        const TreeReduceHooks& hooks,
                                        DegradedModeInfo& degraded);

/// The math of a reduction whose merge is a matrix sum (CountSketch's
/// bucket matrices, exact_gram's Grams): each node contributes one
/// rows-by-cols matrix and the coordinator receives their sum.
struct SumReduceHooks {
  /// Shape of every contribution and sum; size of every encoded uplink.
  size_t rows = 0;
  size_t cols = 0;
  size_t payload_bytes = 0;
  /// Writes `node`'s contribution into the zeroed `local`, on the pool.
  /// Pure: a replay calls it again and must get the same bits.
  std::function<Status(int node, Matrix& local)> fill;
  /// Encodes a contribution or a sum into an uplink reusing `buffer`.
  std::function<wire::Message(const Matrix& sum, std::vector<uint8_t> buffer)>
      encode;
  /// Adds one delivered uplink payload into `sum` in place.
  std::function<Status(const std::vector<uint8_t>& payload, Matrix& sum)> add;
  /// Optional, as TreeReduceHooks::local_mass.
  std::function<double(int node)> local_mass;
};

/// RunTreeReduce for a summing merge; returns the coordinator's sum. It
/// owns every sketch-sized buffer and allocates each on the calling
/// thread, so the pool's schedule never decides which malloc arena holds
/// one: a sum per node with topology children (seeded with the node's own
/// contribution before the first stage), one leaf scratch per pool lane
/// (kept across runs; a leaf fills one and encodes it straight into its
/// uplink), and one uplink buffer per receiver plus a window's worth for
/// the leaves, recycled as the driver releases uplinks.
StatusOr<Matrix> RunSumReduce(Cluster& cluster, const MergeTopology& topology,
                              const SumReduceHooks& hooks,
                              DegradedModeInfo& degraded);

}  // namespace distsketch

#endif  // DISTSKETCH_DIST_TREE_REDUCE_H_
