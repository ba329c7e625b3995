#include "dist/tree_reduce.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <mutex>
#include <span>
#include <utility>

#include "common/thread_pool.h"
#include "telemetry/span.h"
#include "telemetry/telemetry.h"
#include "wire/checksum.h"

namespace distsketch {
namespace {

/// Per-node transfer state the driver threads through a run.
struct NodeState {
  /// Senders whose uplinks were delivered to this node, in deterministic
  /// arrival order. Only ids: the delivered bytes are the sender's
  /// retained `uplink.payload` (checked on delivery), which this node
  /// absorbs after the delivering window has sent. If this node dies,
  /// these are the senders that must retransmit to its live ancestor.
  std::vector<int> contributors;
  /// This node's built uplink, the one copy of it the run holds, from its
  /// window's build until the driver releases it (`built` says which).
  wire::Message uplink;
  bool built = false;
  /// Named by the skip hook: the caller already holds its rows.
  bool skipped = false;
  /// Fault-mode bookkeeping.
  double mass = 0.0;
  bool mass_reported = false;
  bool loss_recorded = false;
};

/// One receiver's deliveries of a window, senders in arrival order.
struct Inbound {
  int receiver = 0;
  std::vector<int> senders;
};

Status CheckServerCount(const Cluster& cluster,
                        const MergeTopology& topology) {
  const size_t s = topology.num_servers();
  if (s == cluster.num_servers()) return Status::OK();
  return Status::InvalidArgument(
      "tree_reduce: topology built for " + std::to_string(s) +
      " servers, cluster has " + std::to_string(cluster.num_servers()));
}

}  // namespace

StatusOr<TreeReduceStats> RunTreeReduce(Cluster& cluster,
                                        const MergeTopology& topology,
                                        const TreeReduceHooks& hooks,
                                        DegradedModeInfo& degraded) {
  DS_RETURN_IF_ERROR(CheckServerCount(cluster, topology));
  const size_t s = topology.num_servers();
  if (!hooks.absorb || !hooks.make_message) {
    return Status::InvalidArgument(
        "tree_reduce: absorb and make_message hooks are required");
  }
  const bool fault_mode = cluster.fault_mode();

  TreeReduceStats stats;
  std::vector<NodeState> nodes(s);
  for (size_t i = 0; i < s; ++i) {
    nodes[i].skipped = hooks.skip && hooks.skip(static_cast<int>(i));
    DS_CHECK(!nodes[i].skipped || topology.node(i).children.empty());
  }
  // (receiver, sender) of every delivery to a server in the current
  // window, in arrival order; absorbed and cleared once the window sent.
  std::vector<std::pair<int, int>> arrivals;
  // First hook/decode error seen anywhere; checked after every phase.
  Status first_error = Status::OK();
  auto note_error = [&](const Status& st) {
    if (!st.ok() && first_error.ok()) first_error = st;
  };

  // Builds `node`'s uplink and takes its frame checksum while the payload
  // is still in cache, rather than on the serial transfer path.
  auto build = [&](int node) -> Status {
    NodeState& st = nodes[static_cast<size_t>(node)];
    DS_ASSIGN_OR_RETURN(st.uplink, hooks.make_message(node));
    st.uplink.payload_checksum =
        wire::FrameChecksum(st.uplink.payload.data(),
                            st.uplink.payload.size());
    st.built = true;
    return Status::OK();
  };
  auto release = [&](int node) {
    NodeState& st = nodes[static_cast<size_t>(node)];
    if (!st.built) return;
    st.built = false;
    if (hooks.recycle) hooks.recycle(node, std::move(st.uplink.payload));
    st.uplink = wire::Message();
  };
  // In fault mode a node that absorbed others keeps its uplink to the end
  // of the run: its make_message consumed its accumulator, so a replay
  // must resend these bytes. Every other uplink is released once
  // absorbed; a childless one is rebuilt if a replay needs it.
  auto kept_for_replay = [&](int node) {
    return fault_mode &&
           !topology.node(static_cast<size_t>(node)).children.empty();
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
  // made it to the coordinator first.
  auto record_own_loss = [&](int node) {
    NodeState& st = nodes[static_cast<size_t>(node)];
    if (st.loss_recorded) return;
    st.loss_recorded = true;
    degraded.RecordLoss(node, st.mass, st.mass_reported);
  };

  // deliver/reparent are mutually recursive: retransmitting an uplink can
  // itself discover further dead nodes. Each discovery marks one more
  // node lost, so the recursion is bounded by s.
  std::function<void(int, int)> deliver;
  std::function<void(int)> reparent_contributors;

  deliver = [&](int node, int target) {
    NodeState& st = nodes[static_cast<size_t>(node)];
    if (!st.built) {
      // A released childless uplink replayed around a dead receiver: its
      // pure make_message rebuilds the bytes it sent the first time.
      const Status rebuilt = build(node);
      if (!rebuilt.ok()) {
        note_error(rebuilt);
        return;
      }
      telemetry::Count("tree_reduce.rebuilt_uplinks");
    }
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
          // The coordinator never dies, so nothing replays this uplink.
          release(node);
        } else {
          nodes[static_cast<size_t>(target)].contributors.push_back(node);
          arrivals.emplace_back(target, node);
        }
        return;
      }
      if (cluster.ServerLost(node)) {
        // Sender's channel exhausted: node (and only node) is gone. Its
        // already-absorbed subtree survives in the contributors' uplinks
        // (kept, or rebuilt) — route those around the corpse.
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

  // Absorbs the current window's deliveries. Receivers sit at later
  // stages than every sender of the window, so each absorb lands before
  // its receiver's own stage, and a receiver's uplinks arrive in the same
  // order whichever window carried them. Distinct receivers touch
  // distinct accumulators and read distinct senders' uplinks, so they
  // run concurrently; a receiver already lost skips its absorbs (its
  // contributors replay to a live ancestor at its stage).
  auto absorb_arrivals = [&](size_t level) -> Status {
    std::vector<Inbound> inbound;
    for (const auto& [receiver, sender] : arrivals) {
      if (cluster.ServerLost(receiver)) continue;
      auto it = std::find_if(
          inbound.begin(), inbound.end(),
          [&](const Inbound& in) { return in.receiver == receiver; });
      if (it == inbound.end()) {
        inbound.push_back({receiver, {}});
        it = std::prev(inbound.end());
      }
      it->senders.push_back(sender);
    }
    std::vector<Status> absorbed = ParallelMap<Status>(
        inbound.size(), [&](size_t k) -> Status {
          const Inbound& in = inbound[k];
          telemetry::Span span("tree_reduce/absorb",
                               telemetry::Phase::kCompute);
          span.SetAttr("level", static_cast<uint64_t>(level));
          span.SetAttr("node", static_cast<int64_t>(in.receiver));
          span.SetAttr("inbound", static_cast<uint64_t>(in.senders.size()));
          for (int c : in.senders) {
            DS_RETURN_IF_ERROR(hooks.absorb(
                in.receiver, nodes[static_cast<size_t>(c)].uplink.payload));
          }
          return Status::OK();
        });
    for (const Status& st : absorbed) note_error(st);
    return first_error;
  };

  // Sends `node`'s 1-word mass report to the coordinator. A report that
  // fails is itself the loss signal (mass unknown), recorded by
  // ReportLocalMass; the node then sends no uplink.
  auto report_mass = [&](int node) {
    NodeState& st = nodes[static_cast<size_t>(node)];
    st.mass = hooks.local_mass
                  ? hooks.local_mass(node)
                  : cluster.server(static_cast<size_t>(node))
                        .squared_frobenius_norm();
    st.mass_reported = ReportLocalMass(cluster, node, st.mass, degraded);
    st.loss_recorded = !st.mass_reported;
  };
  // On a depth-1 topology (a star) each report goes right before its
  // node's uplink. Deeper, every report goes before the first stage, in
  // ascending id order, so a node that dies stages later widens the bound
  // by a *known* amount. Deaths are keyed on the simulated clock, so the
  // order is part of every fault-mode transcript.
  const bool report_before_uplink = topology.depth() == 1;
  if (fault_mode && !report_before_uplink) {
    for (size_t i = 0; i < s; ++i) {
      if (!nodes[i].skipped) report_mass(static_cast<int>(i));
    }
  }

  const auto& stages = topology.stages();
  for (size_t level = 0; level < stages.size(); ++level) {
    const std::vector<int>& stage = stages[level];
    telemetry::Span stage_span("tree_reduce/stage",
                               telemetry::Phase::kCompute);
    stage_span.SetAttr("level", static_cast<uint64_t>(level));
    stage_span.SetAttr("width", static_cast<uint64_t>(stage.size()));

    for (size_t begin = 0; begin < stage.size();
         begin += kTreeReduceWindow) {
      const std::span<const int> window(
          stage.data() + begin,
          std::min(kTreeReduceWindow, stage.size() - begin));

      // Build compute fans out across the pool: every contributor of a
      // window node was absorbed by an earlier window, and each node
      // touches only its own slot, so the result is thread-count
      // invariant.
      std::vector<Status> build_status = ParallelMap<Status>(
          window.size(), [&](size_t k) -> Status {
            const int node = window[k];
            if (cluster.ServerLost(node) ||
                nodes[static_cast<size_t>(node)].skipped) {
              return Status::OK();
            }
            telemetry::Span node_span("tree_reduce/node_build",
                                      telemetry::Phase::kCompute);
            node_span.SetAttr("level", static_cast<uint64_t>(level));
            node_span.SetAttr("node", static_cast<int64_t>(node));
            return build(node);
          });
      for (const Status& st : build_status) note_error(st);
      DS_RETURN_IF_ERROR(first_error);

      // Transfers stay serial in ascending node order: the transcript
      // (and the per-server fault RNG consumption) is independent of
      // DS_THREADS.
      for (int node : window) {
        const NodeState& st = nodes[static_cast<size_t>(node)];
        if (st.skipped) continue;
        if (fault_mode && report_before_uplink) report_mass(node);
        const int parent = topology.node(static_cast<size_t>(node)).parent;
        if (cluster.ServerLost(node)) {
          // Died before its turn (its report failed, or it was
          // discovered dead as a receiver).
          record_own_loss(node);
          reparent_contributors(node);
        } else {
          deliver(node, parent);
        }
        DS_RETURN_IF_ERROR(first_error);
        if (parent == kCoordinator && hooks.settled) {
          DS_ASSIGN_OR_RETURN(stats.halted,
                              hooks.settled(node, !st.loss_recorded));
          if (stats.halted) return stats;
        }
      }

      DS_RETURN_IF_ERROR(absorb_arrivals(level));
      for (int node : window) {
        if (!kept_for_replay(node)) release(node);
      }
      for (const auto& [receiver, sender] : arrivals) {
        if (!kept_for_replay(sender)) release(sender);
      }
      arrivals.clear();
    }
  }
  DS_RETURN_IF_ERROR(first_error);
  return stats;
}

StatusOr<Matrix> RunSumReduce(Cluster& cluster, const MergeTopology& topology,
                              const SumReduceHooks& hooks,
                              DegradedModeInfo& degraded) {
  DS_RETURN_IF_ERROR(CheckServerCount(cluster, topology));
  const size_t s = topology.num_servers();
  // In server order: each receiver's sum and uplink buffer, then the
  // leaves' window of buffers. A window builds at most kTreeReduceWindow
  // uplinks and `recycle` returns each released one, so only a replay,
  // on this thread, may find the pool empty and allocate.
  std::vector<Matrix> sums(s);
  std::vector<size_t> receivers;
  std::vector<std::vector<uint8_t>> buffers;
  std::mutex buffers_mu;  // a window's builds take buffers concurrently
  for (size_t i = 0; i < s; ++i) {
    if (topology.node(i).children.empty()) continue;
    sums[i].SetZero(hooks.rows, hooks.cols);
    buffers.emplace_back().reserve(hooks.payload_bytes);
    receivers.push_back(i);
  }
  for (size_t k = std::min(kTreeReduceWindow, s - receivers.size()); k > 0;
       --k) {
    buffers.emplace_back().reserve(hooks.payload_bytes);
  }
  // One leaf scratch per pool lane, the calling thread's and kept across
  // runs: a per-worker one would be allocated by whichever worker first
  // claims a leaf, including the fresh workers of a resized pool.
  thread_local std::vector<Matrix> callers_scratch;
  std::vector<Matrix>& scratch = callers_scratch;  // indexed by lane
  scratch.resize(std::max(scratch.size(), ThreadPool::GlobalThreads()));
  for (Matrix& m : scratch) m.SetZero(hooks.rows, hooks.cols);

  std::vector<Status> seeded =
      ParallelMap<Status>(receivers.size(), [&](size_t k) {
        return hooks.fill(static_cast<int>(receivers[k]), sums[receivers[k]]);
      });
  for (const Status& st : seeded) DS_RETURN_IF_ERROR(st);
  Matrix total;
  total.SetZero(hooks.rows, hooks.cols);

  TreeReduceHooks tree;
  tree.absorb = [&](int node, const std::vector<uint8_t>& payload) {
    return hooks.add(payload, node == kCoordinator
                                  ? total
                                  : sums[static_cast<size_t>(node)]);
  };
  tree.make_message = [&](int node) -> StatusOr<wire::Message> {
    const size_t i = static_cast<size_t>(node);
    std::vector<uint8_t> buffer;
    {
      std::lock_guard<std::mutex> lock(buffers_mu);
      if (!buffers.empty()) {
        buffer = std::move(buffers.back());
        buffers.pop_back();
      }
    }
    if (!topology.node(i).children.empty()) {
      wire::Message uplink = hooks.encode(sums[i], std::move(buffer));
      // Every receiver of this uplink sits at a later stage, and a replay
      // resends the kept uplink, not the sum: free it.
      sums[i] = Matrix();
      return uplink;
    }
    Matrix& local = scratch[ThreadPool::CurrentLane()];
    local.SetZero(hooks.rows, hooks.cols);
    DS_RETURN_IF_ERROR(hooks.fill(node, local));
    return hooks.encode(local, std::move(buffer));
  };
  tree.recycle = [&](int, std::vector<uint8_t> payload) {
    buffers.push_back(std::move(payload));
  };
  tree.local_mass = hooks.local_mass;
  DS_RETURN_IF_ERROR(RunTreeReduce(cluster, topology, tree, degraded).status());
  return total;
}

}  // namespace distsketch
