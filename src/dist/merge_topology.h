#ifndef DISTSKETCH_DIST_MERGE_TOPOLOGY_H_
#define DISTSKETCH_DIST_MERGE_TOPOLOGY_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "dist/comm_log.h"

namespace distsketch {

/// How per-server sketches are aggregated into the coordinator's result.
///
/// The paper's protocols are all stars: every server talks directly to
/// the coordinator, so coordinator inbound words and merge work grow as
/// O(s). The alternatives route merges through interior *servers*: each
/// interior node folds its children's sketches into its own local
/// accumulator (FD shrink-merge, Gram add, CountSketch bucket add) and
/// forwards one merged sketch upward, so every server still sends
/// exactly one uplink message — total words are unchanged — while the
/// coordinator receives only the top level and the merge work
/// parallelizes across each level of the tree.
enum class TopologyKind {
  /// Every server sends directly to the coordinator (the paper's model).
  kStar,
  /// k-ary reduction tree over the servers; the coordinator receives at
  /// most `fanout` merged sketches.
  kTree,
  /// Chain pipeline: server i forwards its accumulated merge to server
  /// i+1; the coordinator receives exactly one message. Minimizes
  /// coordinator inbound and per-node inbound (one message each) at the
  /// cost of s sequential hops — the latency-insensitive extreme of the
  /// communication-avoiding family.
  kPipeline,
};

std::string_view TopologyKindName(TopologyKind kind);
/// Parses "star" / "tree" / "pipeline"; InvalidArgument otherwise.
StatusOr<TopologyKind> ParseTopologyKind(std::string_view name);

/// Per-run aggregation-topology request. Protocols embed this in their
/// options; the default reproduces the historical star behaviour (and
/// the historical wire transcripts) exactly.
struct MergeTopologyOptions {
  TopologyKind kind = TopologyKind::kStar;
  /// Tree arity (>= 2); ignored by star and pipeline.
  size_t fanout = 8;

  static MergeTopologyOptions Star() { return {TopologyKind::kStar, 0}; }
  static MergeTopologyOptions Tree(size_t fanout = 8) {
    return {TopologyKind::kTree, fanout};
  }
  static MergeTopologyOptions Pipeline() {
    return {TopologyKind::kPipeline, 0};
  }

  bool is_star() const { return kind == TopologyKind::kStar; }
};

/// The concrete aggregation schedule for `s` servers: every server is a
/// node; each node has one parent (another server, or the coordinator)
/// and sends exactly one uplink message, at its assigned *stage*.
///
/// Stages order the sends so that a node transmits only after every one
/// of its children has: stages run front to back, nodes within a stage
/// are independent (their merge compute can run on the thread pool), and
/// the serial send order — stage by stage, ascending node id inside a
/// stage — is a pure function of (s, options), which is what keeps tree
/// transcripts deterministic at any thread count.
class MergeTopology {
 public:
  struct Node {
    /// Uplink target: another server id, or kCoordinator.
    int parent = kCoordinator;
    /// Server ids whose uplinks this node absorbs (ascending).
    std::vector<int> children;
    /// Index into stages() at which this node sends.
    size_t stage = 0;
  };

  /// Builds the schedule. Requires num_servers >= 1 and, for kTree,
  /// fanout >= 2.
  static StatusOr<MergeTopology> Build(size_t num_servers,
                                       MergeTopologyOptions options);

  size_t num_servers() const { return nodes_.size(); }
  const Node& node(size_t i) const { return nodes_[i]; }
  const MergeTopologyOptions& options() const { return options_; }

  /// Send schedule: stages()[r] lists the nodes that transmit at stage r
  /// (ascending ids). Every node appears in exactly one stage.
  const std::vector<std::vector<int>>& stages() const { return stages_; }
  size_t depth() const { return stages_.size(); }

  /// Nodes whose parent is the coordinator (= coordinator inbound
  /// message count on a fault-free run).
  const std::vector<int>& roots() const { return roots_; }
  size_t top_width() const { return roots_.size(); }

  /// The maximum number of uplink payloads any single receiver (server
  /// or coordinator) absorbs — the per-node merge bottleneck. Star: s at
  /// the coordinator. Tree: max(fanout - 1 + 1-ish, top width). Exposed
  /// for the solver's analytic cost model and its tests.
  size_t max_inbound() const;

 private:
  MergeTopology(MergeTopologyOptions options, std::vector<Node> nodes,
                std::vector<std::vector<int>> stages, std::vector<int> roots)
      : options_(options),
        nodes_(std::move(nodes)),
        stages_(std::move(stages)),
        roots_(std::move(roots)) {}

  MergeTopologyOptions options_;
  std::vector<Node> nodes_;
  std::vector<std::vector<int>> stages_;
  std::vector<int> roots_;
};

}  // namespace distsketch

#endif  // DISTSKETCH_DIST_MERGE_TOPOLOGY_H_
