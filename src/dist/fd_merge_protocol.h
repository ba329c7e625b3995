#ifndef DISTSKETCH_DIST_FD_MERGE_PROTOCOL_H_
#define DISTSKETCH_DIST_FD_MERGE_PROTOCOL_H_

#include <cstdint>

#include "dist/checkpoint.h"
#include "dist/merge_topology.h"
#include "dist/protocol.h"
#include "dist/protocol_family.h"

namespace distsketch {

/// Options for the deterministic FD-merge protocol.
struct FdMergeOptions {
  /// Accuracy parameter of Definition 3.
  double eps = 0.1;
  /// Rank parameter; k = 0 requests the (eps, 0) guarantee
  /// coverr <= eps * ||A||_F^2.
  size_t k = 0;
  /// When true, local sketches are rounded per §3.3 before transmission
  /// and metered in exact bits (the word-complexity version of Thm 2).
  bool quantize = false;
  /// Coordinator checkpoint/restart hook (dist/checkpoint.h). Servers
  /// already folded into a resumed checkpoint are skipped, so the merge
  /// order — and the sketch bytes — match an uninterrupted run; lost
  /// servers are never marked done and are retried on resume.
  CheckpointConfig checkpoint{};
  /// Aggregation topology (dist/merge_topology.h), run by RunTreeReduce.
  /// The default star, its depth-1 case, is the paper's one-round protocol
  /// and keeps the frozen v1 wire transcript bit-for-bit; tree/pipeline
  /// route uplinks through interior servers that shrink-merge in place
  /// (FD mergeability), cutting the coordinator's inbound traffic to
  /// top_width messages. `quantize` and `checkpoint` stay star-only
  /// (InvalidArgument otherwise): an interior node would round again what
  /// it absorbed, and the done bitmap cannot name contributors re-parented
  /// to the coordinator past a dead interior node.
  MergeTopologyOptions topology{};
};

/// The deterministic protocol of Theorem 2: each server streams its local
/// rows through Frequent Directions (one pass, O(kd/eps) space), sends
/// the local sketch to the coordinator, and the coordinator merges the s
/// sketches through another FD (mergeability [1]). One round,
/// O(s k d / eps) words, covariance error eps * ||A - [A]_k||_F^2 / k —
/// optimal for deterministic protocols by Theorem 3.
class FdMergeProtocol : public SketchProtocol {
 public:
  explicit FdMergeProtocol(FdMergeOptions options) : options_(options) {}

  std::string_view Name() const override {
    return ProtocolFamilyName(ProtocolFamily::kFdMerge);
  }
  StatusOr<SketchProtocolResult> Run(Cluster& cluster) override;

  const FdMergeOptions& options() const { return options_; }

 private:
  FdMergeOptions options_;
};

}  // namespace distsketch

#endif  // DISTSKETCH_DIST_FD_MERGE_PROTOCOL_H_
