#ifndef DISTSKETCH_DIST_COUNTSKETCH_PROTOCOL_H_
#define DISTSKETCH_DIST_COUNTSKETCH_PROTOCOL_H_

#include <cstdint>

#include "dist/merge_topology.h"
#include "dist/protocol.h"
#include "dist/protocol_family.h"
#include "sketch/countsketch.h"

namespace distsketch {

/// Options for the distributed CountSketch projection protocol.
struct CountSketchProtocolOptions {
  /// Accuracy parameter: m = CountSketchBuckets(eps, oversample) buckets
  /// give coverr <= eps * ||A||_F^2 with constant probability.
  double eps = 0.1;
  double oversample = kDefaultCountSketchOversample;
  /// Seed of the shared hash family. The coordinator owns it and ships
  /// it down the topology; servers use the seed they decode off the
  /// wire, never ambient configuration.
  uint64_t seed = 0x5eedULL;
  /// Aggregation topology. CountSketch is linear (S A = sum_i S A^(i)),
  /// so bucket matrices add associatively and any topology computes the
  /// same sum; trees also cut the coordinator's *outbound* seed traffic
  /// to top_width words, since interior nodes forward the seed to their
  /// children.
  MergeTopologyOptions topology{};
};

/// The randomized *projection* protocol, and the one protocol that runs
/// in both partition models: every server streams its local matrix
/// through the shared-seed CountSketch compressor and bucket matrices are
/// summed up the merge topology — one m-by-d message per server,
/// coordinator inbound top_width messages. The hash index of local row r
/// on server i is server_id * 2^32 + r under PartitionModel::kRows (whole
/// rows are distinct across servers) and the shared r under kAdditive
/// (every share of row r must hash alike, so the sum is S A). One round
/// (plus the 1-word seed downlink), O(s d / eps^2) words independent of
/// n, coverr <= eps * ||A||_F^2 with constant probability (DESIGN.md
/// §14). Under kAdditive a lost share is fatal: the run returns
/// kUnavailable, since no widening of the bound covers the missing cross
/// terms of A^T A.
class CountSketchProtocol : public SketchProtocol {
 public:
  explicit CountSketchProtocol(CountSketchProtocolOptions options)
      : options_(options) {}

  std::string_view Name() const override {
    return ProtocolFamilyName(ProtocolFamily::kCountSketch);
  }
  StatusOr<SketchProtocolResult> Run(Cluster& cluster) override;

  const CountSketchProtocolOptions& options() const { return options_; }

 private:
  CountSketchProtocolOptions options_;
};

}  // namespace distsketch

#endif  // DISTSKETCH_DIST_COUNTSKETCH_PROTOCOL_H_
