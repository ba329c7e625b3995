#ifndef DISTSKETCH_DIST_SVS_PROTOCOL_H_
#define DISTSKETCH_DIST_SVS_PROTOCOL_H_

#include <cstdint>

#include "dist/checkpoint.h"
#include "dist/protocol.h"
#include "dist/protocol_family.h"
#include "sketch/sampling_function.h"

namespace distsketch {

/// Options for the randomized SVS protocol (§3.1).
struct SvsProtocolOptions {
  /// Target coverr <= O(alpha) * ||A||_F^2 with probability 1 - delta.
  double alpha = 0.1;
  double delta = 0.1;
  /// Which Theorem's sampling function: quadratic (Thm 6, default —
  /// sqrt(log d) cheaper) or linear (Thm 5).
  SamplingFunctionKind kind = SamplingFunctionKind::kQuadratic;
  uint64_t seed = 42;
  /// Coordinator checkpoint/restart hook (dist/checkpoint.h). A resumed
  /// run restores the broadcast global mass and per-server round-1/2
  /// outcomes from the checkpoint (skipping those rounds), re-derives
  /// each remaining server's sampling seed, and skips servers whose
  /// rows already reached the coordinator — so the appended sketch rows
  /// match an uninterrupted run bit-for-bit.
  CheckpointConfig checkpoint{};
};

/// The randomized covariance-sketch protocol of §3.1 (Algorithms 1+2):
///
///   round 1: servers report local Frobenius mass (s words);
///   round 2: the coordinator broadcasts the global mass, fixing the
///            sampling function g shared by all servers (footnote 6);
///   round 3: each server runs SVS on its local matrix — Bernoulli-sample
///            rows of the aggregated form Sigma V^T with probability
///            g(sigma^2), rescale by sigma/sqrt(g(sigma^2)) — and sends
///            the sampled rows.
///
/// With the quadratic g (Thm 6) the expected cost is
/// O((sqrt(s) d / alpha) sqrt(log(d/delta))) words: the sqrt(s) scaling
/// that beats the deterministic Omega(s d / alpha) lower bound (Thm 3).
/// SVS needs the SVD of the local input, so this is a distributed batch
/// protocol; the streaming composition is AdaptiveSketchProtocol.
class SvsProtocol : public SketchProtocol {
 public:
  explicit SvsProtocol(SvsProtocolOptions options) : options_(options) {}

  std::string_view Name() const override {
    return ProtocolFamilyName(ProtocolFamily::kSvs);
  }
  StatusOr<SketchProtocolResult> Run(Cluster& cluster) override;

  const SvsProtocolOptions& options() const { return options_; }

 private:
  SvsProtocolOptions options_;
};

}  // namespace distsketch

#endif  // DISTSKETCH_DIST_SVS_PROTOCOL_H_
