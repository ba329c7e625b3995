#ifndef DISTSKETCH_DIST_ADAPTIVE_SKETCH_PROTOCOL_H_
#define DISTSKETCH_DIST_ADAPTIVE_SKETCH_PROTOCOL_H_

#include <cstdint>

#include "dist/protocol.h"
#include "dist/protocol_family.h"
#include "sketch/sampling_function.h"

namespace distsketch {

/// Options for the adaptive randomized (eps, k)-sketch protocol.
struct AdaptiveSketchOptions {
  double eps = 0.1;
  /// Rank parameter k >= 1 of Definition 3.
  size_t k = 2;
  double delta = 0.1;
  SamplingFunctionKind kind = SamplingFunctionKind::kQuadratic;
  /// Run one more FD over the combined sketch at the coordinator so the
  /// output has the optimal O(k/eps) rows (end of §3.2). Costs no
  /// communication.
  bool recompress = false;
  /// Quantize payload matrices per §3.3 and meter exact bits.
  bool quantize = false;
  uint64_t seed = 42;
};

/// The paper's main algorithmic contribution (§3.2, Theorem 7): the
/// distributed streaming (eps, k)-sketch with communication
/// O(s d k + (sqrt(s) k d / eps) sqrt(log d)) — the first improvement
/// over the deterministic O(s k d / eps) of [27].
///
///   pass:     each server streams its rows through FD (Theorem 1);
///   round 1:  Decomp splits the local sketch into head T^(i) (top-k)
///             and tail R^(i); servers report ||R^(i)||_F^2 (s words);
///   round 2:  coordinator broadcasts the global tail mass (s words),
///             fixing the SVS sampling function at alpha = eps/k;
///   round 3:  servers send Q^(i) = [T^(i); SVS(R^(i))]
///             (s*k*d + tilde-O(sqrt(s) k d / eps) words).
///
/// The concatenation Q is a (3 eps, k)-sketch with
/// ||Q||_F^2 = ||A||_F^2 + O(||A - [A]_k||_F^2).
class AdaptiveSketchProtocol : public SketchProtocol {
 public:
  explicit AdaptiveSketchProtocol(AdaptiveSketchOptions options)
      : options_(options) {}

  std::string_view Name() const override {
    return ProtocolFamilyName(ProtocolFamily::kAdaptiveSketch);
  }
  StatusOr<SketchProtocolResult> Run(Cluster& cluster) override;

  const AdaptiveSketchOptions& options() const { return options_; }

 private:
  AdaptiveSketchOptions options_;
};

}  // namespace distsketch

#endif  // DISTSKETCH_DIST_ADAPTIVE_SKETCH_PROTOCOL_H_
