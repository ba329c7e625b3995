#ifndef DISTSKETCH_DIST_SKETCH_GOAL_H_
#define DISTSKETCH_DIST_SKETCH_GOAL_H_

#include <cstddef>

namespace distsketch {

/// What the caller needs from a covariance sketch, stated as constraints
/// on the *answer* — never as protocol parameters. It is the input of the
/// one protocol selector, autoconf::SolveSketchConfig (AutoConfRequest::
/// goal), which the service's kConfigure front door fills from the wire.
struct SketchGoal {
  /// Accuracy parameter of Definition 3: coverr <= eps * ||A - [A]_k||_F^2
  /// / k for k >= 1, or eps * ||A||_F^2 for k == 0.
  double eps = 0.1;
  /// Rank parameter; 0 selects the (eps, 0) guarantee eps*||A||_F^2.
  size_t k = 0;
  /// Whether a randomized answer (correct w.h.p.) is acceptable. When
  /// false only the deterministic protocols are considered — this is the
  /// Theorem 3 regime, where Omega(s d k / eps) is unavoidable.
  bool allow_randomized = true;
  /// Failure probability for randomized protocols.
  double delta = 0.1;
  /// The data is split across servers arbitrarily (A = sum_i A^(i)
  /// entry-wise), not row-partitioned — the paper's concluding open
  /// question. Only linear sketches survive this model: CountSketch
  /// buckets add across shards of the *same* row, while FD merges,
  /// per-shard Grams and row sampling all assume whole rows. Requesting
  /// this restricts selection to the CountSketch family, whose protocol
  /// runs on a Cluster::CreateAdditive cluster.
  bool arbitrary_partition = false;
};

}  // namespace distsketch

#endif  // DISTSKETCH_DIST_SKETCH_GOAL_H_
