#ifndef DISTSKETCH_DIST_EXACT_GRAM_PROTOCOL_H_
#define DISTSKETCH_DIST_EXACT_GRAM_PROTOCOL_H_

#include "dist/merge_topology.h"
#include "dist/protocol.h"
#include "dist/protocol_family.h"

namespace distsketch {

/// Options for the exact-Gram protocol.
struct ExactGramOptions {
  /// Aggregation topology (dist/merge_topology.h), run by RunSumReduce.
  /// Gram summation is exactly associative, so any topology computes the
  /// same sum; the default star (the depth-1 case) keeps the frozen v1
  /// wire transcript, while tree and pipeline let interior servers add
  /// partial Grams and cut the coordinator's inbound to top_width messages.
  MergeTopologyOptions topology{};
};

/// The trivial exact protocol referenced throughout the paper: every
/// server ships its local Gram matrix A^(i)T A^(i) (upper triangle,
/// d(d+1)/2 words) and the coordinator sums them — O(s d^2) words, zero
/// covariance error. The coordinator's output sketch is the symmetric
/// square root Sigma V^T of the exact covariance. This is the baseline
/// every sub-d^2 algorithm must beat, and the matching upper bound for
/// the 1/eps >= d regime of Theorem 3.
///
/// Servers carrying a CSR view of their partition (Cluster::CreateSparse)
/// compute the local Gram with the nnz-proportional sparse kernel instead
/// of the dense O(n_i d^2) one. Both kernels compute the same sum of
/// per-row outer products; they differ only in floating-point summation
/// order across the skipped zeros, so outputs are exactly equal whenever
/// the products are exact (e.g. the integer-valued determinism tests) and
/// agree to rounding otherwise.
class ExactGramProtocol : public SketchProtocol {
 public:
  ExactGramProtocol() = default;
  explicit ExactGramProtocol(ExactGramOptions options) : options_(options) {}

  std::string_view Name() const override {
    return ProtocolFamilyName(ProtocolFamily::kExactGram);
  }
  StatusOr<SketchProtocolResult> Run(Cluster& cluster) override;

  const ExactGramOptions& options() const { return options_; }

 private:
  ExactGramOptions options_;
};

}  // namespace distsketch

#endif  // DISTSKETCH_DIST_EXACT_GRAM_PROTOCOL_H_
