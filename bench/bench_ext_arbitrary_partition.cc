// Experiment E5 (extension) — the paper's concluding open question:
// "what is the communication complexity of covariance sketch in the
// arbitrary partition model?" We realize a concrete upper bound with a
// shared-seed CountSketch (cost O(s*d/eps^2), independent of n) against
// the trivial O(s*n*d) of shipping the additive shares, across n and eps.
// The CountSketch column is CountSketchProtocol on a Cluster::CreateAdditive
// cluster; shipping every share costs s n-by-d dense messages.

#include <cstdio>

#include "dist/countsketch_protocol.h"
#include "linalg/blas.h"
#include "sketch/error_metrics.h"
#include "workload/generators.h"
#include "workload/partition.h"

namespace distsketch {
namespace {

void Sweep() {
  const size_t s = 8;
  const size_t d = 24;
  std::printf("  %-8s %-7s %-12s %-12s %-12s\n", "n", "eps",
              "exact words", "cs words", "cs err/budget");
  for (size_t n : {256u, 1024u, 4096u}) {
    const Matrix a = GenerateZipfSpectrum(
        {.rows = n, .cols = d, .alpha = 0.8, .seed = n});
    for (double eps : {0.3, 0.15}) {
      auto cluster = Cluster::CreateAdditive(SplitAdditive(a, s, 7), eps);
      DS_CHECK(cluster.ok());
      const uint64_t exact_words = s * cluster->cost_model().MatrixWords(n, d);
      auto cs = CountSketchProtocol({.eps = eps, .seed = 3}).Run(*cluster);
      DS_CHECK(cs.ok());
      std::printf("  %-8zu %-7.3g %-12llu %-12llu %-12.3f\n", n, eps,
                  static_cast<unsigned long long>(exact_words),
                  static_cast<unsigned long long>(cs->comm.total_words),
                  CovarianceError(a, cs->sketch) /
                      (eps * SquaredFrobeniusNorm(a)));
    }
  }
}

}  // namespace
}  // namespace distsketch

int main() {
  std::printf(
      "E5 (extension): covariance sketch in the arbitrary partition "
      "model (conclusion's open question)\n"
      "  upper bound realized: shared-seed CountSketch, O(s*d/eps^2) "
      "words independent of n\n\n");
  distsketch::Sweep();
  std::printf(
      "\n  Reading: the linear-sketch cost is flat in n while the trivial "
      "protocol scales with it; the error stays within the eps*||A||_F^2 "
      "budget even though every share is dense noise individually. "
      "Whether the eps-dependence can be improved to match the "
      "row-partition bounds is the open part of the question.\n");
  return 0;
}
