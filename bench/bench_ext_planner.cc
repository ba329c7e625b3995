// Experiment E4 (extension) — the Table 1 cost model as the protocol
// selector: for a grid of (s, eps) instances, which protocol does
// SolveSketchConfig (no predictor, no budget) rank cheapest, and does
// its predicted word count agree with metered reality? This paints the
// regime map the paper's Table 1 implies: exact Gram at coarse accuracy
// (1/eps >= d), sampling for weak-guarantee fleets, FD in the
// deterministic column, SVS/adaptive in the randomized sweet spot.

#include <cstdio>
#include <string>

#include "autoconf/protocol_factory.h"
#include "autoconf/solver.h"
#include "bench/bench_util.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

// The cheapest configuration for an (s, d, eps, k) instance.
autoconf::SketchConfig Cheapest(size_t s, size_t d, double eps, size_t k) {
  autoconf::AutoConfRequest request;
  request.goal.eps = eps;
  request.goal.k = k;
  request.shape.num_servers = s;
  request.shape.dim = d;
  auto plan = autoconf::SolveSketchConfig(request, nullptr);
  DS_CHECK(plan.ok());
  return plan->best().config;
}

void RegimeMap(size_t k) {
  const size_t d = 96;
  std::printf("\n  regime map, d=%zu, k=%zu (predicted cheapest):\n", d, k);
  std::printf("  %-10s", "s \\ eps");
  const double epsilons[] = {0.4, 0.2, 0.1, 0.05, 0.02, 0.01};
  for (double eps : epsilons) std::printf("%-16.3g", eps);
  std::printf("\n");
  for (size_t s : {2u, 8u, 32u, 128u, 512u, 2048u}) {
    std::printf("  %-10zu", s);
    for (double eps : epsilons) {
      std::printf(
          "%-16s",
          std::string(ProtocolFamilyName(Cheapest(s, d, eps, k).family))
              .c_str());
    }
    std::printf("\n");
  }
}

void AuditPredictions() {
  std::printf("\n  prediction audit (metered vs predicted words):\n");
  const Matrix a = GenerateZipfSpectrum(
      {.rows = 2048, .cols = 48, .alpha = 0.8, .seed = 1});
  for (size_t s : {4u, 16u, 64u}) {
    for (double eps : {0.2, 0.1}) {
      autoconf::AutoConfRequest request;
      request.goal.eps = eps;
      request.shape = {s, 48, a.rows()};
      auto plan = autoconf::SolveSketchConfig(request, nullptr);
      DS_CHECK(plan.ok());
      const autoconf::ConfigCandidate& best = plan->best();
      auto protocol = autoconf::BuildProtocol(best.config, request.seed);
      DS_CHECK(protocol.ok());
      Cluster cluster = bench::MakeCluster(a, s, eps);
      auto result = (*protocol)->Run(cluster);
      DS_CHECK(result.ok());
      const double predicted = best.cost.total_words;
      std::printf(
          "    s=%-4zu eps=%-5.3g chose %-13s %-9s predicted=%-9.0f "
          "measured=%-9llu (%.2fx)\n",
          s, eps, std::string((*protocol)->Name()).c_str(),
          std::string(TopologyKindName(best.config.topology.kind)).c_str(),
          predicted,
          static_cast<unsigned long long>(result->comm.total_words),
          static_cast<double>(result->comm.total_words) / predicted);
    }
  }
}

}  // namespace
}  // namespace distsketch

int main() {
  std::printf(
      "E4 (extension): protocol selection — Table 1 as a cost model\n");
  distsketch::RegimeMap(/*k=*/0);
  distsketch::RegimeMap(/*k=*/4);
  distsketch::AuditPredictions();
  return 0;
}
