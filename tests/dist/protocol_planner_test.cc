#include "dist/protocol_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "dist/exact_gram_protocol.h"
#include "dist/fd_merge_protocol.h"
#include "linalg/blas.h"
#include "sketch/error_metrics.h"
#include "telemetry/telemetry.h"
#include "workload/generators.h"
#include "workload/partition.h"

namespace distsketch {
namespace {

// The cheapest candidate the planner could have picked, straight from
// the public Thm 2/6/7 cost formulas.
double MinCandidateWords(size_t s, size_t d, const SketchRequest& req) {
  double best = std::min(PredictExactGramWords(s, d),
                         PredictFdMergeWords(s, d, req));
  if (req.allow_randomized) {
    if (req.k == 0) {
      best = std::min({best, PredictRowSamplingWords(s, d, req),
                       PredictSvsWords(s, d, req)});
    } else {
      best = std::min(best, PredictAdaptiveWords(s, d, req));
    }
  }
  return best;
}

// Runs the planner across a sweep and returns the picked protocol names.
std::vector<std::string> SweepPicks(const std::vector<size_t>& servers,
                                    size_t d, const SketchRequest& req) {
  std::vector<std::string> picks;
  for (size_t s : servers) {
    auto plan = PlanSketchProtocol(s, d, req);
    EXPECT_TRUE(plan.ok());
    // Whatever wins, its predicted cost must be the candidate minimum.
    EXPECT_DOUBLE_EQ(plan->predicted_words, MinCandidateWords(s, d, req));
    picks.push_back(std::string(plan->protocol->Name()));
  }
  return picks;
}

const telemetry::SpanAttr* FindAttr(const telemetry::SpanRecord& span,
                                    std::string_view key) {
  for (const telemetry::SpanAttr& a : span.attrs) {
    if (a.key == key) return &a;
  }
  return nullptr;
}

TEST(ProtocolPlannerTest, Validation) {
  EXPECT_FALSE(PlanSketchProtocol(0, 8, {}).ok());
  EXPECT_FALSE(PlanSketchProtocol(4, 0, {}).ok());
  SketchRequest bad;
  bad.eps = 0.0;
  EXPECT_FALSE(PlanSketchProtocol(4, 8, bad).ok());
}

TEST(ProtocolPlannerTest, CoarseEpsPicksExactGram) {
  // 1/eps >= d: the trivial O(sd^2) protocol is optimal (end of §2.1).
  SketchRequest req;
  req.eps = 0.5;
  req.allow_randomized = false;
  auto plan = PlanSketchProtocol(4, 2, req);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->protocol->Name(), "exact_gram");
}

TEST(ProtocolPlannerTest, DeterministicRequestPicksFd) {
  // l = k + k/eps = 10 rows per server beats the d(d+1)/2-word Gram.
  SketchRequest req;
  req.eps = 0.25;
  req.k = 2;
  req.allow_randomized = false;
  auto plan = PlanSketchProtocol(16, 64, req);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->protocol->Name(), "fd_merge");
}

TEST(ProtocolPlannerTest, ManyServersPicksRandomized) {
  SketchRequest req;
  req.eps = 0.1;
  req.k = 4;
  auto plan = PlanSketchProtocol(64, 64, req);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->protocol->Name(), "adaptive_sketch");
}

TEST(ProtocolPlannerTest, EpsZeroManyServersPicksSvs) {
  // The SVS win region needs all three: d > 1/eps (else exact Gram),
  // sqrt(s) < ~1/(2 eps) (else sampling), sqrt(s) > ~4 sqrt(log d)
  // (else FD) — the Table 1 geometry.
  SketchRequest req;
  req.eps = 0.01;
  req.k = 0;
  auto plan = PlanSketchProtocol(256, 192, req);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->protocol->Name(), "svs");
}

TEST(ProtocolPlannerTest, HugeFleetWeakGuaranteePicksSampling) {
  // Sampling's O(s + d/eps^2) is nearly s-free: at very large s with a
  // moderate eps and only the weak guarantee, it undercuts even the
  // sqrt(s)-scaling SVS.
  SketchRequest req;
  req.eps = 0.3;
  req.k = 0;
  auto plan = PlanSketchProtocol(512, 64, req);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->protocol->Name(), "row_sampling");
}

TEST(ProtocolPlannerTest, ServerSweepCrossesGramToSvsToSampling) {
  // Thm 2 vs Thm 6 geometry at (d, eps) = (192, 0.01), k = 0: exact Gram
  // grows like s*d^2, SVS like sqrt(s)*d/eps, sampling is nearly s-free.
  // Sweeping s must walk the picks through those three regimes in order,
  // with each crossover where the cost formulas actually intersect.
  SketchRequest req;
  req.eps = 0.01;
  req.k = 0;
  const std::vector<size_t> servers = {1, 4, 64, 256, 1024, 4096};
  const std::vector<std::string> picks = SweepPicks(servers, 192, req);
  const std::vector<std::string> expected = {
      "exact_gram", "exact_gram", "exact_gram",
      "svs",        "row_sampling", "row_sampling"};
  EXPECT_EQ(picks, expected);
}

TEST(ProtocolPlannerTest, ServerSweepCrossesFdToAdaptive) {
  // Thm 2 vs Thm 7 at (d, eps, k) = (64, 0.25, 2): deterministic FD
  // merge costs s*l*d while adaptive costs s*k*d + sqrt(s)*k*d/eps, so
  // FD wins small fleets and adaptive wins once sqrt(s) amortizes.
  SketchRequest req;
  req.eps = 0.25;
  req.k = 2;
  const std::vector<size_t> servers = {1, 4, 16, 64};
  const std::vector<std::string> picks = SweepPicks(servers, 64, req);
  const std::vector<std::string> expected = {
      "fd_merge", "fd_merge", "adaptive_sketch", "adaptive_sketch"};
  EXPECT_EQ(picks, expected);
}

TEST(ProtocolPlannerTest, EpsSweepCrossesSamplingToSvs) {
  // At fixed (s, d) = (256, 192), k = 0: sampling costs d/eps^2 while
  // SVS costs sqrt(s)*d/eps — coarse eps favors sampling, fine eps
  // flips to SVS before the deterministic fallbacks.
  SketchRequest req;
  req.k = 0;
  std::vector<std::string> picks;
  for (double eps : {0.3, 0.1, 0.01}) {
    req.eps = eps;
    auto plan = PlanSketchProtocol(256, 192, req);
    ASSERT_TRUE(plan.ok());
    EXPECT_DOUBLE_EQ(plan->predicted_words,
                     MinCandidateWords(256, 192, req));
    picks.push_back(std::string(plan->protocol->Name()));
  }
  const std::vector<std::string> expected = {"row_sampling", "row_sampling",
                                             "svs"};
  EXPECT_EQ(picks, expected);
}

TEST(ProtocolPlannerTest, TelemetryReportsDecisionRationale) {
  telemetry::Telemetry telem;
  telemetry::ScopedTelemetry scope(telem);

  SketchRequest req;
  req.eps = 0.01;
  req.k = 0;
  auto plan = PlanSketchProtocol(256, 192, req);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->protocol->Name(), "svs");

  const std::vector<telemetry::SpanRecord> spans = telem.Spans();
  const telemetry::SpanRecord* plan_span = nullptr;
  for (const telemetry::SpanRecord& s : spans) {
    if (s.name == "planner/plan") plan_span = &s;
  }
  ASSERT_NE(plan_span, nullptr);

  // The span carries the full decision: instance, every candidate cost,
  // the winner, and the human-readable rationale.
  const telemetry::SpanAttr* chosen = FindAttr(*plan_span, "chosen");
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->value, "svs");
  const telemetry::SpanAttr* rationale = FindAttr(*plan_span, "rationale");
  ASSERT_NE(rationale, nullptr);
  EXPECT_EQ(rationale->value, plan->rationale);
  for (const char* key : {"s", "d", "eps", "words.exact_gram",
                          "words.fd_merge", "words.row_sampling",
                          "words.svs", "predicted_words"}) {
    EXPECT_NE(FindAttr(*plan_span, key), nullptr) << key;
  }

  EXPECT_EQ(telem.metrics().CounterValue("planner.plans"), 1u);
  EXPECT_EQ(telem.metrics().CounterValue("planner.pick.svs"), 1u);
  EXPECT_EQ(telem.metrics().CounterValue("planner.pick.fd_merge"), 0u);
}

TEST(ProtocolPlannerTest, InboundModelMatchesTopologyWidths) {
  // Star: the coordinator receives all s uplinks. Tree: only top_width,
  // each the same size (every associative merge keeps the payload fixed).
  const double msg = 100.0;
  EXPECT_DOUBLE_EQ(
      PredictCoordinatorInboundWords(64, MergeTopologyOptions::Star(), msg),
      64.0 * msg);
  auto topo = MergeTopology::Build(64, MergeTopologyOptions::Tree(8));
  ASSERT_TRUE(topo.ok());
  EXPECT_DOUBLE_EQ(
      PredictCoordinatorInboundWords(64, MergeTopologyOptions::Tree(8), msg),
      static_cast<double>(topo->top_width()) * msg);
}

TEST(ProtocolPlannerTest, TopologyCrossoverSmallStaysStarLargeGoesTree) {
  // The critical path of a star is s serialized receives in one round; a
  // k-ary tree pays fewer receives but one round-latency charge per
  // stage. At modest message sizes the extra rounds swamp the receive
  // savings for tiny fleets, while big fleets always amortize them.
  const double msg = 64.0;
  for (const size_t s : {1u, 2u, 4u}) {
    EXPECT_TRUE(ChooseMergeTopology(s, msg).is_star()) << "s=" << s;
  }
  for (const size_t s : {64u, 256u, 1024u}) {
    const MergeTopologyOptions choice = ChooseMergeTopology(s, msg);
    EXPECT_EQ(choice.kind, TopologyKind::kTree) << "s=" << s;
    // And the choice must actually be the argmin of the model it claims
    // to minimize.
    const double chosen_cost = PredictCriticalPathWords(s, choice, msg);
    EXPECT_LE(chosen_cost,
              PredictCriticalPathWords(s, MergeTopologyOptions::Star(), msg));
    for (const size_t fanout : {2u, 4u, 8u, 16u, 32u}) {
      EXPECT_LE(chosen_cost,
                PredictCriticalPathWords(
                    s, MergeTopologyOptions::Tree(fanout), msg));
    }
  }
}

TEST(ProtocolPlannerTest, AutoTopologyThreadsIntoThePlannedProtocol) {
  SketchRequest req;
  req.eps = 0.25;
  req.k = 2;
  req.allow_randomized = false;  // force fd_merge at this instance
  req.auto_topology = true;
  auto plan = PlanSketchProtocol(256, 64, req);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->protocol->Name(), "fd_merge");
  const auto& fd = static_cast<const FdMergeProtocol&>(*plan->protocol);
  EXPECT_EQ(fd.options().topology.kind, plan->topology.kind);
  EXPECT_EQ(fd.options().topology.fanout, plan->topology.fanout);
  EXPECT_EQ(plan->topology.kind, TopologyKind::kTree);
  // A tree plan must predict strictly less coordinator inbound than its
  // total words, and say so in the rationale.
  EXPECT_LT(plan->predicted_coordinator_words, plan->predicted_words);
  EXPECT_NE(plan->rationale.find("coordinator inbound"), std::string::npos);
}

TEST(ProtocolPlannerTest, ExplicitTopologyRequestIsHonored) {
  SketchRequest req;
  req.eps = 0.5;
  req.allow_randomized = false;
  req.topology = MergeTopologyOptions::Tree(4);
  auto plan = PlanSketchProtocol(32, 2, req);  // exact_gram regime
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->protocol->Name(), "exact_gram");
  const auto& gram = static_cast<const ExactGramProtocol&>(*plan->protocol);
  EXPECT_EQ(gram.options().topology.kind, TopologyKind::kTree);
  EXPECT_EQ(gram.options().topology.fanout, 4u);
  const double msg = 2.0 * 3.0 / 2.0;  // d(d+1)/2 at d=2
  EXPECT_DOUBLE_EQ(
      plan->predicted_coordinator_words,
      PredictCoordinatorInboundWords(32, req.topology, msg));
}

TEST(ProtocolPlannerTest, StarOnlyProtocolsKeepStarPlanFields) {
  SketchRequest req;
  req.eps = 0.3;
  req.k = 0;
  req.auto_topology = true;
  auto plan = PlanSketchProtocol(512, 64, req);  // row_sampling regime
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->protocol->Name(), "row_sampling");
  EXPECT_TRUE(plan->topology.is_star());
  EXPECT_DOUBLE_EQ(plan->predicted_coordinator_words, plan->predicted_words);
}

TEST(ProtocolPlannerTest, CostFormulasAreMonotone) {
  SketchRequest req;
  req.eps = 0.1;
  req.k = 2;
  EXPECT_LT(PredictFdMergeWords(4, 32, req), PredictFdMergeWords(8, 32, req));
  EXPECT_LT(PredictSvsWords(4, 32, req), PredictSvsWords(16, 32, req));
  SketchRequest coarse = req;
  coarse.eps = 0.4;
  EXPECT_LT(PredictAdaptiveWords(8, 32, coarse),
            PredictAdaptiveWords(8, 32, req));
}

TEST(ProtocolPlannerTest, PlannedProtocolRunsAndMeetsBudget) {
  const Matrix a = GenerateLowRankPlusNoise({.rows = 320,
                                             .cols = 24,
                                             .rank = 4,
                                             .noise_stddev = 0.3,
                                             .seed = 1});
  SketchRequest req;
  req.eps = 0.25;
  req.k = 3;
  auto plan = PlanSketchProtocol(8, 24, req);
  ASSERT_TRUE(plan.ok());
  auto cluster = Cluster::Create(
      PartitionRows(a, 8, PartitionScheme::kRoundRobin), req.eps);
  ASSERT_TRUE(cluster.ok());
  auto result = plan->protocol->Run(*cluster);
  ASSERT_TRUE(result.ok());
  // Certify at the protocol's guarantee constant (3 eps covers all).
  EXPECT_TRUE(IsEpsKSketch(a, result->sketch, 3.0 * req.eps, req.k));
  EXPECT_FALSE(plan->rationale.empty());
}

TEST(ProtocolPlannerTest, PredictionWithinFactorOfMeasured) {
  // The cost model should be within ~3x of the metered words (it is a
  // planner, not an oracle).
  const Matrix a = GenerateZipfSpectrum(
      {.rows = 640, .cols = 32, .alpha = 0.8, .seed = 2});
  for (size_t s : {4u, 32u}) {
    SketchRequest req;
    req.eps = 0.1;
    req.k = 0;
    auto plan = PlanSketchProtocol(s, 32, req);
    ASSERT_TRUE(plan.ok());
    auto cluster = Cluster::Create(
        PartitionRows(a, s, PartitionScheme::kRoundRobin), req.eps);
    ASSERT_TRUE(cluster.ok());
    auto result = plan->protocol->Run(*cluster);
    ASSERT_TRUE(result.ok());
    const double measured =
        static_cast<double>(result->comm.total_words);
    EXPECT_LT(measured, 3.0 * plan->predicted_words);
    EXPECT_GT(measured, plan->predicted_words / 8.0);
  }
}

// The request's semantic half IS the shared SketchGoal definition — the
// auto-configurer and the planner cannot drift apart (satellite of the
// autoconf subsystem).
static_assert(std::is_base_of_v<SketchGoal, SketchRequest>,
              "SketchRequest must derive from the shared SketchGoal");

TEST(ProtocolPlannerTest, CountSketchWordsFollowTable1Formula) {
  SketchRequest req;
  req.eps = 0.2;
  // s * ceil(4/eps^2) * d + s seed downlinks.
  EXPECT_DOUBLE_EQ(PredictCountSketchWords(8, 16, req),
                   8.0 * 100.0 * 16.0 + 8.0);
  // Quadratic in 1/eps: halving eps quadruples the bucket payload.
  SketchRequest tight = req;
  tight.eps = 0.1;
  EXPECT_GT(PredictCountSketchWords(8, 16, tight),
            3.5 * PredictCountSketchWords(8, 16, req));
}

TEST(ProtocolPlannerTest, CountSketchCrossesExactGramInHighDimension) {
  // exact_gram pays s*d^2/2; countsketch pays s*d*4/eps^2 — per Table 1
  // the crossover is at d ~ 8/eps^2, independent of s.
  SketchRequest req;
  req.eps = 0.5;  // crossover at d = 32
  const size_t s = 4;
  EXPECT_LT(PredictExactGramWords(s, 16),
            PredictCountSketchWords(s, 16, req));
  EXPECT_GT(PredictExactGramWords(s, 256),
            PredictCountSketchWords(s, 256, req));
}

TEST(ProtocolPlannerTest, ArbitraryPartitionPlansCountSketch) {
  SketchRequest req;
  req.eps = 0.2;
  req.arbitrary_partition = true;
  auto plan = PlanSketchProtocol(8, 16, req);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->protocol->Name(), "countsketch");
  EXPECT_DOUBLE_EQ(plan->predicted_words,
                   PredictCountSketchWords(8, 16, req));
}

// The arbitrary-partition plan runs end to end on additive shares and
// meets eps * ||A||_F^2 against the sum at constant probability.
TEST(ProtocolPlannerTest, ArbitraryPartitionPlanRunsOnAdditiveShares) {
  const Matrix a = GenerateZipfSpectrum(
      {.rows = 400, .cols = 16, .alpha = 0.8, .seed = 14});
  SketchRequest req;
  req.eps = 0.25;
  req.arbitrary_partition = true;
  int good = 0;
  for (uint64_t t = 0; t < 5; ++t) {
    req.seed = 200 + t;
    auto plan = PlanSketchProtocol(6, 16, req);
    ASSERT_TRUE(plan.ok());
    auto cluster = Cluster::CreateAdditive(SplitAdditive(a, 6, t), req.eps);
    ASSERT_TRUE(cluster.ok());
    auto result = plan->protocol->Run(*cluster);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (CovarianceError(a, result->sketch) <=
        req.eps * SquaredFrobeniusNorm(a)) {
      ++good;
    }
  }
  EXPECT_GE(good, 4);
}

TEST(ProtocolPlannerTest, ArbitraryPartitionRejectsDeterministicAndRankGoals) {
  SketchRequest det;
  det.eps = 0.2;
  det.arbitrary_partition = true;
  det.allow_randomized = false;
  auto plan = PlanSketchProtocol(8, 16, det);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);

  SketchRequest ranked;
  ranked.eps = 0.2;
  ranked.arbitrary_partition = true;
  ranked.k = 4;
  plan = PlanSketchProtocol(8, 16, ranked);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ProtocolPlannerTest, ArbitraryPartitionHonorsTopologyRequest) {
  SketchRequest req;
  req.eps = 0.25;
  req.arbitrary_partition = true;
  req.topology = MergeTopologyOptions::Tree(4);
  auto plan = PlanSketchProtocol(16, 8, req);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->topology.kind, TopologyKind::kTree);
  // Tree reduction shrinks coordinator inbound below the star's s*m*d.
  EXPECT_LT(plan->predicted_coordinator_words, plan->predicted_words);
}

}  // namespace
}  // namespace distsketch
