// The constraint solver against the committed calibration artifact:
// determinism (byte-identical PlanSummary), goal-flag routing
// (deterministic-only, arbitrary partition, k > 0), the calibrated
// eps-relaxation, budget feasibility/headroom semantics, and the E13
// scenario — one goal under three different budgets yields three
// different configurations, each respecting its budget. Then, with no
// predictor and no budget, the solver as the Table 1 protocol planner:
// regime picks, crossover sweeps, the word and topology cost model, and
// the picked protocols run against real clusters.

#include "autoconf/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "autoconf/calibration.h"
#include "autoconf/config_plan.h"
#include "autoconf/error_predictor.h"
#include "autoconf/protocol_factory.h"
#include "dist/cluster.h"
#include "dist/countsketch_protocol.h"
#include "dist/exact_gram_protocol.h"
#include "dist/fd_merge_protocol.h"
#include "linalg/blas.h"
#include "sketch/error_metrics.h"
#include "workload/generators.h"
#include "workload/partition.h"

namespace distsketch {
namespace autoconf {
namespace {

const ErrorPredictor& CommittedPredictor() {
  static const ErrorPredictor* predictor = [] {
    auto loaded = ErrorPredictor::LoadFromFile(DS_AUTOCONF_CALIBRATION);
    if (!loaded.ok()) {
      ADD_FAILURE() << "cannot load committed calibration: "
                    << loaded.status().ToString();
      std::abort();
    }
    return new ErrorPredictor(std::move(*loaded));
  }();
  return *predictor;
}

AutoConfRequest BaseRequest() {
  AutoConfRequest request;
  request.goal.eps = 0.05;
  request.goal.delta = 0.01;
  request.shape.num_servers = 16;
  request.shape.dim = 32;
  request.shape.total_rows = 1024;
  return request;
}

std::string ConfigKey(const SketchConfig& config) {
  return FamilyKey(config) + "/" + std::to_string(config.sketch_rows) + "/q" +
         std::to_string(config.quantize_bits) + "/t" +
         std::to_string(static_cast<int>(config.topology.kind)) + "x" +
         std::to_string(config.topology.fanout);
}

TEST(SolverTest, PlanSummaryIsByteIdenticalAcrossCalls) {
  const AutoConfRequest request = BaseRequest();
  auto a = SolveSketchConfig(request, &CommittedPredictor());
  auto b = SolveSketchConfig(request, &CommittedPredictor());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(PlanSummary(*a).empty());
  EXPECT_EQ(PlanSummary(*a), PlanSummary(*b));
}

TEST(SolverTest, UnconstrainedPlanIsFeasibleWithErrorGoalBinding) {
  auto plan = SolveSketchConfig(BaseRequest(), &CommittedPredictor());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(plan->feasible());
  EXPECT_EQ(plan->best().binding, BindingConstraint::kErrorGoal);
  EXPECT_TRUE(std::isinf(plan->best().headroom));
  // Every candidate's certified error meets the goal.
  for (const ConfigCandidate& c : plan->ranked) {
    EXPECT_LE(c.error.Certified(true), BaseRequest().goal.eps + 1e-12)
        << c.rationale;
    EXPECT_FALSE(c.rationale.empty());
  }
}

TEST(SolverTest, CalibratedRelaxationBeatsAnalyticSizing) {
  AutoConfRequest request = BaseRequest();
  auto trusted = SolveSketchConfig(request, &CommittedPredictor());
  request.trust_calibration = false;
  auto analytic = SolveSketchConfig(request, &CommittedPredictor());
  ASSERT_TRUE(trusted.ok());
  ASSERT_TRUE(analytic.ok());
  ASSERT_TRUE(trusted->feasible());
  ASSERT_TRUE(analytic->feasible());
  // On the calibrated low-rank spectrum the solver certifies a relaxed
  // working_eps — strictly cheaper than sizing from the worst-case bound.
  EXPECT_GT(trusted->best().config.working_eps, request.goal.eps);
  EXPECT_LT(trusted->best().cost.total_words,
            analytic->best().cost.total_words);
  // Distrusting calibration pins working_eps to the goal.
  for (const ConfigCandidate& c : analytic->ranked) {
    EXPECT_DOUBLE_EQ(c.config.working_eps, request.goal.eps);
  }
}

TEST(SolverTest, DeterministicGoalRestrictsToDeterministicFamilies) {
  AutoConfRequest request = BaseRequest();
  request.goal.allow_randomized = false;
  auto plan = SolveSketchConfig(request, &CommittedPredictor());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_FALSE(plan->ranked.empty());
  for (const ConfigCandidate& c : plan->ranked) {
    EXPECT_TRUE(c.config.family == ProtocolFamily::kFdMerge ||
                c.config.family == ProtocolFamily::kExactGram)
        << FamilyKey(c.config);
  }
}

TEST(SolverTest, ArbitraryPartitionPlansCountSketchOnly) {
  AutoConfRequest request = BaseRequest();
  request.goal.arbitrary_partition = true;
  auto plan = SolveSketchConfig(request, &CommittedPredictor());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_FALSE(plan->ranked.empty());
  for (const ConfigCandidate& c : plan->ranked) {
    EXPECT_EQ(c.config.family, ProtocolFamily::kCountSketch);
  }
  // Deterministic + arbitrary partition is unsatisfiable (only the
  // randomized linear sketch survives entry-wise sharding).
  request.goal.allow_randomized = false;
  auto none = SolveSketchConfig(request, &CommittedPredictor());
  EXPECT_EQ(none.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SolverTest, RankGoalUsesRankAwareFamilies) {
  AutoConfRequest request = BaseRequest();
  request.goal.k = 4;
  request.goal.eps = 0.2;
  auto plan = SolveSketchConfig(request, &CommittedPredictor());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_FALSE(plan->ranked.empty());
  for (const ConfigCandidate& c : plan->ranked) {
    EXPECT_TRUE(c.config.family == ProtocolFamily::kFdMerge ||
                c.config.family == ProtocolFamily::kExactGram ||
                c.config.family == ProtocolFamily::kAdaptiveSketch)
        << FamilyKey(c.config);
    EXPECT_EQ(c.config.k, 4u);
  }
}

TEST(SolverTest, OffSpecShapeWidensBandsAndCurbsRelaxation) {
  // The calibration measured one 1024 x 32 workload. A request whose
  // shape is far from that (the band says nothing about it) must not
  // inherit the full relaxation certified at the calibrated shape: the
  // band widens 2x per departing axis, so the ladder stops at a
  // strictly tighter working_eps while every candidate still certifies
  // the goal.
  const AutoConfRequest at_spec_request = BaseRequest();
  AutoConfRequest off_spec_request = BaseRequest();
  off_spec_request.shape.dim = 2048;
  off_spec_request.shape.total_rows = 10000000;
  auto at_spec = SolveSketchConfig(at_spec_request, &CommittedPredictor());
  auto off_spec = SolveSketchConfig(off_spec_request, &CommittedPredictor());
  ASSERT_TRUE(at_spec.ok()) << at_spec.status().ToString();
  ASSERT_TRUE(off_spec.ok()) << off_spec.status().ToString();
  auto fd_eps = [](const ConfigPlan& plan) {
    double eps = 0.0;
    for (const ConfigCandidate& c : plan.ranked) {
      if (c.config.family == ProtocolFamily::kFdMerge) {
        eps = std::max(eps, c.config.working_eps);
      }
    }
    return eps;
  };
  EXPECT_LT(fd_eps(*off_spec), fd_eps(*at_spec));
  EXPECT_GT(fd_eps(*at_spec), at_spec_request.goal.eps);
  for (const ConfigCandidate& c : off_spec->ranked) {
    EXPECT_LE(c.error.Certified(true), off_spec_request.goal.eps + 1e-12)
        << c.rationale;
  }
}

TEST(SolverTest, ImpossibleBudgetReportsInfeasibleWithHeadroom) {
  AutoConfRequest request = BaseRequest();
  request.budget.max_coordinator_words = 10;  // far below any config
  auto plan = SolveSketchConfig(request, &CommittedPredictor());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->feasible());
  ASSERT_FALSE(plan->ranked.empty());
  for (const ConfigCandidate& c : plan->ranked) {
    EXPECT_FALSE(c.feasible);
    EXPECT_LT(c.headroom, 1.0);
    EXPECT_GT(c.headroom, 0.0);
  }
  // The least-violating candidate ranks first.
  for (size_t i = 1; i < plan->ranked.size(); ++i) {
    EXPECT_GE(plan->ranked.front().headroom, plan->ranked[i].headroom - 1e-12);
  }
}

TEST(SolverTest, SolverWorksWithoutAPredictor) {
  auto plan = SolveSketchConfig(BaseRequest(), nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(plan->feasible());
  for (const ConfigCandidate& c : plan->ranked) {
    // No calibration: working_eps cannot relax past the goal.
    EXPECT_DOUBLE_EQ(c.config.working_eps, BaseRequest().goal.eps);
    EXPECT_FALSE(c.error.calibrated);
  }
}

TEST(SolverTest, RejectsMalformedInputs) {
  AutoConfRequest request = BaseRequest();
  request.shape.dim = 0;
  EXPECT_EQ(SolveSketchConfig(request, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  request = BaseRequest();
  request.goal.eps = 0.0;
  EXPECT_EQ(SolveSketchConfig(request, nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

// E13: the same (eps = 0.05, delta = 0.01) goal under three budgets.
// Each budget is derived from the unconstrained plan's own cost table:
// the limit is set just above the cheapest candidate along that axis, so
// only configs shaped for that axis fit. The three winners must respect
// their budgets and cannot all be the same configuration.
TEST(SolverTest, SameGoalThreeBudgetsThreeConfigs) {
  const AutoConfRequest base = BaseRequest();
  auto open = SolveSketchConfig(base, &CommittedPredictor());
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  ASSERT_TRUE(open->feasible());

  double min_coord = 1e300, min_bytes = 1e300, min_path = 1e300;
  for (const ConfigCandidate& c : open->ranked) {
    min_coord = std::min(min_coord, c.cost.coordinator_words);
    min_bytes = std::min(min_bytes, c.cost.total_wire_bytes);
    min_path = std::min(min_path, c.cost.critical_path_words);
  }

  AutoConfRequest tight_coord = base;
  tight_coord.budget.max_coordinator_words =
      static_cast<uint64_t>(min_coord * 1.05) + 1;
  AutoConfRequest tight_bytes = base;
  tight_bytes.budget.max_total_wire_bytes =
      static_cast<uint64_t>(min_bytes * 1.05) + 1;
  AutoConfRequest tight_path = base;
  tight_path.budget.max_critical_path_words =
      static_cast<uint64_t>(min_path * 1.05) + 1;

  auto coord = SolveSketchConfig(tight_coord, &CommittedPredictor());
  auto bytes = SolveSketchConfig(tight_bytes, &CommittedPredictor());
  auto path = SolveSketchConfig(tight_path, &CommittedPredictor());
  ASSERT_TRUE(coord.ok() && bytes.ok() && path.ok());
  ASSERT_TRUE(coord->feasible()) << PlanSummary(*coord);
  ASSERT_TRUE(bytes->feasible()) << PlanSummary(*bytes);
  ASSERT_TRUE(path->feasible()) << PlanSummary(*path);

  // Usage respects the budget and the budgeted axis is the binding one.
  EXPECT_LE(coord->best().cost.coordinator_words,
            static_cast<double>(tight_coord.budget.max_coordinator_words));
  EXPECT_EQ(coord->best().binding, BindingConstraint::kCoordinatorWords);
  EXPECT_LE(bytes->best().cost.total_wire_bytes,
            static_cast<double>(tight_bytes.budget.max_total_wire_bytes));
  EXPECT_EQ(bytes->best().binding, BindingConstraint::kWireBytes);
  EXPECT_LE(path->best().cost.critical_path_words,
            static_cast<double>(tight_path.budget.max_critical_path_words));
  EXPECT_EQ(path->best().binding, BindingConstraint::kCriticalPath);

  const std::set<std::string> winners = {ConfigKey(coord->best().config),
                                         ConfigKey(bytes->best().config),
                                         ConfigKey(path->best().config)};
  EXPECT_GE(winners.size(), 2u)
      << "coord: " << coord->best().rationale
      << "\nbytes: " << bytes->best().rationale
      << "\npath: " << path->best().rationale;
}

// --- The solver as the Table 1 protocol planner (no predictor, no
// budget): the best candidate is the cheapest family by total words, and
// among its equal-word topologies the shortest critical path.

AutoConfRequest Table1Request(size_t s, size_t d, double eps, size_t k = 0,
                              bool randomized = true) {
  AutoConfRequest request;
  request.goal.eps = eps;
  request.goal.k = k;
  request.goal.allow_randomized = randomized;
  request.shape.num_servers = s;
  request.shape.dim = d;
  return request;
}

ConfigPlan SolveTable1(const AutoConfRequest& request) {
  auto plan = SolveSketchConfig(request, nullptr);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.ok() ? *plan : ConfigPlan{};
}

// The picked family's name; also checks that the pick's predicted words
// are the minimum over every candidate.
std::string Pick(const AutoConfRequest& request) {
  const ConfigPlan plan = SolveTable1(request);
  if (plan.ranked.empty()) return "";
  for (const ConfigCandidate& c : plan.ranked) {
    EXPECT_LE(plan.best().cost.total_words, c.cost.total_words);
  }
  return std::string(ProtocolFamilyName(plan.best().config.family));
}

// Predicted total words of the candidate with calibration key `key`.
double Words(const ConfigPlan& plan, const std::string& key) {
  for (const ConfigCandidate& c : plan.ranked) {
    if (FamilyKey(c.config) == key) return c.cost.total_words;
  }
  ADD_FAILURE() << "no " << key << " candidate";
  return 0.0;
}

const ConfigCandidate* Find(const ConfigPlan& plan, ProtocolFamily family,
                            TopologyKind topology) {
  for (const ConfigCandidate& c : plan.ranked) {
    if (c.config.family == family && c.config.quantize_bits == 0 &&
        c.config.topology.kind == topology) {
      return &c;
    }
  }
  return nullptr;
}

TEST(ProtocolPlannerTest, Validation) {
  // No servers, and eps or delta outside (0, 1) (RejectsMalformedInputs
  // covers d = 0 and eps = 0).
  AutoConfRequest bad_delta = Table1Request(4, 8, 0.1);
  bad_delta.goal.delta = 1.0;
  for (const AutoConfRequest& bad :
       {Table1Request(0, 8, 0.1), Table1Request(4, 8, 1.0), bad_delta}) {
    EXPECT_EQ(SolveSketchConfig(bad, nullptr).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(ProtocolPlannerTest, CoarseEpsPicksExactGram) {
  // 1/eps >= d: the trivial O(sd^2) protocol is optimal (end of §2.1).
  EXPECT_EQ(Pick(Table1Request(4, 2, 0.5, 0, false)), "exact_gram");
}

TEST(ProtocolPlannerTest, DeterministicRequestPicksFd) {
  // l = k + k/eps = 10 rows per server beats the d(d+1)/2-word Gram.
  EXPECT_EQ(Pick(Table1Request(16, 64, 0.25, 2, false)), "fd_merge");
}

TEST(ProtocolPlannerTest, ManyServersPicksRandomized) {
  EXPECT_EQ(Pick(Table1Request(64, 64, 0.1, 4)), "adaptive_sketch");
}

TEST(ProtocolPlannerTest, EpsZeroManyServersPicksSvs) {
  // The SVS win region needs all three: d > 1/eps (else exact Gram),
  // sqrt(s) < ~1/(2 eps) (else sampling), sqrt(s) > ~4 sqrt(log d)
  // (else FD) — the Table 1 geometry.
  EXPECT_EQ(Pick(Table1Request(256, 192, 0.01)), "svs");
}

TEST(ProtocolPlannerTest, HugeFleetWeakGuaranteePicksSampling) {
  // Sampling's O(s + d/eps^2) is nearly s-free: at very large s with a
  // moderate eps and only the weak guarantee, it undercuts even the
  // sqrt(s)-scaling SVS.
  EXPECT_EQ(Pick(Table1Request(512, 64, 0.3)), "row_sampling");
}

TEST(SolverTest, LinearSvsPricedAboveQuadraticByTheorem5) {
  // Thm 5's linear sampling function pays log(d/delta) where Thm 6's
  // quadratic one pays its square root (the calibration measures linear
  // sending more words at every grid point), so quadratic SVS wins.
  const ConfigPlan plan = SolveTable1(Table1Request(256, 192, 0.01));
  ASSERT_FALSE(plan.ranked.empty());
  EXPECT_EQ(FamilyKey(plan.best().config), "svs_quadratic");
  const double linear = Words(plan, "svs_linear");
  const double quadratic = Words(plan, "svs_quadratic");
  EXPECT_GT(linear, quadratic);
  // 2s seed/mass words aside, the gap is exactly sqrt(log(d/delta)).
  EXPECT_NEAR((linear - 512.0) / (quadratic - 512.0),
              std::sqrt(std::log(192.0 / 0.1)), 1e-9);
}

TEST(ProtocolPlannerTest, ServerSweepCrossesGramToSvsToSampling) {
  // Thm 2 vs Thm 6 geometry at (d, eps) = (192, 0.01), k = 0: exact Gram
  // grows like s*d^2, SVS like sqrt(s)*d/eps, sampling is nearly s-free.
  // Sweeping s must walk the picks through those three regimes in order,
  // with each crossover where the cost formulas actually intersect.
  std::vector<std::string> picks;
  for (size_t s : {1, 4, 64, 256, 1024, 4096}) {
    picks.push_back(Pick(Table1Request(s, 192, 0.01)));
  }
  const std::vector<std::string> expected = {
      "exact_gram", "exact_gram",   "exact_gram",
      "svs",        "row_sampling", "row_sampling"};
  EXPECT_EQ(picks, expected);
}

TEST(ProtocolPlannerTest, ServerSweepCrossesFdToAdaptive) {
  // Thm 2 vs Thm 7 at (d, eps, k) = (64, 0.25, 2): deterministic FD
  // merge costs s*l*d while adaptive costs s*k*d + sqrt(s)*k*d/eps, so
  // FD wins small fleets and adaptive wins once sqrt(s) amortizes.
  std::vector<std::string> picks;
  for (size_t s : {1, 4, 16, 64}) {
    picks.push_back(Pick(Table1Request(s, 64, 0.25, 2)));
  }
  const std::vector<std::string> expected = {
      "fd_merge", "fd_merge", "adaptive_sketch", "adaptive_sketch"};
  EXPECT_EQ(picks, expected);
}

TEST(ProtocolPlannerTest, EpsSweepCrossesSamplingToSvs) {
  // At fixed (s, d) = (256, 192), k = 0: sampling costs d/eps^2 while
  // SVS costs sqrt(s)*d/eps — coarse eps favors sampling, fine eps
  // flips to SVS before the deterministic fallbacks.
  std::vector<std::string> picks;
  for (double eps : {0.3, 0.1, 0.01}) {
    picks.push_back(Pick(Table1Request(256, 192, eps)));
  }
  const std::vector<std::string> expected = {"row_sampling", "row_sampling",
                                             "svs"};
  EXPECT_EQ(picks, expected);
}

TEST(ProtocolPlannerTest, InboundModelMatchesTopologyWidths) {
  // Star: the coordinator receives all s uplinks. Tree: only top_width,
  // each the same size (every associative merge keeps the payload
  // fixed). Pipeline: one.
  const ConfigPlan plan = SolveTable1(Table1Request(64, 64, 0.1, 0, false));
  const double message = 11.0 * 64.0;  // l = ceil(1/eps) + 1 rows of d
  auto topo = MergeTopology::Build(64, MergeTopologyOptions::Tree(8));
  ASSERT_TRUE(topo.ok());
  const std::pair<TopologyKind, double> expected[] = {
      {TopologyKind::kStar, 64.0 * message},
      {TopologyKind::kTree, static_cast<double>(topo->top_width()) * message},
      {TopologyKind::kPipeline, message}};
  for (const auto& [kind, inbound] : expected) {
    const ConfigCandidate* c = Find(plan, ProtocolFamily::kFdMerge, kind);
    ASSERT_NE(c, nullptr);
    EXPECT_DOUBLE_EQ(c->cost.coordinator_words, inbound);
    EXPECT_DOUBLE_EQ(c->cost.total_words, 64.0 * message);
  }
}

TEST(ProtocolPlannerTest, TopologyCrossoverSmallStaysStarLargeGoesTree) {
  // The critical path of a star is s serialized receives in one round; a
  // tree pays fewer receives but one round charge per stage, a pipeline
  // one per server. Every topology carries the same total words, so the
  // pick is the shortest critical path: a star for tiny fleets, a tree
  // for big ones, never the pipeline.
  for (size_t s : {1, 2, 4, 16, 64, 256, 1024}) {
    const ConfigPlan plan = SolveTable1(Table1Request(s, 64, 0.1, 0, false));
    ASSERT_FALSE(plan.ranked.empty());
    const ConfigCandidate& best = plan.best();
    ASSERT_EQ(best.config.family, ProtocolFamily::kFdMerge) << "s=" << s;
    for (const ConfigCandidate& c : plan.ranked) {
      if (c.cost.total_words == best.cost.total_words) {
        EXPECT_LE(best.cost.critical_path_words, c.cost.critical_path_words)
            << "s=" << s << " vs " << c.rationale;
      }
    }
    EXPECT_EQ(best.config.topology.kind,
              s <= 4 ? TopologyKind::kStar : TopologyKind::kTree)
        << "s=" << s;
  }
}

TEST(ProtocolPlannerTest, AutoTopologyThreadsIntoThePlannedProtocol) {
  // Deterministic goal forces fd_merge at this instance; the solver's
  // tree pick reaches the built protocol.
  const ConfigPlan plan = SolveTable1(Table1Request(256, 64, 0.25, 2, false));
  ASSERT_FALSE(plan.ranked.empty());
  const ConfigCandidate& best = plan.best();
  ASSERT_EQ(best.config.topology.kind, TopologyKind::kTree);
  auto protocol = BuildProtocol(best.config, /*seed=*/42);
  ASSERT_TRUE(protocol.ok());
  ASSERT_EQ((*protocol)->Name(), "fd_merge");
  const auto& fd = static_cast<const FdMergeProtocol&>(**protocol);
  EXPECT_EQ(fd.options().topology.kind, best.config.topology.kind);
  EXPECT_EQ(fd.options().topology.fanout, best.config.topology.fanout);
  // A tree plan predicts strictly less coordinator inbound than its
  // total words, and says so in the rationale.
  EXPECT_LT(best.cost.coordinator_words, best.cost.total_words);
  EXPECT_NE(best.rationale.find("tree8"), std::string::npos);
}

TEST(ProtocolPlannerTest, ExplicitTopologyRequestIsHonored) {
  SketchConfig config;
  config.family = ProtocolFamily::kExactGram;
  config.working_eps = 0.5;
  config.topology = MergeTopologyOptions::Tree(4);
  auto protocol = BuildProtocol(config, /*seed=*/42);
  ASSERT_TRUE(protocol.ok());
  ASSERT_EQ((*protocol)->Name(), "exact_gram");
  const auto& gram = static_cast<const ExactGramProtocol&>(**protocol);
  EXPECT_EQ(gram.options().topology.kind, TopologyKind::kTree);
  EXPECT_EQ(gram.options().topology.fanout, 4u);
}

TEST(ProtocolPlannerTest, StarOnlyProtocolsKeepStarPlanFields) {
  const ConfigPlan plan = SolveTable1(Table1Request(512, 64, 0.3));
  ASSERT_FALSE(plan.ranked.empty());
  ASSERT_EQ(plan.best().config.family, ProtocolFamily::kRowSampling);
  for (const ConfigCandidate& c : plan.ranked) {
    if (c.config.family == ProtocolFamily::kRowSampling ||
        c.config.family == ProtocolFamily::kSvs) {
      EXPECT_TRUE(c.config.topology.is_star()) << c.rationale;
      EXPECT_DOUBLE_EQ(c.cost.coordinator_words, c.cost.total_words);
    }
  }
}

TEST(ProtocolPlannerTest, CostFormulasAreMonotone) {
  auto words = [](size_t s, double eps, size_t k, const std::string& key) {
    return Words(SolveTable1(Table1Request(s, 32, eps, k)), key);
  };
  EXPECT_LT(words(4, 0.1, 2, "fd_merge"), words(8, 0.1, 2, "fd_merge"));
  EXPECT_LT(words(4, 0.1, 0, "svs_quadratic"),
            words(16, 0.1, 0, "svs_quadratic"));
  EXPECT_LT(words(8, 0.4, 2, "adaptive_sketch"),
            words(8, 0.1, 2, "adaptive_sketch"));
}

TEST(ProtocolPlannerTest, PlannedProtocolRunsAndMeetsBudget) {
  const Matrix a = GenerateLowRankPlusNoise({.rows = 320,
                                             .cols = 24,
                                             .rank = 4,
                                             .noise_stddev = 0.3,
                                             .seed = 1});
  const ConfigPlan plan = SolveTable1(Table1Request(8, 24, 0.25, 3));
  ASSERT_FALSE(plan.ranked.empty());
  auto protocol = BuildProtocol(plan.best().config, /*seed=*/42);
  ASSERT_TRUE(protocol.ok());
  auto cluster = Cluster::Create(
      PartitionRows(a, 8, PartitionScheme::kRoundRobin), 0.25);
  ASSERT_TRUE(cluster.ok());
  auto result = (*protocol)->Run(*cluster);
  ASSERT_TRUE(result.ok());
  // Certify at the protocol's guarantee constant (3 eps covers all).
  EXPECT_TRUE(IsEpsKSketch(a, result->sketch, 3.0 * 0.25, 3));
  EXPECT_FALSE(plan.best().rationale.empty());
}

TEST(ProtocolPlannerTest, PredictionWithinFactorOfMeasured) {
  // The cost model should be within ~3x of the metered words (it is a
  // planner, not an oracle).
  const Matrix a = GenerateZipfSpectrum(
      {.rows = 640, .cols = 32, .alpha = 0.8, .seed = 2});
  for (size_t s : {4u, 32u}) {
    const ConfigPlan plan = SolveTable1(Table1Request(s, 32, 0.1));
    ASSERT_FALSE(plan.ranked.empty());
    auto protocol = BuildProtocol(plan.best().config, /*seed=*/42);
    ASSERT_TRUE(protocol.ok());
    auto cluster = Cluster::Create(
        PartitionRows(a, s, PartitionScheme::kRoundRobin), 0.1);
    ASSERT_TRUE(cluster.ok());
    auto result = (*protocol)->Run(*cluster);
    ASSERT_TRUE(result.ok());
    const double measured = static_cast<double>(result->comm.total_words);
    const double predicted = plan.best().cost.total_words;
    EXPECT_LT(measured, 3.0 * predicted);
    EXPECT_GT(measured, predicted / 8.0);
  }
}

AutoConfRequest ArbitraryPartitionRequest(size_t s, size_t d, double eps) {
  AutoConfRequest request = Table1Request(s, d, eps);
  request.goal.arbitrary_partition = true;
  return request;
}

TEST(ProtocolPlannerTest, CountSketchWordsFollowTable1Formula) {
  // s * ceil(4/eps^2) * d + s seed downlinks.
  const double words =
      Words(SolveTable1(ArbitraryPartitionRequest(8, 16, 0.2)), "countsketch");
  EXPECT_DOUBLE_EQ(words, 8.0 * 100.0 * 16.0 + 8.0);
  // Quadratic in 1/eps: halving eps quadruples the bucket payload.
  EXPECT_GT(
      Words(SolveTable1(ArbitraryPartitionRequest(8, 16, 0.1)), "countsketch"),
      3.5 * words);
}

TEST(ProtocolPlannerTest, CountSketchCrossesExactGramInHighDimension) {
  // exact_gram pays s*d^2/2; countsketch pays s*d*4/eps^2 — per Table 1
  // the crossover is at d ~ 8/eps^2 (= 32 at eps = 0.5), independent of s.
  const ConfigPlan low = SolveTable1(Table1Request(4, 16, 0.5));
  EXPECT_LT(Words(low, "exact_gram"), Words(low, "countsketch"));
  const ConfigPlan high = SolveTable1(Table1Request(4, 256, 0.5));
  EXPECT_GT(Words(high, "exact_gram"), Words(high, "countsketch"));
}

TEST(ProtocolPlannerTest, ArbitraryPartitionPlansCountSketch) {
  EXPECT_EQ(Pick(ArbitraryPartitionRequest(8, 16, 0.2)), "countsketch");
}

// The arbitrary-partition plan runs end to end on additive shares and
// meets eps * ||A||_F^2 against the sum at constant probability.
TEST(ProtocolPlannerTest, ArbitraryPartitionPlanRunsOnAdditiveShares) {
  const Matrix a = GenerateZipfSpectrum(
      {.rows = 400, .cols = 16, .alpha = 0.8, .seed = 14});
  const ConfigPlan plan = SolveTable1(ArbitraryPartitionRequest(6, 16, 0.25));
  ASSERT_FALSE(plan.ranked.empty());
  int good = 0;
  for (uint64_t t = 0; t < 5; ++t) {
    auto protocol = BuildProtocol(plan.best().config, 200 + t);
    ASSERT_TRUE(protocol.ok());
    auto cluster = Cluster::CreateAdditive(SplitAdditive(a, 6, t), 0.25);
    ASSERT_TRUE(cluster.ok());
    auto result = (*protocol)->Run(*cluster);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (CovarianceError(a, result->sketch) <= 0.25 * SquaredFrobeniusNorm(a)) {
      ++good;
    }
  }
  EXPECT_GE(good, 4);
}

TEST(ProtocolPlannerTest, ArbitraryPartitionRejectsDeterministicAndRankGoals) {
  AutoConfRequest deterministic = ArbitraryPartitionRequest(8, 16, 0.2);
  deterministic.goal.allow_randomized = false;
  AutoConfRequest ranked = ArbitraryPartitionRequest(8, 16, 0.2);
  ranked.goal.k = 4;
  for (const AutoConfRequest& request : {deterministic, ranked}) {
    EXPECT_EQ(SolveSketchConfig(request, nullptr).status().code(),
              StatusCode::kFailedPrecondition);
  }
}

TEST(ProtocolPlannerTest, ArbitraryPartitionHonorsTopologyRequest) {
  // A tree reduction of the bucket matrices shrinks coordinator inbound
  // below the star's s*m*d, and the built protocol runs that tree.
  const ConfigPlan plan = SolveTable1(ArbitraryPartitionRequest(16, 8, 0.25));
  const ConfigCandidate* tree =
      Find(plan, ProtocolFamily::kCountSketch, TopologyKind::kTree);
  ASSERT_NE(tree, nullptr);
  EXPECT_LT(tree->cost.coordinator_words, tree->cost.total_words);
  auto protocol = BuildProtocol(tree->config, /*seed=*/42);
  ASSERT_TRUE(protocol.ok());
  ASSERT_EQ((*protocol)->Name(), "countsketch");
  const auto& cs = static_cast<const CountSketchProtocol&>(**protocol);
  EXPECT_EQ(cs.options().topology.kind, TopologyKind::kTree);
}

}  // namespace
}  // namespace autoconf
}  // namespace distsketch
