// The acceptance gate for the auto-configurer front door: a client
// states a goal (eps = 0.05, delta = 0.01) plus a coordinator-inbound
// budget over the service wire; the service solves, provisions the
// tenant, and echoes the plan. The test then (a) replays the planned
// protocol on a real 8-server cluster and checks the measured error
// meets the goal while the metered CommLog respects the budget, and
// (b) ingests the same workload through the service and checks the
// tenant's queried sketch meets the goal too.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "autoconf/calibration.h"
#include "autoconf/error_predictor.h"
#include "autoconf/protocol_factory.h"
#include "autoconf/solver.h"
#include "dist/cluster.h"
#include "dist/comm_log.h"
#include "dist/merge_topology.h"
#include "dist/protocol.h"
#include "linalg/blas.h"
#include "service/service_runner.h"
#include "service/service_wire.h"
#include "sketch/error_metrics.h"
#include "workload/generators.h"
#include "workload/partition.h"

namespace distsketch {
namespace {

using autoconf::AutoConfRequest;
using autoconf::BuildProtocol;
using autoconf::ConfigForFamilyKey;
using autoconf::DefaultCalibrationSpec;
using autoconf::ErrorPredictor;
using autoconf::SketchConfig;
using autoconf::SolveSketchConfig;

constexpr size_t kServers = 8;
constexpr size_t kDim = 32;
constexpr size_t kRows = 1024;
constexpr double kGoalEps = 0.05;

const ErrorPredictor& Predictor() {
  static const ErrorPredictor* predictor = [] {
    auto loaded = ErrorPredictor::LoadFromFile(DS_AUTOCONF_CALIBRATION);
    if (!loaded.ok()) {
      ADD_FAILURE() << loaded.status().ToString();
      std::abort();
    }
    return new ErrorPredictor(std::move(*loaded));
  }();
  return *predictor;
}

// The calibration workload at the e2e shape: the spectrum the committed
// bands certify.
Matrix Workload(uint64_t seed) {
  const auto spec = DefaultCalibrationSpec();
  LowRankPlusNoiseOptions options;
  options.rows = kRows;
  options.cols = kDim;
  options.rank = spec.rank;
  options.decay = spec.decay;
  options.top_singular_value = spec.top_singular_value;
  options.noise_stddev = spec.noise_stddev;
  options.seed = seed;
  return GenerateLowRankPlusNoise(options);
}

// A meaningful coordinator-words budget for the goal: 2x the cheapest
// plan's predicted inbound words — tight enough that the solver must
// pick a communication-shaped config, loose enough to stay feasible.
uint64_t CoordinatorBudget() {
  AutoConfRequest request;
  request.goal.eps = kGoalEps;
  request.goal.delta = 0.01;
  request.shape = {kServers, kDim, kRows};
  auto plan = SolveSketchConfig(request, &Predictor());
  DS_CHECK(plan.ok() && plan->feasible());
  double min_coord = plan->ranked.front().cost.coordinator_words;
  for (const auto& c : plan->ranked) {
    min_coord = std::min(min_coord, c.cost.coordinator_words);
  }
  return static_cast<uint64_t>(min_coord * 2.0) + 1;
}

TEST(ConfigureE2ETest, FrontDoorProvisionsAConfigThatMeetsGoalAndBudget) {
  const uint64_t budget = CoordinatorBudget();

  ServiceRunnerOptions options;
  options.service.tenant = TenantOptions{.dim = kDim, .eps = 0.25,
                                         .epoch_rows = 64};
  options.service.predictor = &Predictor();
  options.service.max_tenants = 8;
  options.service.max_resident = 8;
  options.client_queue_capacity = 64;
  auto runner = ServiceRunner::Create(options);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();

  ConfigureParams params;
  params.eps = kGoalEps;
  params.delta = 0.01;
  params.budget_coordinator_words = budget;
  params.num_servers = kServers;
  params.dim = kDim;
  params.expected_rows = kRows;
  params.epoch_rows = 128;

  std::vector<ServiceResponse> answers;
  auto collect = [&answers](const ServiceResponse& r) { answers.push_back(r); };
  ASSERT_TRUE((*runner)->SubmitConfigure(0, "front-door", params, collect).ok());
  (*runner)->Drain();
  ASSERT_EQ(answers.size(), 1u);
  ASSERT_EQ(answers[0].code, StatusCode::kOk) << answers[0].tenant;
  const ConfigSummary& solved = answers[0].config;
  ASSERT_TRUE(solved.present);
  // The tenant ingest path is an unquantized FD sketch, so the service
  // certifies (and provisions) a plain fd_merge plan even when another
  // family tops the overall ranking.
  EXPECT_EQ(solved.family, "fd_merge");
  EXPECT_EQ(solved.quantize_bits, 0u);
  EXPECT_GE(solved.working_eps, kGoalEps);
  // The echoed rationale respects the budget and names it as binding.
  EXPECT_LE(solved.coordinator_words, static_cast<double>(budget));
  EXPECT_EQ(solved.binding,
            static_cast<uint8_t>(autoconf::BindingConstraint::kCoordinatorWords));
  // The stated band certifies the goal.
  EXPECT_LE(solved.error_hi, kGoalEps + 1e-12);

  // (a) Replay the plan on a real cluster: the echoed ConfigSummary is
  // enough to rebuild the exact protocol the solver priced.
  const Matrix a = Workload(/*seed=*/29);
  auto config = ConfigForFamilyKey(solved.family, solved.working_eps);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  config->topology.kind = static_cast<TopologyKind>(solved.topology);
  config->topology.fanout = solved.fanout;
  auto cluster = Cluster::Create(
      PartitionRows(a, kServers, PartitionScheme::kRoundRobin),
      solved.working_eps);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto protocol = BuildProtocol(*config, /*seed=*/29);
  ASSERT_TRUE(protocol.ok()) << protocol.status().ToString();
  auto result = (*protocol)->Run(*cluster);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const double rel_err =
      CovarianceError(a, result->sketch) / SquaredFrobeniusNorm(a);
  EXPECT_LE(rel_err, kGoalEps) << "family " << solved.family << " @ eps "
                               << solved.working_eps;
  EXPECT_LE(cluster->log().WordsReceivedBy(kCoordinator), budget);

  // (b) The provisioned tenant itself: ingest the workload through the
  // service, query, and check the goal on the tenant's sketch.
  for (const Matrix& chunk :
       PartitionRows(a, 4, PartitionScheme::kContiguous)) {
    ASSERT_TRUE((*runner)->SubmitIngest(0, "front-door", chunk, collect).ok());
  }
  ASSERT_TRUE((*runner)
                  ->Submit(0, EncodeQueryRequest("front-door"), collect)
                  .ok());
  (*runner)->Drain();
  ASSERT_EQ(answers.size(), 6u);
  for (size_t i = 1; i < 5; ++i) {
    ASSERT_EQ(answers[i].code, StatusCode::kOk) << "ingest chunk " << i;
  }
  ASSERT_EQ(answers[5].code, StatusCode::kOk);
  EXPECT_EQ(answers[5].rows_ingested, kRows);
  const double tenant_rel_err =
      CovarianceError(a, answers[5].sketch) / SquaredFrobeniusNorm(a);
  EXPECT_LE(tenant_rel_err, kGoalEps);

  // Re-configuring a provisioned tenant is refused, not silently resized.
  answers.clear();
  ASSERT_TRUE((*runner)->SubmitConfigure(0, "front-door", params, collect).ok());
  (*runner)->Drain();
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].code, StatusCode::kFailedPrecondition);
}

// The solver's arbitrary-partition config, built into a protocol, runs
// on additive shares and meets the goal against their sum at constant
// probability.
TEST(ConfigureE2ETest, ArbitraryPartitionConfigRunsOnAdditiveShares) {
  AutoConfRequest request;
  request.goal.eps = kGoalEps;
  request.goal.delta = 0.01;
  request.goal.arbitrary_partition = true;
  request.shape = {kServers, kDim, kRows};
  auto plan = SolveSketchConfig(request, &Predictor());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_FALSE(plan->ranked.empty());
  const SketchConfig& config = plan->best().config;
  ASSERT_EQ(config.family, ProtocolFamily::kCountSketch);

  const Matrix a = Workload(/*seed=*/31);
  int good = 0;
  for (uint64_t t = 0; t < 5; ++t) {
    auto cluster = Cluster::CreateAdditive(SplitAdditive(a, kServers, t),
                                           config.working_eps);
    ASSERT_TRUE(cluster.ok());
    auto protocol = BuildProtocol(config, /*seed=*/40 + t);
    ASSERT_TRUE(protocol.ok()) << protocol.status().ToString();
    auto result = (*protocol)->Run(*cluster);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (CovarianceError(a, result->sketch) <=
        kGoalEps * SquaredFrobeniusNorm(a)) {
      ++good;
    }
  }
  EXPECT_GE(good, 4) << "working_eps " << config.working_eps;
}

TEST(ConfigureE2ETest, InfeasibleBudgetAnswersFailedPreconditionWithPlan) {
  ServiceRunnerOptions options;
  options.service.tenant = TenantOptions{.dim = kDim, .eps = 0.25,
                                         .epoch_rows = 64};
  options.service.predictor = &Predictor();
  options.service.max_tenants = 8;
  options.service.max_resident = 8;
  auto runner = ServiceRunner::Create(options);
  ASSERT_TRUE(runner.ok());

  ConfigureParams params;
  params.eps = kGoalEps;
  params.delta = 0.01;
  params.budget_coordinator_words = 3;  // nothing fits
  params.num_servers = kServers;
  params.dim = kDim;
  params.expected_rows = kRows;

  std::vector<ServiceResponse> answers;
  auto collect = [&answers](const ServiceResponse& r) { answers.push_back(r); };
  ASSERT_TRUE((*runner)->SubmitConfigure(0, "hopeless", params, collect).ok());
  (*runner)->Drain();
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].code, StatusCode::kFailedPrecondition);
  // The least-violating candidate is still echoed so the client can see
  // how far off the budget is.
  EXPECT_TRUE(answers[0].config.present);
  EXPECT_GT(answers[0].config.coordinator_words, 3.0);
  // No tenant was provisioned.
  EXPECT_EQ((*runner)->service().known_tenants(), 0u);

  // Configure without a budget still works (error goal alone binds).
  params.budget_coordinator_words = 0;
  answers.clear();
  ASSERT_TRUE((*runner)->SubmitConfigure(0, "hopeless", params, collect).ok());
  (*runner)->Drain();
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].code, StatusCode::kOk);
  EXPECT_EQ(answers[0].config.binding,
            static_cast<uint8_t>(autoconf::BindingConstraint::kErrorGoal));
  EXPECT_EQ((*runner)->service().known_tenants(), 1u);
}

TEST(ConfigureE2ETest, ArbitraryPartitionGoalsAreRefused) {
  // Only a linear sketch answers correctly when A is shard-summed
  // entry-wise; the tenant ingest path absorbs whole rows into FD, so
  // the front door must refuse rather than provision a tenant whose
  // responses would be semantically wrong under that partition model.
  ServiceRunnerOptions options;
  options.service.tenant = TenantOptions{.dim = kDim, .eps = 0.25,
                                         .epoch_rows = 64};
  options.service.predictor = &Predictor();
  options.service.max_tenants = 8;
  options.service.max_resident = 8;
  auto runner = ServiceRunner::Create(options);
  ASSERT_TRUE(runner.ok());

  ConfigureParams params;
  params.eps = kGoalEps;
  params.delta = 0.01;
  params.arbitrary_partition = true;
  params.num_servers = kServers;
  params.dim = kDim;
  params.expected_rows = kRows;

  std::vector<ServiceResponse> answers;
  auto collect = [&answers](const ServiceResponse& r) { answers.push_back(r); };
  ASSERT_TRUE((*runner)->SubmitConfigure(0, "entrywise", params, collect).ok());
  (*runner)->Drain();
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].code, StatusCode::kFailedPrecondition);
  EXPECT_FALSE(answers[0].config.present);
  EXPECT_EQ((*runner)->service().known_tenants(), 0u);
}

}  // namespace
}  // namespace distsketch
