#include "dist/cluster.h"

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/adaptive_sketch_protocol.h"
#include "dist/exact_gram_protocol.h"
#include "dist/fd_merge_protocol.h"
#include "dist/low_rank_exact_protocol.h"
#include "dist/row_sampling_protocol.h"
#include "dist/svs_protocol.h"
#include "linalg/blas.h"
#include "pca/distributed_power_iteration.h"
#include "pca/fd_pca.h"
#include "pca/sketch_and_solve.h"
#include "query/distributed_ridge.h"
#include "sketch/error_metrics.h"
#include "workload/generators.h"
#include "workload/partition.h"

namespace distsketch {
namespace {

TEST(ClusterTest, CreateValidation) {
  EXPECT_FALSE(Cluster::Create({}, 0.1).ok());
  // All-empty partitions.
  std::vector<Matrix> empties(3);
  EXPECT_FALSE(Cluster::Create(std::move(empties), 0.1).ok());
  // Mismatched widths.
  std::vector<Matrix> mismatched;
  mismatched.push_back(Matrix(2, 3));
  mismatched.push_back(Matrix(2, 4));
  EXPECT_FALSE(Cluster::Create(std::move(mismatched), 0.1).ok());
  // Bad eps.
  std::vector<Matrix> ok_parts;
  ok_parts.push_back(Matrix(2, 3));
  EXPECT_FALSE(Cluster::Create(std::move(ok_parts), 0.0).ok());
}

TEST(ClusterTest, BasicAccessors) {
  const Matrix a = GenerateGaussian(20, 5, 1.0, 1);
  auto cluster = Cluster::Create(
      PartitionRows(a, 4, PartitionScheme::kContiguous), 0.1);
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ(cluster->num_servers(), 4u);
  EXPECT_EQ(cluster->dim(), 5u);
  EXPECT_EQ(cluster->total_rows(), 20u);
  EXPECT_EQ(cluster->server(0).num_rows(), 5u);
  EXPECT_EQ(cluster->server(2).id(), 2);
}

TEST(ClusterTest, EmptyServerToleratedIfAnyNonEmpty) {
  std::vector<Matrix> parts;
  parts.push_back(GenerateGaussian(4, 3, 1.0, 2));
  parts.push_back(Matrix());  // empty server
  auto cluster = Cluster::Create(std::move(parts), 0.1);
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ(cluster->server(1).num_rows(), 0u);
  EXPECT_EQ(cluster->server(1).local_rows().cols(), 3u);
}

TEST(ClusterTest, AssembleGroundTruthConcatenates) {
  const Matrix a = GenerateGaussian(12, 4, 1.0, 3);
  auto cluster = Cluster::Create(
      PartitionRows(a, 3, PartitionScheme::kContiguous), 0.1);
  ASSERT_TRUE(cluster.ok());
  EXPECT_TRUE(cluster->AssembleGroundTruth() == a);
}

TEST(ClusterTest, ResetLogClearsStats) {
  const Matrix a = GenerateGaussian(6, 3, 1.0, 4);
  auto cluster =
      Cluster::Create(PartitionRows(a, 2, PartitionScheme::kContiguous),
                      0.1);
  ASSERT_TRUE(cluster.ok());
  cluster->log().BeginRound();
  cluster->log().Record(0, kCoordinator, "x", 7);
  EXPECT_EQ(cluster->log().Stats().total_words, 7u);
  cluster->ResetLog();
  EXPECT_EQ(cluster->log().Stats().total_words, 0u);
  EXPECT_EQ(cluster->log().Stats().num_rounds, 0);
}

TEST(ClusterTest, StreamingAccessIsSinglePass) {
  const Matrix a = GenerateGaussian(8, 3, 1.0, 5);
  auto cluster = Cluster::Create(
      PartitionRows(a, 2, PartitionScheme::kRoundRobin), 0.1);
  ASSERT_TRUE(cluster.ok());
  RowStream stream = cluster->server(0).OpenStream();
  size_t n = 0;
  while (stream.HasNext()) {
    stream.Next();
    ++n;
  }
  EXPECT_EQ(n, 4u);
}

TEST(ClusterTest, CostModelWordSizeReflectsInstance) {
  const Matrix a = GenerateGaussian(1000, 50, 1.0, 6);
  auto cluster = Cluster::Create(
      PartitionRows(a, 4, PartitionScheme::kContiguous), 0.01);
  ASSERT_TRUE(cluster.ok());
  EXPECT_GE(cluster->cost_model().bits_per_word(), 32u);
}

TEST(ClusterTest, CreateAdditiveValidation) {
  EXPECT_FALSE(Cluster::CreateAdditive({}, 0.1).ok());
  std::vector<Matrix> mismatched;
  mismatched.push_back(Matrix(3, 4));
  mismatched.push_back(Matrix(3, 5));
  EXPECT_FALSE(Cluster::CreateAdditive(std::move(mismatched), 0.1).ok());
  std::vector<Matrix> short_share;
  short_share.push_back(Matrix(3, 4));
  short_share.push_back(Matrix(2, 4));
  EXPECT_FALSE(Cluster::CreateAdditive(std::move(short_share), 0.1).ok());
  std::vector<Matrix> empty;
  empty.push_back(Matrix());
  EXPECT_FALSE(Cluster::CreateAdditive(std::move(empty), 0.1).ok());
  std::vector<Matrix> ok_shares;
  ok_shares.push_back(GenerateGaussian(3, 4, 1.0, 1));
  EXPECT_FALSE(Cluster::CreateAdditive(std::move(ok_shares), 0.0).ok());
}

TEST(ClusterTest, CreateAdditiveKeepsNAndSumsGroundTruth) {
  const Matrix a = GenerateGaussian(12, 4, 1.0, 7);
  auto cluster = Cluster::CreateAdditive(SplitAdditive(a, 3, 8), 0.1);
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ(cluster->partition(), PartitionModel::kAdditive);
  EXPECT_EQ(cluster->num_servers(), 3u);
  EXPECT_EQ(cluster->total_rows(), 12u);  // the shared n, not 3n
  EXPECT_EQ(cluster->server(2).num_rows(), 12u);
  EXPECT_TRUE(AlmostEqual(cluster->AssembleGroundTruth(), a, 1e-10));

  auto rows = Cluster::Create(
      PartitionRows(a, 3, PartitionScheme::kContiguous), 0.1);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->partition(), PartitionModel::kRows);
}

TEST(ClusterTest, SplitAdditiveSumsBack) {
  const Matrix a = GenerateLowRankPlusNoise(
      {.rows = 40, .cols = 8, .rank = 3, .noise_stddev = 0.2, .seed = 1});
  const auto shares = SplitAdditive(a, 5, 7);
  ASSERT_EQ(shares.size(), 5u);
  Matrix sum(40, 8);
  for (const auto& share : shares) sum = Add(sum, share);
  EXPECT_TRUE(AlmostEqual(sum, a, 1e-10));
  // Shares individually look nothing like A (dense noise).
  EXPECT_GT(CovarianceError(a, shares[0]),
            0.3 * SquaredFrobeniusNorm(a) /
                static_cast<double>(a.cols()));
}

TEST(ClusterTest, AdditiveLocalGramsDoNotAddUp) {
  // The reason the row-partition protocols fail on additive shares: sum
  // of share Grams != Gram of sum.
  const Matrix a = GenerateGaussian(30, 6, 1.0, 2);
  const auto shares = SplitAdditive(a, 3, 8);
  Matrix gram_sum(6, 6);
  for (const auto& share : shares) gram_sum = Add(gram_sum, Gram(share));
  EXPECT_FALSE(AlmostEqual(gram_sum, Gram(a),
                           0.1 * SquaredFrobeniusNorm(a)));
}

// Every consumer whose math assumes whole rows refuses an additive
// cluster instead of silently sketching the stacked shares.
TEST(ClusterTest, RowOnlyConsumersRejectAdditiveShares) {
  // Rank 3 <= 2k keeps low_rank_exact runnable on the row partition.
  const Matrix a = GenerateLowRankPlusNoise(
      {.rows = 40, .cols = 6, .rank = 3, .noise_stddev = 0.0, .seed = 3});
  using Consumer = std::function<Status(Cluster&)>;
  auto sketch = [](auto protocol) -> Consumer {
    return [protocol](Cluster& c) mutable {
      return protocol.Run(c).status();
    };
  };
  const std::vector<std::pair<std::string, Consumer>> consumers = {
      {"exact_gram", sketch(ExactGramProtocol())},
      {"fd_merge", sketch(FdMergeProtocol(FdMergeOptions{}))},
      {"row_sampling", sketch(RowSamplingProtocol(RowSamplingOptions{}))},
      {"svs", sketch(SvsProtocol(SvsProtocolOptions{}))},
      {"adaptive_sketch",
       sketch(AdaptiveSketchProtocol(AdaptiveSketchOptions{}))},
      {"low_rank_exact", sketch(LowRankExactProtocol(LowRankExactOptions{}))},
      {"power_iteration_pca",
       sketch(DistributedPowerIterationPca(PowerIterationPcaOptions{}))},
      {"fd_pca", sketch(FdPcaProtocol(FdPcaOptions{}))},
      {"sketch_and_solve_pca",
       sketch(SketchAndSolvePca(SketchAndSolveOptions{}))},
      {"distributed_ridge",
       [](Cluster& c) { return DistributedRidge(c, {}).status(); }},
  };
  for (const auto& [name, consume] : consumers) {
    auto additive = Cluster::CreateAdditive(SplitAdditive(a, 4, 5), 0.1);
    ASSERT_TRUE(additive.ok());
    EXPECT_EQ(consume(*additive).code(), StatusCode::kFailedPrecondition)
        << name;
    auto rows = Cluster::Create(
        PartitionRows(a, 4, PartitionScheme::kContiguous), 0.1);
    ASSERT_TRUE(rows.ok());
    EXPECT_TRUE(consume(*rows).ok()) << name;
  }
}

}  // namespace
}  // namespace distsketch
