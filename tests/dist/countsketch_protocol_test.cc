// Distributed CountSketch projection protocol: the coordinator's sum of
// per-server bucket matrices must equal a single compressor run over the
// same (global index, row) pairs — CountSketch is linear, so shard-and-
// sum is exact, not approximate. The approximation lives entirely in the
// projection itself: coverr(A, SA) <= eps * ||A||_F^2 at the swept seeds.
// The same protocol sketches additive shares (Cluster::CreateAdditive,
// the arbitrary partition model), where a lost share fails the run.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "dist/countsketch_protocol.h"
#include "dist/fault_injection.h"
#include "linalg/blas.h"
#include "sketch/countsketch.h"
#include "sketch/error_metrics.h"
#include "workload/generators.h"
#include "workload/partition.h"

namespace distsketch {
namespace {

constexpr size_t kServers = 9;

// Mirrors the protocol's global row index scheme (DESIGN.md §14).
uint64_t GlobalRowIndex(size_t server, size_t local_row) {
  return (static_cast<uint64_t>(server) << 32) |
         static_cast<uint64_t>(local_row);
}

size_t BucketsFor(const CountSketchProtocolOptions& options) {
  return CountSketchBuckets(options.eps, options.oversample);
}

Cluster MakeCluster(const std::vector<Matrix>& parts) {
  auto cluster = Cluster::Create(parts, 0.2);
  DS_CHECK(cluster.ok());
  return std::move(*cluster);
}

// The oracle: one compressor absorbing every shard's rows under the
// shard's global indices. By linearity the protocol must reproduce this
// bit for bit — same hashes, same adds, only the association differs,
// and the test data has +-1 entries so bucket sums are exact integers.
Matrix Oracle(const std::vector<Matrix>& parts,
              const CountSketchProtocolOptions& options) {
  CountSketchCompressor compressor(BucketsFor(options), parts[0].cols(),
                                   options.seed);
  for (size_t i = 0; i < parts.size(); ++i) {
    for (size_t r = 0; r < parts[i].rows(); ++r) {
      compressor.Absorb(GlobalRowIndex(i, r), parts[i].Row(r));
    }
  }
  return compressor.ExportState().compressed;
}

TEST(CountSketchProtocolTest, ShardAndSumEqualsOneCompressorExactly) {
  const Matrix a = GenerateSignMatrix(117, 8, /*seed=*/13);
  const auto parts = PartitionRows(a, kServers, PartitionScheme::kRoundRobin);
  CountSketchProtocolOptions options{.eps = 0.35, .oversample = 2.0,
                                     .seed = 77};
  for (const MergeTopologyOptions& topo :
       {MergeTopologyOptions::Star(), MergeTopologyOptions::Tree(3)}) {
    options.topology = topo;
    Cluster cluster = MakeCluster(parts);
    CountSketchProtocol protocol(options);
    auto result = protocol.Run(cluster);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->sketch == Oracle(parts, options));
    EXPECT_EQ(result->sketch_rows, BucketsFor(options));
  }
}

TEST(CountSketchProtocolTest, MeetsTheCoverrBoundAtSweptSeeds) {
  const Matrix a = GenerateLowRankPlusNoise({.rows = 300,
                                             .cols = 16,
                                             .rank = 5,
                                             .decay = 0.5,
                                             .top_singular_value = 20.0,
                                             .noise_stddev = 0.3,
                                             .seed = 8});
  const double eps = 0.3;
  const double budget = eps * SquaredFrobeniusNorm(a);
  const auto parts = PartitionRows(a, kServers, PartitionScheme::kContiguous);
  // coverr <= eps ||A||_F^2 holds with constant probability; sweeping a
  // few fixed seeds keeps the test deterministic while showing the bound
  // isn't a one-seed accident.
  for (const uint64_t seed : {1ull, 29ull, 12345ull}) {
    Cluster cluster = MakeCluster(parts);
    CountSketchProtocol protocol({.eps = eps, .oversample = 4.0,
                                  .seed = seed,
                                  .topology = MergeTopologyOptions::Tree(4)});
    auto result = protocol.Run(cluster);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(CovarianceError(a, result->sketch), budget) << "seed=" << seed;
  }
}

TEST(CountSketchProtocolTest, SparseAndDenseInputsAgreeBitForBit) {
  const Matrix a = GenerateSparse(
      {.rows = 180, .cols = 24, .density = 0.05, .seed = 17});
  const auto parts = PartitionRows(a, kServers, PartitionScheme::kContiguous);
  const CountSketchProtocolOptions options{
      .eps = 0.4, .oversample = 2.0, .seed = 5,
      .topology = MergeTopologyOptions::Tree(3)};

  Cluster dense = MakeCluster(parts);
  auto dense_run = CountSketchProtocol(options).Run(dense);
  ASSERT_TRUE(dense_run.ok());

  auto sparse_cluster = Cluster::CreateSparse(parts, 0.2);
  ASSERT_TRUE(sparse_cluster.ok());
  auto sparse_run = CountSketchProtocol(options).Run(*sparse_cluster);
  ASSERT_TRUE(sparse_run.ok());

  // AbsorbSparse touches exactly the entries Absorb would change by a
  // non-zero amount: the O(nnz) route is bit-identical, not approximate.
  EXPECT_TRUE(sparse_run->sketch == dense_run->sketch);
}

TEST(CountSketchProtocolTest, SeedChangesTheHashFamily) {
  const Matrix a = GenerateSignMatrix(60, 6, /*seed=*/2);
  const auto parts = PartitionRows(a, kServers, PartitionScheme::kRoundRobin);
  auto run = [&](uint64_t seed) {
    Cluster cluster = MakeCluster(parts);
    CountSketchProtocol protocol({.eps = 0.4, .oversample = 2.0,
                                  .seed = seed});
    auto result = protocol.Run(cluster);
    DS_CHECK(result.ok());
    return std::move(result->sketch);
  };
  const Matrix first = run(11);
  EXPECT_TRUE(run(11) == first) << "same seed must be reproducible";
  EXPECT_FALSE(run(12) == first) << "different seed, different buckets";
}

TEST(CountSketchProtocolTest, InvalidOptionsAreRejected) {
  const Matrix a = GenerateSignMatrix(20, 4, /*seed=*/3);
  const auto parts = PartitionRows(a, 4, PartitionScheme::kRoundRobin);
  for (const CountSketchProtocolOptions& options :
       {CountSketchProtocolOptions{.eps = 0.0},
        CountSketchProtocolOptions{.eps = -0.1},
        CountSketchProtocolOptions{.eps = 0.3, .oversample = 0.0}}) {
    Cluster cluster = MakeCluster(parts);
    auto result = CountSketchProtocol(options).Run(cluster);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

Cluster MakeShareCluster(std::vector<Matrix> shares, double eps = 0.2) {
  auto cluster = Cluster::CreateAdditive(std::move(shares), eps);
  DS_CHECK(cluster.ok());
  return std::move(*cluster);
}

// Integer-valued additive shares of an integer matrix: every bucket sum
// is an exact integer whatever the association order.
std::vector<Matrix> IntegerShares(const Matrix& a, size_t s, uint64_t seed) {
  std::vector<Matrix> shares = SplitAdditive(a, s, seed);
  Matrix last = a;
  for (size_t i = 0; i + 1 < s; ++i) {
    for (size_t k = 0; k < shares[i].size(); ++k) {
      shares[i].data()[k] = std::round(3.0 * shares[i].data()[k]);
    }
    last = Subtract(last, shares[i]);
  }
  shares.back() = std::move(last);
  return shares;
}

// The trivial exact protocol in the additive model, kept as an oracle:
// ship every share (O(s n d) words) and sum them at the coordinator.
SketchProtocolResult ShipEveryShare(Cluster& cluster) {
  cluster.ResetLog();
  cluster.log().BeginRound();
  SketchProtocolResult result;
  result.sketch.SetZero(cluster.total_rows(), cluster.dim());
  for (size_t i = 0; i < cluster.num_servers(); ++i) {
    const wire::Message msg =
        wire::DenseMessage("raw_share", cluster.server(i).local_rows());
    SendOutcome sent = cluster.Send(static_cast<int>(i), kCoordinator, msg);
    DS_CHECK(sent.delivered);
    auto share = wire::DecodeMessagePayload(sent.payload);
    DS_CHECK(share.ok());
    result.sketch = Add(result.sketch, share->matrix);
  }
  result.comm = cluster.log().Stats();
  return result;
}

// Under kAdditive every share of row r hashes with the shared index r,
// so the protocol's sum is S A for the assembled A = sum_i A^(i): bit
// for bit one compressor over A, on every topology and thread count.
TEST(CountSketchProtocolTest, AdditiveSharesEqualOneCompressorOverTheSum) {
  const Matrix a = GenerateSignMatrix(90, 7, /*seed=*/21);
  const auto shares = IntegerShares(a, kServers, /*seed=*/4);
  CountSketchProtocolOptions options{.eps = 0.35, .oversample = 2.0,
                                     .seed = 91};
  const Matrix sum = MakeShareCluster(shares).AssembleGroundTruth();
  ASSERT_TRUE(sum == a);
  CountSketchCompressor oracle(BucketsFor(options), a.cols(), options.seed);
  for (size_t r = 0; r < sum.rows(); ++r) oracle.Absorb(r, sum.Row(r));

  const size_t saved_threads = ThreadPool::GlobalThreads();
  for (const size_t threads : {1u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    for (const MergeTopologyOptions& topo :
         {MergeTopologyOptions::Star(), MergeTopologyOptions::Tree(3),
          MergeTopologyOptions::Pipeline()}) {
      options.topology = topo;
      Cluster cluster = MakeShareCluster(shares);
      auto result = CountSketchProtocol(options).Run(cluster);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(result->sketch == oracle.compressed())
          << "threads=" << threads << " topology=" << topo.fanout;
    }
  }
  ThreadPool::SetGlobalThreads(saved_threads);
}

TEST(CountSketchProtocolTest, ShippingSharesIsExactAtSndWords) {
  const Matrix a = GenerateLowRankPlusNoise(
      {.rows = 50, .cols = 10, .rank = 4, .noise_stddev = 0.1, .seed = 3});
  Cluster cluster = MakeShareCluster(SplitAdditive(a, 4, 9), 0.1);
  const SketchProtocolResult result = ShipEveryShare(cluster);
  EXPECT_NEAR(CovarianceError(a, result.sketch), 0.0,
              1e-6 * SquaredFrobeniusNorm(a));
  // The words E5 reports for shipping shares without running this.
  EXPECT_EQ(result.comm.total_words,
            cluster.num_servers() * cluster.cost_model().MatrixWords(50, 10));
  EXPECT_EQ(result.comm.total_words, 4u * 50u * 10u);
}

TEST(CountSketchProtocolTest, AdditiveSharesMeetTheBudget) {
  const Matrix a = GenerateZipfSpectrum(
      {.rows = 400, .cols = 16, .alpha = 0.8, .seed = 4});
  const double eps = 0.25;
  Cluster cluster = MakeShareCluster(SplitAdditive(a, 6, 10), eps);
  int good = 0;
  for (int t = 0; t < 5; ++t) {
    auto result = CountSketchProtocol(
                      {.eps = eps, .oversample = 4.0,
                       .seed = 100 + static_cast<uint64_t>(t)})
                      .Run(cluster);
    ASSERT_TRUE(result.ok());
    // IMPORTANT: error is against the SUM, not any share.
    if (CovarianceError(a, result->sketch) <=
        eps * SquaredFrobeniusNorm(a)) {
      ++good;
    }
  }
  EXPECT_GE(good, 4);
}

TEST(CountSketchProtocolTest, AdditiveCostIsIndependentOfN) {
  const double eps = 0.25;
  uint64_t words_small = 0, words_large = 0;
  for (const size_t n : {200u, 3200u}) {
    const Matrix a = GenerateGaussian(n, 12, 1.0, n);
    Cluster cluster = MakeShareCluster(SplitAdditive(a, 4, 11), eps);
    auto result = CountSketchProtocol({.eps = eps, .seed = 5}).Run(cluster);
    ASSERT_TRUE(result.ok());
    (n == 200u ? words_small : words_large) = result->comm.total_words;
  }
  EXPECT_EQ(words_small, words_large);
}

TEST(CountSketchProtocolTest, RowPartitionIsASpecialCaseOfAdditive) {
  // Shares with disjoint supports still sketch the sum (sanity that the
  // model generalizes row partition).
  const Matrix a = GenerateGaussian(60, 8, 1.0, 6);
  std::vector<Matrix> shares(3, Matrix(60, 8));
  for (size_t i = 0; i < 60; ++i) {
    for (size_t j = 0; j < 8; ++j) shares[i % 3](i, j) = a(i, j);
  }
  Cluster cluster = MakeShareCluster(std::move(shares), 0.25);
  auto result = CountSketchProtocol({.eps = 0.25, .seed = 12}).Run(cluster);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(CovarianceError(a, result->sketch),
            0.25 * SquaredFrobeniusNorm(a));
}

// A lost share makes the sum unrecoverable (no widening covers the
// missing cross terms), so the additive run fails closed on any topology;
// faults that only delay delivery leave the sketch untouched.
TEST(CountSketchProtocolTest, AdditiveShareLossFailsClosed) {
  const Matrix a = GenerateSignMatrix(72, 6, /*seed=*/5);
  const auto shares = IntegerShares(a, kServers, /*seed=*/6);
  FaultConfig kill_one;
  kill_one.per_server[3].die_at_time = 0.0;
  kill_one.seed = 13;
  FaultConfig transient;
  transient.default_profile.transient_fail_prob = 0.2;
  transient.seed = 13;
  for (const MergeTopologyOptions& topo :
       {MergeTopologyOptions::Star(), MergeTopologyOptions::Tree(3)}) {
    const CountSketchProtocolOptions options{
        .eps = 0.4, .oversample = 2.0, .seed = 8, .topology = topo};
    Cluster ideal = MakeShareCluster(shares);
    auto fault_free = CountSketchProtocol(options).Run(ideal);
    ASSERT_TRUE(fault_free.ok());

    Cluster killed = MakeShareCluster(shares);
    killed.InstallFaultPlan(kill_one);
    auto lost = CountSketchProtocol(options).Run(killed);
    EXPECT_EQ(lost.status().code(), StatusCode::kUnavailable)
        << "fanout=" << topo.fanout;

    Cluster delayed = MakeShareCluster(shares);
    delayed.InstallFaultPlan(transient);
    auto retried = CountSketchProtocol(options).Run(delayed);
    ASSERT_TRUE(retried.ok()) << retried.status().ToString();
    EXPECT_FALSE(retried->degraded.degraded());
    EXPECT_GT(retried->comm.num_retransmits, 0u) << "plan never stalled";
    EXPECT_TRUE(retried->sketch == fault_free->sketch);
  }
}

}  // namespace
}  // namespace distsketch
