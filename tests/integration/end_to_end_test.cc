// End-to-end integration tests that chain modules the way a downstream
// user would: workload -> (sparse) ingestion -> distributed protocol ->
// analysis -> persistence.

#include <gtest/gtest.h>

#include "autoconf/protocol_factory.h"
#include "autoconf/solver.h"
#include "dist/adaptive_sketch_protocol.h"
#include "io/matrix_io.h"
#include "linalg/blas.h"
#include "linalg/csr_matrix.h"
#include "linalg/svd.h"
#include "pca/pca_quality.h"
#include "pca/sketch_and_solve.h"
#include "sketch/error_metrics.h"
#include "sketch/frequent_directions.h"
#include "workload/generators.h"
#include "workload/partition.h"

namespace distsketch {
namespace {

TEST(EndToEndTest, DocumentTermTopicRecovery) {
  // The intro's textual-analysis story: a document-term matrix with
  // latent topics, distributed across servers; PCA on the sketch must
  // capture the topic subspace.
  const Matrix docs = GenerateDocumentTerm({.docs = 600,
                                            .vocab = 48,
                                            .topics = 3,
                                            .length = 80,
                                            .zipf_alpha = 1.1,
                                            .seed = 1});
  auto cluster = Cluster::Create(
      PartitionRows(docs, 6, PartitionScheme::kRandom, 2), 0.25);
  ASSERT_TRUE(cluster.ok());
  SketchAndSolvePca pca({.k = 3, .eps = 0.25, .seed = 3});
  auto result = pca.Run(*cluster);
  ASSERT_TRUE(result.ok());
  const PcaQualityReport quality =
      EvaluatePcaQuality(docs, result->components);
  EXPECT_LE(quality.ratio, 1.0 + 3.0 * 0.25);
  // The 3 topic directions carry most of the spectral mass: captured
  // variance must be high in absolute terms too.
  EXPECT_LT(quality.projection_error, 0.5 * SquaredFrobeniusNorm(docs));
}

TEST(EndToEndTest, SparseIngestionMatchesDense) {
  // Stream a sparse matrix into FD through ScatterRow without ever
  // densifying the input: identical sketch as the dense path.
  const Matrix dense = GenerateSparse(
      {.rows = 300, .cols = 32, .density = 0.08, .seed = 3});
  const CsrMatrix sparse = CsrMatrix::FromDense(dense);
  FrequentDirections fd_dense(32, 8), fd_sparse(32, 8);
  fd_dense.AppendRows(dense);
  std::vector<double> buf(32);
  for (size_t i = 0; i < sparse.rows(); ++i) {
    sparse.ScatterRow(i, buf);
    fd_sparse.Append(buf);
  }
  EXPECT_TRUE(fd_dense.Sketch() == fd_sparse.Sketch());
}

TEST(EndToEndTest, SketchSurvivesPersistenceRoundTrip) {
  // Protocol -> save sketch -> reload -> the guarantee still certifies.
  const Matrix a = GenerateLowRankPlusNoise({.rows = 240,
                                             .cols = 20,
                                             .rank = 4,
                                             .noise_stddev = 0.3,
                                             .seed = 4});
  auto cluster = Cluster::Create(
      PartitionRows(a, 4, PartitionScheme::kContiguous), 0.3);
  ASSERT_TRUE(cluster.ok());
  AdaptiveSketchProtocol protocol({.eps = 0.3, .k = 3, .seed = 5});
  auto result = protocol.Run(*cluster);
  ASSERT_TRUE(result.ok());

  const std::string path = testing::TempDir() + "/e2e_sketch.dsmat";
  ASSERT_TRUE(SaveBinary(result->sketch, path).ok());
  auto reloaded = LoadBinary(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(*reloaded == result->sketch);
  EXPECT_TRUE(IsEpsKSketch(a, *reloaded, 3.0 * 0.3, 3));
}

TEST(EndToEndTest, PlannerDrivenPipeline) {
  // Ask the solver for the cheapest protocol, run it, and use the
  // sketch for a downstream low-rank approximation (Lemma 1 pipeline).
  const Matrix a = GenerateZipfSpectrum(
      {.rows = 480, .cols = 24, .alpha = 1.0, .seed = 6});
  autoconf::AutoConfRequest request;
  request.goal.eps = 0.2;
  request.goal.k = 2;
  request.shape = {12, 24, a.rows()};
  auto plan = autoconf::SolveSketchConfig(request, nullptr);
  ASSERT_TRUE(plan.ok());
  auto protocol = autoconf::BuildProtocol(plan->best().config, request.seed);
  ASSERT_TRUE(protocol.ok());
  auto cluster = Cluster::Create(
      PartitionRows(a, 12, PartitionScheme::kRoundRobin), request.goal.eps);
  ASSERT_TRUE(cluster.ok());
  auto result = (*protocol)->Run(*cluster);
  ASSERT_TRUE(result.ok());
  // Lemma 1: projecting A on the sketch's top-k right singular vectors
  // costs at most opt + 2k * coverr.
  const size_t k = request.goal.k;
  const double proj = ProjectionError(a, result->sketch, k);
  const double bound = OptimalTailEnergy(a, k) +
                       2.0 * k * CovarianceError(a, result->sketch);
  EXPECT_LE(proj, bound * (1.0 + 1e-9));
}

TEST(EndToEndTest, HeterogeneousServersOneEmptyOneHuge) {
  // Degenerate fleet: almost everything on one server, one server empty,
  // a few trickles. All guarantees must be partition-free.
  const Matrix a = GenerateLowRankPlusNoise({.rows = 400,
                                             .cols = 16,
                                             .rank = 3,
                                             .noise_stddev = 0.2,
                                             .seed = 7});
  std::vector<Matrix> parts;
  parts.push_back(a.RowRange(0, 396));
  parts.push_back(Matrix(0, 16));
  parts.push_back(a.RowRange(396, 398));
  parts.push_back(a.RowRange(398, 400));
  auto cluster = Cluster::Create(std::move(parts), 0.25);
  ASSERT_TRUE(cluster.ok());
  AdaptiveSketchProtocol protocol({.eps = 0.25, .k = 3, .seed = 8});
  auto result = protocol.Run(*cluster);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(IsEpsKSketch(a, result->sketch, 3.0 * 0.25, 3));
}

TEST(EndToEndTest, CsvInCsvOutMatchesInMemory) {
  // The sketch_tool path: write data to CSV, reload, sketch, compare to
  // sketching the original in memory (exact FD is input-deterministic).
  const Matrix a = GenerateGaussian(100, 10, 1.0, 9);
  const std::string path = testing::TempDir() + "/e2e_data.csv";
  ASSERT_TRUE(SaveCsv(a, path).ok());
  auto loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok());
  FrequentDirections fd_mem(10, 5), fd_csv(10, 5);
  fd_mem.AppendRows(a);
  fd_csv.AppendRows(*loaded);
  EXPECT_TRUE(fd_mem.Sketch() == fd_csv.Sketch());
}

}  // namespace
}  // namespace distsketch
