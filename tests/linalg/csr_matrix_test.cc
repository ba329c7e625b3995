#include "linalg/csr_matrix.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/blas.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

TEST(CsrMatrixTest, FromTripletsValidation) {
  EXPECT_FALSE(CsrMatrix::FromTriplets(2, 2, {{2, 0, 1.0}}).ok());
  EXPECT_FALSE(CsrMatrix::FromTriplets(2, 2, {{0, 5, 1.0}}).ok());
}

TEST(CsrMatrixTest, TripletsDuplicatesSummedZerosDropped) {
  auto m = CsrMatrix::FromTriplets(
      2, 3, {{0, 1, 2.0}, {0, 1, 3.0}, {1, 2, 1.0}, {1, 2, -1.0}});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->nnz(), 1u);  // (1,2) cancels out
  const Matrix dense = m->ToDense();
  EXPECT_DOUBLE_EQ(dense(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(dense(1, 2), 0.0);
}

TEST(CsrMatrixTest, DenseRoundTrip) {
  const Matrix dense = GenerateSparse(
      {.rows = 20, .cols = 10, .density = 0.2, .seed = 1});
  const CsrMatrix sparse = CsrMatrix::FromDense(dense);
  EXPECT_TRUE(sparse.ToDense() == dense);
}

TEST(CsrMatrixTest, FromDenseToleranceDrops) {
  const Matrix dense{{1.0, 1e-14}, {0.0, -2.0}};
  const CsrMatrix sparse = CsrMatrix::FromDense(dense, 1e-10);
  EXPECT_EQ(sparse.nnz(), 2u);
}

TEST(CsrMatrixTest, MatVecMatchesDense) {
  const Matrix dense = GenerateSparse(
      {.rows = 15, .cols = 8, .density = 0.3, .seed = 2});
  const CsrMatrix sparse = CsrMatrix::FromDense(dense);
  std::vector<double> x(8);
  Rng rng(3);
  for (auto& v : x) v = rng.NextGaussian();
  const auto ys = sparse.MatVec(x);
  const auto yd = MatVec(dense, x);
  for (size_t i = 0; i < ys.size(); ++i) EXPECT_NEAR(ys[i], yd[i], 1e-12);

  std::vector<double> z(15);
  for (auto& v : z) v = rng.NextGaussian();
  const auto ts = sparse.MatTVec(z);
  const auto td = MatTVec(dense, z);
  for (size_t i = 0; i < ts.size(); ++i) EXPECT_NEAR(ts[i], td[i], 1e-12);
}

TEST(CsrMatrixTest, MultiplyAndGramMatchDense) {
  const Matrix dense = GenerateSparse(
      {.rows = 20, .cols = 12, .density = 0.25, .seed = 4});
  const CsrMatrix sparse = CsrMatrix::FromDense(dense);
  const Matrix b = GenerateGaussian(12, 5, 1.0, 5);
  EXPECT_TRUE(AlmostEqual(sparse.Multiply(b), Multiply(dense, b), 1e-10));
  const Matrix c = GenerateGaussian(20, 4, 1.0, 6);
  EXPECT_TRUE(AlmostEqual(sparse.MultiplyTransposeA(c),
                          MultiplyTransposeA(dense, c), 1e-10));
  EXPECT_TRUE(AlmostEqual(sparse.Gram(), Gram(dense), 1e-10));
  // GramInto overwrites a stale workspace of another shape with the same
  // bits as Gram().
  Matrix workspace = GenerateGaussian(15, 15, 1.0, 7);
  sparse.GramInto(workspace);
  EXPECT_EQ(workspace, sparse.Gram());
}

TEST(CsrMatrixTest, NormsMatchDense) {
  const Matrix dense = GenerateSparse(
      {.rows = 10, .cols = 6, .density = 0.4, .seed = 7});
  const CsrMatrix sparse = CsrMatrix::FromDense(dense);
  EXPECT_NEAR(sparse.SquaredFrobeniusNorm(), SquaredFrobeniusNorm(dense),
              1e-12);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(sparse.RowSquaredNorm(i), SquaredNorm2(dense.Row(i)),
                1e-12);
  }
}

TEST(CsrMatrixTest, ScatterRowRoundTrips) {
  const Matrix dense = GenerateSparse(
      {.rows = 6, .cols = 9, .density = 0.3, .seed = 8});
  const CsrMatrix sparse = CsrMatrix::FromDense(dense);
  std::vector<double> buf(9, 123.0);
  for (size_t i = 0; i < 6; ++i) {
    sparse.ScatterRow(i, buf);
    for (size_t j = 0; j < 9; ++j) EXPECT_EQ(buf[j], dense(i, j));
  }
}

TEST(CsrMatrixTest, EmptyRowsSupported) {
  auto m = CsrMatrix::FromTriplets(3, 3, {{1, 1, 5.0}});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->RowIndices(0).size(), 0u);
  EXPECT_EQ(m->RowIndices(1).size(), 1u);
  EXPECT_EQ(m->RowIndices(2).size(), 0u);
  EXPECT_DOUBLE_EQ(m->RowSquaredNorm(0), 0.0);
}

}  // namespace
}  // namespace distsketch
