#include "linalg/svd.h"

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "linalg/blas.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

TEST(SvdTest, EmptyInputFails) { EXPECT_FALSE(ComputeSvd(Matrix()).ok()); }

TEST(SvdTest, DiagonalMatrixKnownValues) {
  const double diag[] = {3.0, 7.0, 1.0};
  auto svd = ComputeSvd(Matrix::Diagonal(diag));
  ASSERT_TRUE(svd.ok());
  ASSERT_EQ(svd->singular_values.size(), 3u);
  EXPECT_NEAR(svd->singular_values[0], 7.0, 1e-12);
  EXPECT_NEAR(svd->singular_values[1], 3.0, 1e-12);
  EXPECT_NEAR(svd->singular_values[2], 1.0, 1e-12);
}

TEST(SvdTest, SingularValuesSortedNonIncreasing) {
  const Matrix a = GenerateGaussian(20, 10, 1.0, 1);
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  for (size_t i = 1; i < svd->singular_values.size(); ++i) {
    EXPECT_GE(svd->singular_values[i - 1], svd->singular_values[i]);
  }
}

TEST(SvdTest, KnownRankOneMatrix) {
  // a = u v^T with ||u|| = sqrt(2), ||v|| = 5 -> sigma = 5*sqrt(2).
  const Matrix a{{3, 4}, {3, 4}};
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_NEAR(svd->singular_values[0], 5.0 * std::sqrt(2.0), 1e-10);
  EXPECT_NEAR(svd->singular_values[1], 0.0, 1e-10);
}

TEST(SvdTest, FrobeniusIdentity) {
  const Matrix a = GenerateGaussian(15, 8, 2.0, 2);
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  double sum = 0.0;
  for (double s : svd->singular_values) sum += s * s;
  EXPECT_NEAR(sum, SquaredFrobeniusNorm(a), 1e-8 * sum);
}

TEST(SvdTest, AggregatedFormPreservesGram) {
  const Matrix a = GenerateGaussian(12, 6, 1.0, 3);
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  const Matrix agg = svd->AggregatedForm();
  // agg(A)^T agg(A) = A^T A (the property SVS relies on).
  EXPECT_TRUE(AlmostEqual(Gram(agg), Gram(a), 1e-8));
  // Rows of agg are orthogonal.
  const Matrix cross = MultiplyTransposeB(agg, agg);
  for (size_t i = 0; i < cross.rows(); ++i) {
    for (size_t j = 0; j < cross.cols(); ++j) {
      if (i != j) {
        EXPECT_NEAR(cross(i, j), 0.0, 1e-8);
      }
    }
  }
}

TEST(SvdTest, RankKApproximationIsOptimal) {
  const Matrix a = GenerateLowRankPlusNoise(
      {.rows = 30, .cols = 10, .rank = 3, .noise_stddev = 0.05, .seed = 4});
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  const Matrix a3 = svd->RankKApproximation(3);
  const double err = SquaredFrobeniusNorm(Subtract(a, a3));
  EXPECT_NEAR(err, svd->TailEnergy(3), 1e-8 * SquaredFrobeniusNorm(a));
  // Tail energy decreases with k and hits zero at full rank.
  EXPECT_GE(svd->TailEnergy(2), svd->TailEnergy(3));
  EXPECT_NEAR(svd->TailEnergy(10), 0.0, 1e-9);
  // k = 0 approximation is the zero matrix.
  EXPECT_EQ(SquaredFrobeniusNorm(svd->RankKApproximation(0)), 0.0);
}

TEST(SvdTest, TopRightSingularVectorsOrthonormal) {
  const Matrix a = GenerateGaussian(20, 8, 1.0, 5);
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  const Matrix v3 = svd->TopRightSingularVectors(3);
  EXPECT_EQ(v3.cols(), 3u);
  EXPECT_TRUE(HasOrthonormalColumns(v3, 1e-10));
  // Clamped at rank.
  EXPECT_EQ(svd->TopRightSingularVectors(100).cols(), 8u);
}

TEST(SvdTest, SingularValuesHelperMatchesFull) {
  const Matrix a = GenerateGaussian(9, 9, 1.0, 6);
  auto full = ComputeSvd(a);
  auto vals = SingularValues(a);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(vals.ok());
  ASSERT_EQ(vals->size(), full->singular_values.size());
  for (size_t i = 0; i < vals->size(); ++i) {
    EXPECT_NEAR((*vals)[i], full->singular_values[i], 1e-12);
  }
}

TEST(SvdTest, ZeroMatrixHasZeroSpectrum) {
  auto svd = ComputeSvd(Matrix(4, 3));
  ASSERT_TRUE(svd.ok());
  for (double s : svd->singular_values) EXPECT_EQ(s, 0.0);
}

// Property sweep: thin-SVD contracts over many shapes, including tall
// (QR path), wide (transpose path) and square (direct Jacobi).
class SvdShapeTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {
};

TEST_P(SvdShapeTest, ReconstructsAndIsOrthonormal) {
  const auto [m, n, seed] = GetParam();
  const Matrix a = GenerateGaussian(m, n, 1.0, seed);
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  const size_t r = std::min(m, n);
  EXPECT_EQ(svd->u.rows(), m);
  EXPECT_EQ(svd->u.cols(), r);
  EXPECT_EQ(svd->v.rows(), n);
  EXPECT_EQ(svd->v.cols(), r);
  const double scale = std::max(1.0, FrobeniusNorm(a));
  EXPECT_TRUE(AlmostEqual(svd->Reconstruct(), a, 1e-9 * scale));
  EXPECT_TRUE(HasOrthonormalColumns(svd->u, 1e-9));
  EXPECT_TRUE(HasOrthonormalColumns(svd->v, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(6, 6, 2),
                      std::make_tuple(40, 6, 3), std::make_tuple(6, 40, 4),
                      std::make_tuple(13, 11, 5),
                      std::make_tuple(11, 13, 6),
                      std::make_tuple(64, 16, 7), std::make_tuple(3, 1, 8),
                      std::make_tuple(1, 9, 9),
                      std::make_tuple(100, 20, 10)));

// Property sweep over structured spectra: recovery of a planted spectrum.
class SvdSpectrumTest : public ::testing::TestWithParam<double> {};

TEST_P(SvdSpectrumTest, RecoversPlantedDecay) {
  const double decay = GetParam();
  const Matrix a = GenerateLowRankPlusNoise({.rows = 40,
                                             .cols = 16,
                                             .rank = 5,
                                             .decay = decay,
                                             .top_singular_value = 10.0,
                                             .noise_stddev = 0.0,
                                             .seed = 11});
  auto svd = ComputeSvd(a);
  ASSERT_TRUE(svd.ok());
  double expected = 10.0;
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(svd->singular_values[i], expected, 1e-7 * expected);
    expected *= decay;
  }
  for (size_t i = 5; i < svd->singular_values.size(); ++i) {
    EXPECT_NEAR(svd->singular_values[i], 0.0, 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Decays, SvdSpectrumTest,
                         ::testing::Values(1.0, 0.9, 0.5, 0.25));

}  // namespace
}  // namespace distsketch
