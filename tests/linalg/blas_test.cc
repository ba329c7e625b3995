#include "linalg/blas.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "workload/generators.h"

namespace distsketch {
namespace {

TEST(BlasTest, DotAndNorms) {
  const std::vector<double> x = {1.0, 2.0, 2.0};
  const std::vector<double> y = {3.0, 0.0, -1.0};
  EXPECT_DOUBLE_EQ(Dot(x, y), 1.0);
  EXPECT_DOUBLE_EQ(SquaredNorm2(x), 9.0);
  EXPECT_DOUBLE_EQ(Norm2(x), 3.0);
}

TEST(BlasTest, AxpyAndScale) {
  std::vector<double> y = {1.0, 1.0};
  const std::vector<double> x = {2.0, -3.0};
  Axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], -5.0);
  ScaleVector(0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 2.5);
}

TEST(BlasTest, MultiplySmallKnown) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  const Matrix c = Multiply(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(BlasTest, MultiplyIdentityIsNoop) {
  const Matrix a = GenerateGaussian(6, 4, 1.0, 1);
  EXPECT_TRUE(AlmostEqual(Multiply(a, Matrix::Identity(4)), a, 1e-14));
  EXPECT_TRUE(AlmostEqual(Multiply(Matrix::Identity(6), a), a, 1e-14));
}

TEST(BlasTest, TransposeVariantsAgreeWithExplicitTranspose) {
  const Matrix a = GenerateGaussian(5, 3, 1.0, 2);
  const Matrix b = GenerateGaussian(5, 4, 1.0, 3);
  // A^T B two ways.
  EXPECT_TRUE(AlmostEqual(MultiplyTransposeA(a, b),
                          Multiply(Transpose(a), b), 1e-12));
  const Matrix c = GenerateGaussian(6, 3, 1.0, 4);
  // A C^T two ways.
  EXPECT_TRUE(AlmostEqual(MultiplyTransposeB(a, c),
                          Multiply(a, Transpose(c)), 1e-12));
}

TEST(BlasTest, GramEqualsAtA) {
  const Matrix a = GenerateGaussian(7, 4, 2.0, 5);
  const Matrix g = Gram(a);
  EXPECT_TRUE(AlmostEqual(g, MultiplyTransposeA(a, a), 1e-10));
  // Symmetry.
  for (size_t i = 0; i < g.rows(); ++i) {
    for (size_t j = 0; j < g.cols(); ++j) {
      EXPECT_DOUBLE_EQ(g(i, j), g(j, i));
    }
  }
}

TEST(BlasTest, MatVecAndMatTVec) {
  const Matrix a{{1, 2}, {3, 4}, {5, 6}};
  const std::vector<double> x = {1.0, -1.0};
  const auto y = MatVec(a, x);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[2], -1.0);
  const std::vector<double> z = {1.0, 0.0, 1.0};
  const auto w = MatTVec(a, z);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w[0], 6.0);
  EXPECT_DOUBLE_EQ(w[1], 8.0);
}

TEST(BlasTest, TransposeTwiceIsIdentity) {
  const Matrix a = GenerateGaussian(4, 7, 1.0, 6);
  EXPECT_TRUE(AlmostEqual(Transpose(Transpose(a)), a, 0.0));
}

TEST(BlasTest, AddSubtract) {
  const Matrix a{{1, 2}};
  const Matrix b{{3, 5}};
  EXPECT_TRUE(AlmostEqual(Add(a, b), Matrix{{4, 7}}, 0.0));
  EXPECT_TRUE(AlmostEqual(Subtract(b, a), Matrix{{2, 3}}, 0.0));
}

TEST(BlasTest, FrobeniusNormKnown) {
  const Matrix a{{3, 0}, {0, 4}};
  EXPECT_DOUBLE_EQ(SquaredFrobeniusNorm(a), 25.0);
  EXPECT_DOUBLE_EQ(FrobeniusNorm(a), 5.0);
  EXPECT_DOUBLE_EQ(MaxAbs(a), 4.0);
  EXPECT_DOUBLE_EQ(MaxAbs(Matrix()), 0.0);
}

TEST(BlasTest, MaxAbsReportsNonFiniteEntries) {
  bool finite = false;
  EXPECT_EQ(MaxAbs(Matrix{{-3, 2}, {0, 1}}, &finite), 3.0);
  EXPECT_TRUE(finite);
  Matrix nan{{1, -2}};
  nan(0, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(MaxAbs(nan, &finite), 2.0);  // NaN ignored, as MaxAbs(nan)
  EXPECT_FALSE(finite);
  Matrix inf{{1, 2}};
  inf(0, 1) = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(MaxAbs(inf, &finite), std::numeric_limits<double>::infinity());
  EXPECT_FALSE(finite);
}

TEST(BlasTest, PackUpperTriangleInvertsUnpackSymmetric) {
  const Matrix g{{1, 2, 3}, {2, 4, 5}, {3, 5, 6}};
  std::vector<double> upper(6);
  PackUpperTriangle(g, upper);
  EXPECT_EQ(upper, (std::vector<double>{1, 2, 3, 4, 5, 6}));
  Matrix back;
  UnpackSymmetric(upper, 3, back);
  EXPECT_TRUE(back == g);
}

TEST(BlasTest, ConcatRowsStacks) {
  const Matrix a{{1, 2}};
  const Matrix b{{3, 4}, {5, 6}};
  const Matrix c = ConcatRows(a, b);
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_EQ(c(2, 0), 5.0);
  const std::vector<Matrix> parts = {a, b, a};
  EXPECT_EQ(ConcatRows(parts).rows(), 4u);
  // Gram additivity: [A;B]^T[A;B] = A^T A + B^T B.
  EXPECT_TRUE(AlmostEqual(Gram(c), Add(Gram(a), Gram(b)), 1e-12));
}

TEST(BlasTest, HasOrthonormalColumns) {
  EXPECT_TRUE(HasOrthonormalColumns(Matrix::Identity(4), 1e-12));
  const Matrix skew{{1, 1}, {0, 1}};
  EXPECT_FALSE(HasOrthonormalColumns(skew, 1e-6));
}

TEST(BlasTest, MultiplyAssociativity) {
  const Matrix a = GenerateGaussian(3, 4, 1.0, 7);
  const Matrix b = GenerateGaussian(4, 5, 1.0, 8);
  const Matrix c = GenerateGaussian(5, 2, 1.0, 9);
  EXPECT_TRUE(AlmostEqual(Multiply(Multiply(a, b), c),
                          Multiply(a, Multiply(b, c)), 1e-10));
}

}  // namespace
}  // namespace distsketch
