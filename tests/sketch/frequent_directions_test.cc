#include "sketch/frequent_directions.h"

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/blas.h"
#include "sketch/error_metrics.h"
#include "workload/generators.h"
#include "workload/partition.h"

namespace distsketch {
namespace {

TEST(FrequentDirectionsTest, FactoryValidation) {
  EXPECT_FALSE(FrequentDirections::FromEpsK(8, 0.1, 0).ok());
  EXPECT_FALSE(FrequentDirections::FromEpsK(8, -0.1, 2).ok());
  EXPECT_FALSE(FrequentDirections::FromEps(8, 0.0).ok());
  auto fd = FrequentDirections::FromEpsK(8, 0.5, 2);
  ASSERT_TRUE(fd.ok());
  // l = k + ceil(k/eps) = 2 + 4.
  EXPECT_EQ(fd->sketch_size(), 6u);
  auto fd0 = FrequentDirections::FromEps(8, 0.25);
  ASSERT_TRUE(fd0.ok());
  EXPECT_EQ(fd0->sketch_size(), 5u);
}

TEST(FrequentDirectionsTest, SketchNeverExceedsSketchSize) {
  FrequentDirections fd(10, 4);
  const Matrix a = GenerateGaussian(100, 10, 1.0, 1);
  fd.AppendRows(a);
  EXPECT_LE(fd.buffer().rows(), 2u * 4u);
  const Matrix b = fd.Sketch();
  EXPECT_LE(b.rows(), 4u);
  EXPECT_EQ(fd.rows_seen(), 100u);
  EXPECT_GT(fd.shrink_count(), 0u);
}

TEST(FrequentDirectionsTest, FewRowsPassThroughLosslessly) {
  FrequentDirections fd(5, 8);
  const Matrix a = GenerateGaussian(6, 5, 1.0, 2);
  fd.AppendRows(a);
  // Fewer rows than the sketch size: coverr must be ~0.
  EXPECT_NEAR(CovarianceError(a, fd.Sketch()), 0.0,
              1e-8 * SquaredFrobeniusNorm(a));
  EXPECT_EQ(fd.total_shrinkage(), 0.0);
}

TEST(FrequentDirectionsTest, CoverrBoundedByTotalShrinkage) {
  FrequentDirections fd(12, 5);
  const Matrix a = GenerateGaussian(200, 12, 1.0, 3);
  fd.AppendRows(a);
  const Matrix b = fd.Sketch();
  // The FD invariant: coverr <= total shrinkage.
  EXPECT_LE(CovarianceError(a, b),
            fd.total_shrinkage() * (1.0 + 1e-9) + 1e-9);
}

// Row-Gram path (d > 2l) on streams scaled by 2^+-664 (~1e+-200): G =
// B B^T would overflow or underflow, so each such shrink pre-scales the
// buffer by a power of two. Power-of-two scaling commutes with every
// rounding, so the sketch is exactly the scaled sketch of the unscaled
// stream, whose Thm-1 bound is checked directly.
TEST(FrequentDirectionsTest, ExtremeScaleStreamsScaleExactly) {
  constexpr size_t kDim = 32;
  constexpr size_t kSketch = 5;
  ASSERT_TRUE(FdUsesGramShrink(kDim, kSketch));
  const Matrix a = GenerateGaussian(300, kDim, 1.0, 31);
  FrequentDirections ref(kDim, kSketch);
  ref.AppendRows(a);
  const Matrix want = ref.Sketch();
  EXPECT_LE(CovarianceError(a, want),
            ref.total_shrinkage() * (1.0 + 1e-9) + 1e-9);
  for (const int e : {664, -664}) {
    SCOPED_TRACE(e);
    Matrix scaled = a;
    for (size_t k = 0; k < scaled.size(); ++k) {
      scaled.data()[k] = std::ldexp(scaled.data()[k], e);
    }
    FrequentDirections fd(kDim, kSketch);
    fd.AppendRows(scaled);
    EXPECT_EQ(fd.shrink_count(), ref.shrink_count());
    Matrix got = fd.Sketch();
    ASSERT_EQ(got.rows(), want.rows());
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(std::ldexp(got.data()[k], -e), want.data()[k]) << k;
    }
    // Sigma delta scales by 2^(2e); at 2^+-1328 that leaves the double
    // range, so the comparison is made where it is representable.
    EXPECT_EQ(fd.total_shrinkage(),
              std::ldexp(ref.total_shrinkage(), 2 * e));
  }
}

// One huge entry (1e160, 1e200 or 1e300) in an ordinary row-Gram stream,
// plus rows at 1e-200, used to overflow G and abort the shrink. Now no
// shrink aborts and the sketch stays finite. ||A||_F^2 is past the double
// range, and so is the certificate's rounding-level delta (~eps ||A||^2),
// so total_shrinkage() may be +inf; the bound is checked after dividing A
// and B by the same power of two near the huge entry, where it shows that
// the huge direction is carried (the ordinary rows' share underflows).
TEST(FrequentDirectionsTest, HugeAndTinyEntriesDoNotAbort) {
  constexpr size_t kDim = 32;
  constexpr size_t kSketch = 5;
  for (const double big : {1e160, 1e200, 1e300}) {
    SCOPED_TRACE(big);
    Matrix a = GenerateGaussian(200, kDim, 1.0, 32);
    a(57, 3) = big;
    for (size_t j = 0; j < kDim; ++j) {
      for (const size_t r : {90u, 91u, 92u, 150u}) a(r, j) *= 1e-200;
    }
    FrequentDirections fd(kDim, kSketch);
    fd.AppendRows(a);
    EXPECT_GT(fd.shrink_count(), 0u);
    EXPECT_GE(fd.total_shrinkage(), 0.0);
    const Matrix b = fd.Sketch();
    for (size_t k = 0; k < b.size(); ++k) {
      ASSERT_TRUE(std::isfinite(b.data()[k])) << k;
    }
    const int e = -std::ilogb(big);
    Matrix as = a, bs = b;
    for (size_t k = 0; k < as.size(); ++k) {
      as.data()[k] = std::ldexp(as.data()[k], e);
    }
    for (size_t k = 0; k < bs.size(); ++k) {
      bs.data()[k] = std::ldexp(bs.data()[k], e);
    }
    EXPECT_LE(CovarianceError(as, bs),
              std::ldexp(fd.total_shrinkage(), 2 * e) * (1.0 + 1e-9) +
                  1e-9 * SquaredFrobeniusNorm(as));
  }
}

TEST(FrequentDirectionsTest, FrobeniusNormNeverGrows) {
  FrequentDirections fd(12, 5);
  const Matrix a = GenerateGaussian(150, 12, 2.0, 4);
  fd.AppendRows(a);
  EXPECT_LE(SquaredFrobeniusNorm(fd.Sketch()),
            SquaredFrobeniusNorm(a) * (1.0 + 1e-12));
}

TEST(FrequentDirectionsTest, SketchIsSpectrallyDominatd) {
  // B^T B <= A^T A as quadratic forms: coverr equals the one-sided
  // deficit, and ||Bx||^2 <= ||Ax||^2 for random probes.
  FrequentDirections fd(8, 4);
  const Matrix a = GenerateGaussian(80, 8, 1.0, 5);
  fd.AppendRows(a);
  const Matrix b = fd.Sketch();
  Rng rng(17);
  for (int t = 0; t < 20; ++t) {
    std::vector<double> x(8);
    for (auto& v : x) v = rng.NextGaussian();
    EXPECT_LE(SquaredNorm2(MatVec(b, x)),
              SquaredNorm2(MatVec(a, x)) * (1.0 + 1e-9));
  }
}

// Theorem 1 sweep: the (eps, k) guarantee over workloads and parameters.
class FdGuaranteeTest
    : public ::testing::TestWithParam<std::tuple<double, size_t, int>> {};

TEST_P(FdGuaranteeTest, EpsKGuaranteeHolds) {
  const auto [eps, k, workload] = GetParam();
  Matrix a;
  switch (workload) {
    case 0:
      a = GenerateLowRankPlusNoise({.rows = 120,
                                    .cols = 16,
                                    .rank = 4,
                                    .noise_stddev = 0.3,
                                    .seed = 6});
      break;
    case 1:
      a = GenerateZipfSpectrum(
          {.rows = 120, .cols = 16, .alpha = 1.0, .seed = 7});
      break;
    default:
      a = GenerateSignMatrix(120, 16, 8);
      break;
  }
  auto fd = FrequentDirections::FromEpsK(16, eps, k);
  ASSERT_TRUE(fd.ok());
  fd->AppendRows(a);
  const Matrix b = fd->Sketch();
  EXPECT_TRUE(IsEpsKSketch(a, b, eps, k))
      << "coverr=" << CovarianceError(a, b)
      << " budget=" << SketchErrorBudget(a, eps, k);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FdGuaranteeTest,
    ::testing::Combine(::testing::Values(0.2, 0.5, 1.0),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(0, 1, 2)));

// Mergeability [1]: feeding local sketches through another FD preserves
// the guarantee for the union.
class FdMergeabilityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(FdMergeabilityTest, MergedSketchKeepsGuarantee) {
  const size_t num_parts = GetParam();
  const double eps = 0.4;
  const size_t k = 2;
  const Matrix a = GenerateLowRankPlusNoise({.rows = 160,
                                             .cols = 12,
                                             .rank = 3,
                                             .noise_stddev = 0.25,
                                             .seed = 9});
  const auto parts =
      PartitionRows(a, num_parts, PartitionScheme::kRoundRobin);
  auto merged = FrequentDirections::FromEpsK(12, eps, k);
  ASSERT_TRUE(merged.ok());
  for (const auto& part : parts) {
    auto local = FrequentDirections::FromEpsK(12, eps, k);
    ASSERT_TRUE(local.ok());
    local->AppendRows(part);
    merged->Merge(*local);
  }
  // The distributed-merge guarantee has the same form with a constant
  // blowup (merging sketches of sketches); certify at 2*eps.
  EXPECT_TRUE(IsEpsKSketch(a, merged->Sketch(), 2.0 * eps, k));
}

INSTANTIATE_TEST_SUITE_P(Parts, FdMergeabilityTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(FrequentDirectionsTest, MergeRequiresMatchingDim) {
  FrequentDirections a(4, 2);
  FrequentDirections b(4, 3);
  const Matrix rows = GenerateGaussian(10, 4, 1.0, 10);
  b.AppendRows(rows);
  a.Merge(b);  // different sketch_size is fine
  EXPECT_GT(a.rows_seen(), 0u);
}

TEST(FrequentDirectionsTest, SketchUsableAfterFinish) {
  FrequentDirections fd(6, 3);
  const Matrix a = GenerateGaussian(30, 6, 1.0, 11);
  fd.AppendRows(a.RowRange(0, 15));
  (void)fd.Sketch();
  fd.AppendRows(a.RowRange(15, 30));
  const Matrix b = fd.Sketch();
  // Still a valid sketch of the whole stream (guarantee with l=3, k=1:
  // coverr <= ||A-[A]_1||_F^2 / 2).
  EXPECT_LE(CovarianceError(a, b),
            OptimalTailEnergy(a, 1) / 2.0 * (1.0 + 1e-9));
}

}  // namespace
}  // namespace distsketch
