#include "sketch/frequent_directions.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

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

// A stream fed to an FD sketch: row by row through AppendRows, or through
// AppendBlock in blocks whose sizes cycle through kBlockSizes, so streams
// mix blocks below and above FdBlockShrinkFires' threshold.
constexpr size_t kBlockSizes[] = {64, 5, 40, 128, 7, 64, 200, 56};

std::vector<Matrix> SplitIntoBlocks(const Matrix& a) {
  std::vector<Matrix> blocks;
  size_t begin = 0;
  for (size_t t = 0; begin < a.rows(); ++t) {
    const size_t end =
        std::min(a.rows(), begin + kBlockSizes[t % std::size(kBlockSizes)]);
    blocks.push_back(a.RowRange(begin, end));
    begin = end;
  }
  return blocks;
}

void Feed(FrequentDirections& fd, const Matrix& a, bool blocks) {
  if (!blocks) {
    fd.AppendRows(a);
    return;
  }
  for (const Matrix& block : SplitIntoBlocks(a)) fd.AppendBlock(block);
}

// The three shrink routes a stream can take: the row Gram (d > 2l, rows),
// the column Gram (d <= 2l, rows) and the block shrink (AppendBlock).
struct FdFeed {
  size_t dim;
  size_t sketch_size;
  bool blocks;
};
constexpr FdFeed kFeeds[] = {
    {32, 5, false}, {8, 5, false}, {32, 11, true}, {16, 11, true}};

// Every shrink route on streams scaled by 2^+-664 (~1e+-200): the Gram
// would overflow or underflow, so each such shrink pre-scales its rows by
// a power of two. Power-of-two scaling commutes with every rounding, so
// the sketch is exactly the scaled sketch of the unscaled stream, whose
// Thm-1 bound is checked directly.
TEST(FrequentDirectionsTest, ExtremeScaleStreamsScaleExactly) {
  ASSERT_TRUE(FdUsesGramShrink(32, 5));
  ASSERT_FALSE(FdUsesGramShrink(8, 5));
  for (const FdFeed& feed : kFeeds) {
    SCOPED_TRACE(testing::Message() << "d=" << feed.dim << " l="
                                    << feed.sketch_size
                                    << " blocks=" << feed.blocks);
    const Matrix a = GenerateGaussian(300, feed.dim, 1.0, 31);
    FrequentDirections ref(feed.dim, feed.sketch_size);
    Feed(ref, a, feed.blocks);
    const Matrix want = ref.Sketch();
    EXPECT_LE(CovarianceError(a, want),
              ref.total_shrinkage() * (1.0 + 1e-9) + 1e-9);
    for (const int e : {664, -664}) {
      SCOPED_TRACE(e);
      Matrix scaled = a;
      for (size_t k = 0; k < scaled.size(); ++k) {
        scaled.data()[k] = std::ldexp(scaled.data()[k], e);
      }
      FrequentDirections fd(feed.dim, feed.sketch_size);
      Feed(fd, scaled, feed.blocks);
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
}

// One huge entry (1e160, 1e200 or 1e300) in an ordinary stream, plus rows
// at 1e-200, used to overflow the Gram and abort the shrink: the row-Gram
// path's G, and on the column path sigma^2 after the kernel scaled sigma
// back. Now no shrink on any route aborts and the sketch stays finite.
// ||A||_F^2 is past the double range, and so is the certificate's
// rounding-level delta (~eps ||A||^2), so total_shrinkage() may be +inf;
// the bound is checked after dividing A and B by the same power of two
// near the huge entry, where it shows that the huge direction is carried
// (the ordinary rows' share underflows).
TEST(FrequentDirectionsTest, HugeAndTinyEntriesDoNotAbort) {
  for (const FdFeed& feed : kFeeds) {
    for (const double big : {1e160, 1e200, 1e300}) {
      SCOPED_TRACE(testing::Message()
                   << "d=" << feed.dim << " l=" << feed.sketch_size
                   << " blocks=" << feed.blocks << " big=" << big);
      Matrix a = GenerateGaussian(200, feed.dim, 1.0, 32);
      a(57, 3) = big;
      for (size_t j = 0; j < feed.dim; ++j) {
        for (const size_t r : {90u, 91u, 92u, 150u}) a(r, j) *= 1e-200;
      }
      FrequentDirections fd(feed.dim, feed.sketch_size);
      Feed(fd, a, feed.blocks);
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

// Finishes `fd`, a sketch of `a`, and checks Theorem 1's certificate:
// coverr <= total_shrinkage() and l * total_shrinkage() <= ||A||_F^2 -
// ||B||_F^2. Returns the sketch.
Matrix SketchWithCertificate(const Matrix& a, FrequentDirections& fd) {
  const Matrix b = fd.Sketch();
  const double a2 = SquaredFrobeniusNorm(a);
  EXPECT_LE(CovarianceError(a, b),
            fd.total_shrinkage() * (1.0 + 1e-9) + 1e-12 * a2);
  EXPECT_LE(static_cast<double>(fd.sketch_size()) * fd.total_shrinkage(),
            a2 - SquaredFrobeniusNorm(b) + 1e-9 * a2);
  return b;
}

// AppendBlock: Theorem 1 and the total_shrinkage() certificate on streams
// fed in mixed block sizes, at the service shape (d = 32, l = 11: a 64-row
// block takes one d-by-d shrink instead of ~5 row-Gram shrinks), at
// d <= 2l, and at fd_local's d = 64, l = 21 (only blocks of 105+ rows fire).
class FdAppendBlockTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, int>> {};

TEST_P(FdAppendBlockTest, KeepsTheoremOneAndCertificate) {
  const auto [dim, sketch_size, workload] = GetParam();
  const Matrix a =
      workload == 0
          ? GenerateLowRankPlusNoise({.rows = 900,
                                      .cols = dim,
                                      .rank = 6,
                                      .noise_stddev = 0.2,
                                      .seed = 61})
          : GenerateGaussian(900, dim, 1.0, 62);
  FrequentDirections fd(dim, sketch_size);
  size_t fired = 0;
  for (const Matrix& block : SplitIntoBlocks(a)) {
    const bool fires = FdBlockShrinkFires(dim, sketch_size,
                                          fd.buffer().rows(), block.rows());
    const uint64_t shrinks = fd.shrink_count();
    fd.AppendBlock(block);
    if (fires) {
      ++fired;
      EXPECT_EQ(fd.shrink_count(), shrinks + 1);
      EXPECT_LE(fd.buffer().rows(), sketch_size);
    }
    EXPECT_LE(fd.buffer().rows(), 2 * sketch_size);
  }
  EXPECT_GT(fired, 0u);
  EXPECT_EQ(fd.rows_seen(), a.rows());

  const double coverr = CovarianceError(a, SketchWithCertificate(a, fd));
  for (const size_t k : {size_t{1}, size_t{4}}) {
    EXPECT_LE(coverr, OptimalTailEnergy(a, k) /
                          static_cast<double>(sketch_size - k) *
                          (1.0 + 1e-9))
        << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FdAppendBlockTest,
    ::testing::Values(std::make_tuple(size_t{32}, size_t{11}, 0),
                      std::make_tuple(size_t{32}, size_t{11}, 1),
                      std::make_tuple(size_t{16}, size_t{11}, 0),
                      std::make_tuple(size_t{16}, size_t{11}, 1),
                      std::make_tuple(size_t{64}, size_t{21}, 0),
                      std::make_tuple(size_t{64}, size_t{21}, 1)),
    [](const auto& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_l" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) == 0 ? "_lowrank" : "_gaussian");
    });

// The service checkpoints tenants between requests, i.e. at block
// boundaries: export -> restore -> continue there is bit-identical to an
// uninterrupted block stream.
TEST(FrequentDirectionsTest, AppendBlockRestoreAtBlockBoundaryIsBitIdentical) {
  constexpr size_t kDim = 32;
  constexpr size_t kSketch = 11;
  const Matrix a = GenerateGaussian(700, kDim, 1.0, 63);
  const std::vector<Matrix> blocks = SplitIntoBlocks(a);
  FrequentDirections whole(kDim, kSketch);
  for (const Matrix& block : blocks) whole.AppendBlock(block);
  for (size_t cut = 1; cut < blocks.size(); ++cut) {
    SCOPED_TRACE(cut);
    FrequentDirections head(kDim, kSketch);
    for (size_t t = 0; t < cut; ++t) head.AppendBlock(blocks[t]);
    auto resumed = FrequentDirections::FromState(head.ExportState());
    ASSERT_TRUE(resumed.ok());
    for (size_t t = cut; t < blocks.size(); ++t) {
      resumed->AppendBlock(blocks[t]);
    }
    EXPECT_TRUE(resumed->buffer() == whole.buffer());
    EXPECT_EQ(resumed->total_shrinkage(), whole.total_shrinkage());
    EXPECT_EQ(resumed->shrink_count(), whole.shrink_count());
    EXPECT_EQ(resumed->rows_seen(), whole.rows_seen());
  }
  SketchWithCertificate(a, whole);
}

// Both sides of the rule. It fires on the service shape at any buffer
// fill and, for d <= 2l, exactly once the stacked rows reach 2l; it
// declines below max(2l, d) rows and when a d-by-d solve would cost more
// than the small shrinks it replaces (d = 1000, l = 10).
TEST(FrequentDirectionsTest, BlockShrinkRuleFiresOnlyWhereItPays) {
  for (size_t b = 0; b < 22; ++b) {
    EXPECT_TRUE(FdBlockShrinkFires(32, 11, b, 64)) << b;
    EXPECT_FALSE(FdBlockShrinkFires(32, 11, b, 31 - b)) << b;
    for (size_t m = 1; m < 80; ++m) {
      EXPECT_EQ(FdBlockShrinkFires(16, 11, b, m), b + m >= 22) << b << m;
    }
  }
  for (const size_t m : {64u, 1000u, 10000u, 100000u}) {
    EXPECT_FALSE(FdBlockShrinkFires(1000, 10, 0, m)) << m;
    EXPECT_FALSE(FdBlockShrinkFires(1000, 10, 19, m)) << m;
  }
}

// Below the threshold AppendBlock is AppendRows, bit for bit: 5-row blocks
// at d = 32, l = 11 never reach 32 stacked rows, and a 1200-row block at
// d = 1000, l = 10 declines on cost.
TEST(FrequentDirectionsTest, AppendBlockBelowThresholdEqualsAppendRows) {
  struct Case {
    size_t dim, sketch_size, rows, block;
  };
  for (const Case& c : {Case{32, 11, 400, 5}, Case{1000, 10, 1200, 1200}}) {
    SCOPED_TRACE(c.dim);
    const Matrix a = GenerateGaussian(c.rows, c.dim, 1.0, 64);
    FrequentDirections rows(c.dim, c.sketch_size);
    FrequentDirections blocks(c.dim, c.sketch_size);
    rows.AppendRows(a);
    for (size_t begin = 0; begin < a.rows(); begin += c.block) {
      ASSERT_FALSE(FdBlockShrinkFires(c.dim, c.sketch_size,
                                      blocks.buffer().rows(), c.block));
      blocks.AppendBlock(a.RowRange(begin, begin + c.block));
    }
    EXPECT_GT(blocks.shrink_count(), 0u);
    EXPECT_EQ(blocks.shrink_count(), rows.shrink_count());
    EXPECT_EQ(blocks.total_shrinkage(), rows.total_shrinkage());
    EXPECT_TRUE(blocks.buffer() == rows.buffer());
    SketchWithCertificate(a, blocks);
  }
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
