// Allocation budget of the FD shrink. This binary replaces the global
// operator new with one that counts every allocation (alloc_counter.h),
// so the tests can pin that a steady-state shrink reuses its workspace on
// every route (row Gram, column Gram, AppendBlock): the Gram, the
// eigensolver scratch, the kept eigenvectors and U_keep^T B all live in
// SvdWorkspace, and the shrunk rows go back into the buffer's storage.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "../alloc_counter.h"
#include "linalg/matrix.h"
#include "linalg/spectral_kernel.h"
#include "sketch/frequent_directions.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

// fd_local's shape: d = 64 > 2l with l = 21, so every shrink takes the
// row-Gram path and eigensolves a 42-by-42 Gram.
constexpr size_t kDim = 64;
constexpr size_t kSketch = 21;

Matrix Stream(size_t rows) {
  return GenerateLowRankPlusNoise(
      {.rows = rows, .cols = kDim, .rank = 8, .seed = 5});
}

TEST(FdShrinkAllocTest, SteadyStateGramShrinkAllocatesNothing) {
  ASSERT_TRUE(FdUsesGramShrink(kDim, kSketch));
  const Matrix a = Stream(2 * kSketch * 12);
  SvdWorkspace ws;
  Matrix buffer(0, kDim);
  buffer.Reserve(2 * kSketch);
  size_t next_row = 0;
  auto fill_and_shrink = [&] {
    while (buffer.rows() < 2 * kSketch) buffer.AppendRow(a.Row(next_row++));
    FdGramShrink(buffer, kSketch, &ws);
  };
  // Two warm-up shrinks size every workspace matrix.
  fill_and_shrink();
  fill_and_shrink();
  AllocCounter counter;
  for (int i = 0; i < 8; ++i) fill_and_shrink();
  EXPECT_EQ(counter.count(), 0u);
}

// Streams at fd_local's shape (every shrink on the row Gram) and at
// d <= 2l (every shrink on the column Gram).
TEST(FdShrinkAllocTest, SteadyStateFdStreamAllocatesNothing) {
  struct Shape {
    size_t dim, sketch_size;
  };
  for (const Shape shape : {Shape{kDim, kSketch}, Shape{16, 11}}) {
    SCOPED_TRACE(shape.dim);
    const Matrix a =
        GenerateLowRankPlusNoise({.rows = 2 * shape.sketch_size * 12,
                                  .cols = shape.dim,
                                  .rank = 8,
                                  .seed = 5});
    FrequentDirections fd(shape.dim, shape.sketch_size);
    const size_t warm = 4 * shape.sketch_size;  // two shrinks
    for (size_t i = 0; i < warm; ++i) fd.Append(a.Row(i));
    const uint64_t shrinks_before = fd.shrink_count();
    AllocCounter counter;
    for (size_t i = warm; i < a.rows(); ++i) fd.Append(a.Row(i));
    const uint64_t allocs = counter.count();
    EXPECT_GE(fd.shrink_count() - shrinks_before, 8u);
    EXPECT_EQ(allocs, 0u);
  }
}

// The workspace changes no bit: a shrink through a reused workspace
// equals one through a fresh workspace.
TEST(FdShrinkAllocTest, ReusedWorkspaceIsBitIdenticalToFresh) {
  const Matrix a = Stream(2 * kSketch * 6);
  SvdWorkspace reused;
  Matrix b_reused(0, kDim), b_fresh(0, kDim);
  size_t next_row = 0;
  for (int round = 0; round < 5; ++round) {
    while (b_reused.rows() < 2 * kSketch) {
      b_reused.AppendRow(a.Row(next_row));
      b_fresh.AppendRow(a.Row(next_row));
      ++next_row;
    }
    const double d_reused = FdGramShrink(b_reused, kSketch, &reused);
    const double d_fresh = FdGramShrink(b_fresh, kSketch, nullptr);
    EXPECT_EQ(d_reused, d_fresh);
    EXPECT_TRUE(b_reused == b_fresh);
  }
}

// The service shape: 64-row blocks at d = 32, l = 11, each one block
// shrink over the buffer and the block, read in place.
TEST(FdShrinkAllocTest, SteadyStateAppendBlockAllocatesNothing) {
  constexpr size_t kTenantDim = 32;
  constexpr size_t kTenantSketch = 11;
  constexpr size_t kBlock = 64;
  std::vector<Matrix> blocks;
  for (uint64_t t = 0; t < 10; ++t) {
    blocks.push_back(GenerateLowRankPlusNoise(
        {.rows = kBlock, .cols = kTenantDim, .rank = 8, .seed = 7 + t}));
  }
  FrequentDirections fd(kTenantDim, kTenantSketch);
  fd.AppendBlock(blocks[0]);
  fd.AppendBlock(blocks[1]);
  const uint64_t shrinks_before = fd.shrink_count();
  AllocCounter counter;
  for (size_t t = 2; t < blocks.size(); ++t) fd.AppendBlock(blocks[t]);
  const uint64_t allocs = counter.count();
  EXPECT_EQ(fd.shrink_count() - shrinks_before, blocks.size() - 2);
  EXPECT_EQ(allocs, 0u);
}

// The column shrink through a reused workspace equals one through a fresh
// workspace, with and without a block.
TEST(FdShrinkAllocTest, ColumnShrinkReusedWorkspaceIsBitIdenticalToFresh) {
  constexpr size_t kTenantDim = 32;
  constexpr size_t kTenantSketch = 11;
  SvdWorkspace reused;
  Matrix b_reused(0, kTenantDim), b_fresh(0, kTenantDim);
  for (uint64_t round = 0; round < 5; ++round) {
    const Matrix block = GenerateLowRankPlusNoise(
        {.rows = 64, .cols = kTenantDim, .rank = 8, .seed = 20 + round});
    const Matrix* tail = (round % 2 == 0) ? &block : nullptr;
    if (tail == nullptr) {
      const Matrix fill =
          block.RowRange(0, 2 * kTenantSketch - b_reused.rows());
      b_reused.AppendRows(fill);
      b_fresh.AppendRows(fill);
    }
    const double d_reused =
        FdColumnShrink(b_reused, tail, kTenantSketch, &reused);
    const double d_fresh = FdColumnShrink(b_fresh, tail, kTenantSketch);
    EXPECT_EQ(d_reused, d_fresh);
    EXPECT_TRUE(b_reused == b_fresh);
  }
}

}  // namespace
}  // namespace distsketch
