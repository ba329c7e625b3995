// Allocation budget of the FD shrink. This binary replaces the global
// operator new with one that counts every allocation, so the tests can
// pin that a steady-state row-Gram shrink reuses its workspace: the Gram,
// the eigensolver scratch, the kept eigenvectors and U_keep^T B all live
// in SvdWorkspace, and the shrunk rows go back into the buffer's storage.
// The replacement forwards to malloc/free, so it also runs under ASan.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "linalg/matrix.h"
#include "linalg/spectral_kernel.h"
#include "sketch/frequent_directions.h"
#include "workload/generators.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t n) { return CountedAlloc(n); }
void* operator new[](size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace distsketch {
namespace {

// Counts every heap allocation while in scope.
class AllocCounter {
 public:
  AllocCounter() {
    g_allocs.store(0);
    g_counting.store(true);
  }
  ~AllocCounter() { g_counting.store(false); }
  uint64_t count() const { return g_allocs.load(); }
};

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

TEST(FdShrinkAllocTest, SteadyStateFdStreamAllocatesNothing) {
  const Matrix a = Stream(2 * kSketch * 12);
  FrequentDirections fd(kDim, kSketch);
  const size_t warm = 4 * kSketch;  // two shrinks
  for (size_t i = 0; i < warm; ++i) fd.Append(a.Row(i));
  const uint64_t shrinks_before = fd.shrink_count();
  AllocCounter counter;
  for (size_t i = warm; i < a.rows(); ++i) fd.Append(a.Row(i));
  const uint64_t allocs = counter.count();
  EXPECT_GE(fd.shrink_count() - shrinks_before, 8u);
  EXPECT_EQ(allocs, 0u);
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

}  // namespace
}  // namespace distsketch
