// Allocation budget of a Gram-rule tenant's ingest. This binary replaces
// the global operator new with one that counts every allocation
// (alloc_counter.h): a steady-state AbsorbRows — one scan of the request
// and one Gram update — allocates nothing, at ordinary scale and on the
// scaled-copy path of rows far outside [1e-100, 1e100].

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "../alloc_counter.h"
#include "service/tenant.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

TEST(TenantAllocTest, SteadyStateGramAbsorbAllocatesNothing) {
  constexpr size_t kDim = 32;
  for (const double scale : {1.0, 1e-160}) {
    SCOPED_TRACE(scale);
    std::vector<Matrix> blocks;
    for (uint64_t t = 0; t < 10; ++t) {
      blocks.push_back(GenerateLowRankPlusNoise(
          {.rows = 64, .cols = kDim, .rank = 8, .seed = 7 + t}));
      blocks.back().Scale(scale);
    }
    auto tenant = TenantSketch::Create(
        "t", {.dim = kDim, .eps = 0.1, .epoch_rows = 1 << 20});
    ASSERT_TRUE(tenant.ok());
    ASSERT_TRUE(tenant->epoch_uses_gram());
    ASSERT_TRUE(tenant->AbsorbRows(blocks[0]).ok());
    AllocCounter counter;
    for (size_t t = 1; t < blocks.size(); ++t) {
      ASSERT_TRUE(tenant->AbsorbRows(blocks[t]).ok());
    }
    EXPECT_EQ(counter.count(), 0u);
  }
}

}  // namespace
}  // namespace distsketch
