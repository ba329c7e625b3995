// The version-2 tenant checkpoint (a Gram-rule tenant's epoch as its
// Gram's shift and packed upper triangle): the decoder refuses every
// malformed blob, and no truncation or single-bit flip of a real one can
// abort the process — each either fails to restore or restores a tenant
// whose query answers a finite sketch.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../corruption_sweep.h"
#include "service/tenant.h"
#include "wire/sketch_serde.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

using testing::ForEachBitFlip;
using testing::ForEachTruncation;

constexpr size_t kDim = 8;
const TenantOptions kOpt{.dim = kDim, .eps = 0.25, .epoch_rows = 96};

// A Gram-rule tenant with a sealed epoch in its coordinator and an open
// epoch of rows scaled by `scale`.
std::vector<uint8_t> GramCheckpoint(double scale) {
  auto tenant = TenantSketch::Create("t", kOpt);
  DS_CHECK(tenant.ok());
  DS_CHECK(tenant->epoch_uses_gram());
  for (uint64_t r = 0; r < 4; ++r) {
    Matrix block = GenerateGaussian(40, kDim, 1.0, 10 + r);
    if (r >= 3) block.Scale(scale);
    DS_CHECK(tenant->AbsorbRows(block).ok());
    while (tenant->EpochReady()) tenant->SealEpoch();
  }
  DS_CHECK(tenant->epoch() == 1 && tenant->rows_in_epoch() == 40);
  return tenant->Checkpoint();
}

// Offsets of the v2 epoch section: the shift follows the header and the
// length-prefixed coordinator blob, and the Gram fills the rest.
size_t ShiftOffset(const std::vector<uint8_t>& blob) {
  uint64_t coord_len = 0;
  std::memcpy(&coord_len, blob.data() + 32, 8);
  return 40 + coord_len;
}

void PutU64(std::vector<uint8_t>& blob, size_t at, uint64_t v) {
  std::memcpy(blob.data() + at, &v, 8);
}

void PutF64(std::vector<uint8_t>& blob, size_t at, double v) {
  std::memcpy(blob.data() + at, &v, 8);
}

bool Restores(const std::vector<uint8_t>& blob,
              const TenantOptions& opt = kOpt) {
  return TenantSketch::Restore("t", opt, blob).ok();
}

void ExpectRefused(const std::vector<uint8_t>& blob, const std::string& what) {
  EXPECT_FALSE(Restores(blob)) << what;
}

TEST(TenantCheckpointV2, RoundTripsAndRefusesMalformedBlobs) {
  const std::vector<uint8_t> blob = GramCheckpoint(1.0);
  ASSERT_EQ(blob[0], 2);
  const size_t shift_at = ShiftOffset(blob);
  const size_t gram_at = shift_at + 8;
  ASSERT_EQ(blob.size(), gram_at + 8 * (kDim * (kDim + 1) / 2));
  auto restored = TenantSketch::Restore("t", kOpt, blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->Checkpoint(), blob);

  ForEachTruncation(blob, ExpectRefused);
  std::vector<uint8_t> trailing = blob;
  trailing.push_back(0);
  EXPECT_FALSE(Restores(trailing));

  // Gram entries: (0, 0) is a diagonal, (0, 1) the next packed entry.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    for (const size_t entry : {size_t{0}, size_t{1}}) {
      std::vector<uint8_t> poisoned = blob;
      PutF64(poisoned, gram_at + 8 * entry, bad);
      EXPECT_FALSE(Restores(poisoned)) << bad << " at " << entry;
    }
  }
  std::vector<uint8_t> negative = blob;
  PutF64(negative, gram_at, -1.0);
  EXPECT_FALSE(Restores(negative));
  // A negative off-diagonal entry is a valid Gram entry.
  std::vector<uint8_t> off_diagonal = blob;
  PutF64(off_diagonal, gram_at + 8, -1.0);
  EXPECT_TRUE(Restores(off_diagonal));

  for (const int64_t shift : {int64_t{-1024}, int64_t{1075}, INT64_MIN,
                              INT64_MAX}) {
    std::vector<uint8_t> shifted = blob;
    PutU64(shifted, shift_at, static_cast<uint64_t>(shift));
    EXPECT_FALSE(Restores(shifted)) << shift;
  }
  for (const int64_t shift : {int64_t{-1023}, int64_t{1074}}) {
    std::vector<uint8_t> shifted = blob;
    PutU64(shifted, shift_at, static_cast<uint64_t>(shift));
    EXPECT_TRUE(Restores(shifted)) << shift;
  }
}

// Version 2 belongs to Gram-rule tenants only: a blob for an FD-rule
// tenant (an epoch of fewer rows than d) is refused even with a
// well-formed Gram section.
TEST(TenantCheckpointV2, RefusedForAnFdRuleTenant) {
  constexpr size_t kWide = 20;
  const TenantOptions wide{.dim = kWide, .eps = 0.25, .epoch_rows = 16};
  auto tenant = TenantSketch::Create("t", wide);
  ASSERT_TRUE(tenant.ok());
  ASSERT_FALSE(tenant->epoch_uses_gram());
  ASSERT_TRUE(tenant->AbsorbRows(GenerateGaussian(8, kWide, 1.0, 3)).ok());
  const std::vector<uint8_t> v1 = tenant->Checkpoint();
  ASSERT_EQ(v1[0], 1);
  ASSERT_TRUE(Restores(v1, wide));

  std::vector<uint8_t> v2(v1.begin(), v1.begin() + ShiftOffset(v1));
  v2[0] = 2;
  v2.resize(v2.size() + 8 + 8 * (kWide * (kWide + 1) / 2), 0);
  EXPECT_FALSE(Restores(v2, wide));
}

// Every truncation and every single-bit flip of a real v2 checkpoint is
// refused or restores a tenant that answers a finite query; none aborts.
// Two blobs: an ordinary epoch (shift 0) and a 1e-160 one (a large shift).
TEST(TenantCheckpointV2, CorruptionSweepNeverAborts) {
  for (const double scale : {1.0, 1e-160}) {
    SCOPED_TRACE(scale);
    const std::vector<uint8_t> blob = GramCheckpoint(scale);
    ForEachTruncation(blob, ExpectRefused);
    size_t restored = 0;
    ForEachBitFlip(blob, [&](const std::vector<uint8_t>& flipped,
                             const std::string& what) {
      auto tenant = TenantSketch::Restore("t", kOpt, flipped);
      if (!tenant.ok()) return;
      ++restored;
      auto query = tenant->Query();
      ASSERT_TRUE(query.ok()) << what;
      for (size_t k = 0; k < query->size(); ++k) {
        ASSERT_TRUE(std::isfinite(query->data()[k])) << what;
      }
    });
    // Counters and Gram bits are not checksummed: many flips restore.
    EXPECT_GT(restored, 0u);
  }
}

}  // namespace
}  // namespace distsketch
