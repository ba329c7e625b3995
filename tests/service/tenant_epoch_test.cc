// The tenant's two epoch forms (TenantEpochUsesGram): the rule and its
// boundary, the Gram epoch's shrink against FdColumnShrink of the
// stacked rows, the FD epoch against a reference FD fed the same blocks
// (query digests and v1 checkpoint bytes), the covariance guarantee
// across epochs, bit-identical evict/restore across Gram rescales, the
// v1 checkpoint upgrade, and the shrink telemetry.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/blas.h"
#include "service/tenant.h"
#include "sketch/error_metrics.h"
#include "sketch/frequent_directions.h"
#include "telemetry/telemetry.h"
#include "wire/sketch_serde.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

uint64_t MatrixDigest(const Matrix& m) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  mix(m.rows());
  mix(m.cols());
  for (size_t i = 0; i < m.size(); ++i) {
    uint64_t bits;
    std::memcpy(&bits, m.data() + i, 8);
    mix(bits);
  }
  return h;
}

void AppendU64(uint64_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void AppendBlob(const std::vector<uint8_t>& blob, std::vector<uint8_t>* out) {
  AppendU64(blob.size(), out);
  out->insert(out->end(), blob.begin(), blob.end());
}

// The tenant as the FD-epoch code kept it: a coordinator FD and an epoch
// FD fed one AppendBlock per request, merged at each seal.
struct ReferenceTenant {
  FrequentDirections coordinator;
  FrequentDirections epoch;
  uint64_t seals = 0, rows = 0, rows_in_epoch = 0;

  ReferenceTenant(size_t dim, size_t sketch_size)
      : coordinator(dim, sketch_size), epoch(dim, sketch_size) {}

  void Absorb(const Matrix& block, size_t epoch_rows) {
    epoch.AppendBlock(block);
    rows += block.rows();
    rows_in_epoch += block.rows();
    if (rows_in_epoch >= epoch_rows) {
      coordinator.Merge(epoch);
      epoch = FrequentDirections(epoch.dim(), epoch.sketch_size());
      rows_in_epoch = 0;
      ++seals;
    }
  }

  Matrix Query() const {
    FrequentDirections merged = coordinator;
    merged.Merge(epoch);
    return merged.Sketch();
  }

  // The version-1 tenant checkpoint of this state.
  std::vector<uint8_t> CheckpointV1() const {
    std::vector<uint8_t> out;
    AppendU64(1, &out);
    AppendU64(seals, &out);
    AppendU64(rows, &out);
    AppendU64(rows_in_epoch, &out);
    AppendBlob(wire::SerializeSketch(coordinator), &out);
    AppendBlob(wire::SerializeSketch(epoch), &out);
    return out;
  }
};

void Absorb(TenantSketch& tenant, const Matrix& block) {
  ASSERT_TRUE(tenant.AbsorbRows(block).ok());
  while (tenant.EpochReady()) tenant.SealEpoch();
}

Matrix Block(size_t rows, size_t dim, uint64_t seed, bool low_rank) {
  if (!low_rank) return GenerateGaussian(rows, dim, 1.0, seed);
  return GenerateLowRankPlusNoise(
      {.rows = rows, .cols = dim, .rank = std::min<size_t>(8, rows),
       .seed = seed});
}

// eps for which FromEps keeps exactly l rows: ceil(1/eps) + 1 = l.
double EpsFor(size_t sketch_size) {
  return 1.0 / static_cast<double>(sketch_size - 1);
}

// A tenant keeps the Gram exactly where AppendBlock would shrink one
// epoch's rows through the d-by-d column Gram: the largest such d for each
// (l, epoch_rows), then d + 1, and the benchmarks' shapes.
TEST(TenantEpochRule, GramExactlyWhereOneEpochIsOneBlockShrink) {
  struct Edge {
    size_t l, epoch_rows, last_gram_dim;
  };
  // d^3 <= k (2l)^3 with k = 1 + floor((epoch_rows - 2l) / l).
  for (const Edge e : {Edge{5, 32, 17}, Edge{5, 256, 36}, Edge{11, 32, 22},
                       Edge{11, 256, 61}}) {
    SCOPED_TRACE(testing::Message() << "l=" << e.l
                                    << " epoch_rows=" << e.epoch_rows);
    for (const size_t dim : {e.last_gram_dim, e.last_gram_dim + 1}) {
      const bool gram = dim == e.last_gram_dim;
      EXPECT_EQ(TenantEpochUsesGram(dim, e.l, e.epoch_rows), gram);
      EXPECT_EQ(TenantEpochUsesGram(dim, e.l, e.epoch_rows),
                FdBlockShrinkFires(dim, e.l, 0, e.epoch_rows));
      auto tenant = TenantSketch::Create(
          "t", {.dim = dim, .eps = EpsFor(e.l), .epoch_rows = e.epoch_rows});
      ASSERT_TRUE(tenant.ok());
      EXPECT_EQ(tenant->epoch_uses_gram(), gram);
      ASSERT_TRUE(tenant->AbsorbRows(Block(16, dim, dim, false)).ok());
      EXPECT_EQ(tenant->Checkpoint()[0], gram ? 2 : 1);
    }
  }
  EXPECT_TRUE(TenantEpochUsesGram(32, 11, 16384));  // service_mixed
  EXPECT_TRUE(TenantEpochUsesGram(32, 6, 256));   // bench_service_ingest,
  EXPECT_FALSE(TenantEpochUsesGram(32, 6, 32));   // 64- and 8-row requests
  EXPECT_FALSE(TenantEpochUsesGram(16, 5, 16));   // service_demo
  EXPECT_FALSE(TenantEpochUsesGram(4, 5, 9));     // epoch shorter than 2l
}

// An FD-rule tenant is the FD-epoch tenant bit for bit: its queries match
// a reference fed the same blocks, and its checkpoint is version 1,
// byte for byte.
TEST(TenantEpochRule, FdRuleTenantMatchesAppendBlockReference) {
  constexpr size_t kL = 11, kDim = 64;
  const TenantOptions opt{.dim = kDim, .eps = EpsFor(kL), .epoch_rows = 160};
  auto tenant = TenantSketch::Create("t", opt);
  ASSERT_TRUE(tenant.ok());
  ASSERT_FALSE(tenant->epoch_uses_gram());
  ReferenceTenant ref(kDim, kL);
  for (uint64_t r = 0; r < 9; ++r) {
    const Matrix block = Block(r % 3 == 0 ? 5 : 64, kDim, 300 + r, true);
    Absorb(*tenant, block);
    ref.Absorb(block, opt.epoch_rows);
    auto query = tenant->Query();
    ASSERT_TRUE(query.ok());
    EXPECT_EQ(MatrixDigest(*query), MatrixDigest(ref.Query())) << r;
    EXPECT_EQ(tenant->Checkpoint(), ref.CheckpointV1()) << r;
  }
  EXPECT_GT(ref.seals, 0u);
}

// The Gram epoch is one column-Gram shrink of all its rows stacked.
TEST(TenantGramEpoch, EpochRowsMatchColumnShrinkOfStackedRows) {
  constexpr size_t kL = 11, kDim = 32;
  for (const double scale : {1.0, 1e-160, 1e120}) {
    SCOPED_TRACE(scale);
    auto tenant = TenantSketch::Create(
        "t", {.dim = kDim, .eps = EpsFor(kL), .epoch_rows = 1 << 20});
    ASSERT_TRUE(tenant.ok());
    ASSERT_TRUE(tenant->epoch_uses_gram());
    Matrix stacked(0, kDim);
    for (uint64_t r = 0; r < 6; ++r) {
      Matrix block = Block(r == 2 ? 3 : 64, kDim, 400 + r, false);
      block.Scale(scale);
      ASSERT_TRUE(tenant->AbsorbRows(block).ok());
      stacked.AppendRows(block);
    }
    Matrix rows = tenant->EpochRows();
    Matrix want = stacked;
    ASSERT_GT(FdColumnShrink(want, nullptr, kL), 0.0);
    EXPECT_EQ(rows.rows(), want.rows());
    EXPECT_EQ(rows.rows(), kL);  // delta zeroes the (l+1)-th direction
    // The same sketch covariance B^T B = sum_j (sigma_j^2 - delta) v_j v_j^T
    // (which the eigenvectors' signs leave alone), compared at unit scale.
    rows.Scale(1.0 / scale);
    want.Scale(1.0 / scale);
    const Matrix want_cov = Gram(want);
    EXPECT_LE(MaxAbs(Subtract(Gram(rows), want_cov)),
              1e-12 * MaxAbs(want_cov));
  }
}

// coverr <= eps ||A||_F^2 after every request, across several seals, on
// low-rank + noise and on Gaussian rows.
TEST(TenantGramEpoch, QueryKeepsTheCovarianceGuaranteeAcrossEpochs) {
  struct Shape {
    size_t dim;
    double eps;
  };
  for (const Shape shape : {Shape{32, 0.1}, Shape{16, 0.25}, Shape{8, 0.1}}) {
    for (const bool low_rank : {true, false}) {
      SCOPED_TRACE(testing::Message() << "dim=" << shape.dim
                                      << " low_rank=" << low_rank);
      auto tenant = TenantSketch::Create(
          "t", {.dim = shape.dim, .eps = shape.eps, .epoch_rows = 200});
      ASSERT_TRUE(tenant.ok());
      ASSERT_TRUE(tenant->epoch_uses_gram());
      Matrix all(0, shape.dim);
      for (uint64_t r = 0; r < 16; ++r) {
        const Matrix block =
            Block(r % 4 == 1 ? 7 : 64, shape.dim, 500 + r, low_rank);
        Absorb(*tenant, block);
        all.AppendRows(block);
        auto query = tenant->Query();
        ASSERT_TRUE(query.ok());
        EXPECT_LE(query->rows(),
                  static_cast<size_t>(std::ceil(1.0 / shape.eps)) + 1);
        const double mass = SquaredFrobeniusNorm(all);
        EXPECT_LE(CovarianceError(all, *query, /*exact=*/true),
                  shape.eps * mass)
            << r;
      }
      EXPECT_GE(tenant->epoch(), 3u);
    }
  }
}

// Checkpoint -> restore -> continue is bit-identical to never evicting,
// through a 1e-160 block (a large shift), ordinary rows (the shift drops,
// rescaling the Gram), a 1e300 entry (it drops again), a seal, which
// resets the shift so the next tiny block raises it, and tiny rows below
// an ordinary epoch's range.
TEST(TenantGramEpoch, EvictRestoreIsBitIdenticalAcrossRescales) {
  constexpr size_t kDim = 16;
  const TenantOptions opt{.dim = kDim, .eps = 0.1, .epoch_rows = 192};
  auto live = TenantSketch::Create("t", opt);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live->epoch_uses_gram());
  auto shadow = TenantSketch::Create("t", opt);
  ASSERT_TRUE(shadow.ok());
  // 0 marks the block with one 1e300 entry; three blocks per epoch.
  const double kScales[] = {1e-160, 1.0, 0.0, 1e-160, 1.0, 1e-160, 1.0, 1.0};
  for (size_t r = 0; r < std::size(kScales); ++r) {
    SCOPED_TRACE(r);
    Matrix block = Block(64, kDim, 600 + r, r % 2 == 0);
    if (kScales[r] == 0.0) {
      block(37, 5) = 1e300;  // one huge entry among ordinary ones
    } else {
      block.Scale(kScales[r]);
    }
    Absorb(*live, block);
    Absorb(*shadow, block);
    auto restored = TenantSketch::Restore("t", opt, live->Checkpoint());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    live = std::move(restored);
    EXPECT_EQ(live->Checkpoint(), shadow->Checkpoint());
    auto got = live->Query();
    auto want = shadow->Query();
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(MatrixDigest(*got), MatrixDigest(*want));
    ASSERT_GT(got->rows(), 0u);
    for (size_t k = 0; k < got->size(); ++k) {
      ASSERT_TRUE(std::isfinite(got->data()[k])) << k;
    }
  }
  EXPECT_GE(live->epoch(), 2u);
}

// A version-1 checkpoint of a Gram-rule tenant, as the FD-epoch code wrote
// it, restores into a Gram epoch that keeps the guarantee, now and after
// more ingest.
TEST(TenantGramEpoch, RestoresVersionOneCheckpoint) {
  constexpr size_t kL = 11, kDim = 32;
  const TenantOptions opt{.dim = kDim, .eps = EpsFor(kL), .epoch_rows = 300};
  ReferenceTenant ref(kDim, kL);
  Matrix all(0, kDim);
  for (uint64_t r = 0; r < 7; ++r) {
    const Matrix block = Block(64, kDim, 700 + r, true);
    ref.Absorb(block, opt.epoch_rows);
    all.AppendRows(block);
  }
  ASSERT_EQ(ref.seals, 1u);
  ASSERT_GT(ref.epoch.buffer().rows(), 0u);
  auto tenant = TenantSketch::Restore("t", opt, ref.CheckpointV1());
  ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
  EXPECT_TRUE(tenant->epoch_uses_gram());
  EXPECT_EQ(tenant->epoch(), 1u);
  EXPECT_EQ(tenant->rows_ingested(), all.rows());
  EXPECT_EQ(tenant->rows_in_epoch(), ref.rows_in_epoch);
  for (int round = 0; round < 2; ++round) {
    auto query = tenant->Query();
    ASSERT_TRUE(query.ok());
    EXPECT_LE(CovarianceError(all, *query, /*exact=*/true),
              opt.eps * SquaredFrobeniusNorm(all));
    const Matrix block = Block(64, kDim, 800 + round, true);
    Absorb(*tenant, block);
    all.AppendRows(block);
  }
  // From here on the tenant checkpoints as version 2.
  EXPECT_EQ(tenant->Checkpoint()[0], 2);
}

// Ingest runs no shrink; a query shrinks the epoch once, reported like
// FD's own shrinks.
TEST(TenantGramEpoch, ShrinkTelemetryMatchesFd) {
  constexpr size_t kL = 11, kDim = 32;
  telemetry::Telemetry telem;
  telemetry::ScopedTelemetry scope(telem);
  auto tenant = TenantSketch::Create(
      "t", {.dim = kDim, .eps = EpsFor(kL), .epoch_rows = 1 << 20});
  ASSERT_TRUE(tenant.ok());
  for (uint64_t r = 0; r < 5; ++r) {
    ASSERT_TRUE(tenant->AbsorbRows(Block(64, kDim, 900 + r, true)).ok());
  }
  EXPECT_EQ(telem.metrics().CounterValue("fd.shrinks"), 0u);
  ASSERT_TRUE(tenant->Query().ok());
  EXPECT_EQ(telem.metrics().CounterValue("fd.shrinks"), 1u);
  size_t spans = 0;
  for (const telemetry::SpanRecord& span : telem.Spans()) {
    if (span.name != "fd/shrink") continue;
    ++spans;
    EXPECT_EQ(span.phase, telemetry::Phase::kShrink);
    std::vector<std::string> attrs;
    for (const telemetry::SpanAttr& a : span.attrs) {
      attrs.push_back(a.key + "=" + a.value);
    }
    EXPECT_EQ(attrs, (std::vector<std::string>{"l=11", "rows=320"}));
  }
  EXPECT_EQ(spans, 1u);
}

}  // namespace
}  // namespace distsketch
