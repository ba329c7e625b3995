// The parallel execution engine's core promise: every distributed
// protocol produces bit-identical sketches, word counts, and transcript
// digests for any thread count (1, 2, 8), with and without a fault plan
// installed. Per-server computation runs concurrently but writes only
// per-index slots; transfers and merges replay in server-index order, and
// each server's fault schedule is drawn from its own derived RNG stream —
// so the schedule cannot leak into any observable.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "dist/adaptive_sketch_protocol.h"
#include "dist/exact_gram_protocol.h"
#include "dist/fd_merge_protocol.h"
#include "dist/low_rank_exact_protocol.h"
#include "dist/svs_protocol.h"
#include "linalg/blas.h"
#include "sketch/error_metrics.h"
#include "sketch/frequent_directions.h"
#include "workload/generators.h"
#include "workload/partition.h"

namespace distsketch {
namespace {

constexpr size_t kServers = 6;

struct ProtocolCase {
  std::string name;
  Matrix data;
  std::shared_ptr<SketchProtocol> protocol;
};

Matrix NoisyWorkload(uint64_t seed) {
  return GenerateLowRankPlusNoise({.rows = 180,
                                   .cols = 14,
                                   .rank = 4,
                                   .decay = 0.7,
                                   .top_singular_value = 30.0,
                                   .noise_stddev = 0.4,
                                   .seed = seed});
}

std::vector<ProtocolCase> AllProtocolCases() {
  std::vector<ProtocolCase> cases;
  cases.push_back({"fd_merge", NoisyWorkload(2),
                   std::make_shared<FdMergeProtocol>(
                       FdMergeOptions{.eps = 0.4, .k = 3})});
  cases.push_back({"svs", NoisyWorkload(3),
                   std::make_shared<SvsProtocol>(SvsProtocolOptions{
                       .alpha = 0.15, .delta = 0.05, .seed = 13})});
  cases.push_back({"adaptive_sketch", NoisyWorkload(4),
                   std::make_shared<AdaptiveSketchProtocol>(
                       AdaptiveSketchOptions{
                           .eps = 0.3, .k = 3, .delta = 0.1, .seed = 19})});
  cases.push_back({"exact_gram", NoisyWorkload(5),
                   std::make_shared<ExactGramProtocol>()});
  // Noise-free rank 3 <= 2k: the low-rank protocol's exactness
  // precondition.
  cases.push_back({"low_rank_exact",
                   GenerateLowRankPlusNoise({.rows = 90,
                                             .cols = 14,
                                             .rank = 3,
                                             .noise_stddev = 0.0,
                                             .seed = 6}),
                   std::make_shared<LowRankExactProtocol>(
                       LowRankExactOptions{.k = 2})});
  return cases;
}

FaultConfig MixedFaultPlan() {
  FaultConfig config;
  config.default_profile.drop_prob = 0.15;
  config.default_profile.duplicate_prob = 0.1;
  config.default_profile.truncate_prob = 0.1;
  config.default_profile.transient_fail_prob = 0.1;
  config.default_profile.latency_jitter = 0.2;
  config.seed = 77;
  return config;
}

struct RunObservables {
  Matrix sketch;
  CommStats comm;
  uint64_t digest = 0;
  size_t sketch_rows = 0;
};

RunObservables RunOnce(const ProtocolCase& c, bool with_faults,
                       size_t threads) {
  ThreadPool::SetGlobalThreads(threads);
  auto cluster = Cluster::Create(
      PartitionRows(c.data, kServers, PartitionScheme::kRoundRobin), 0.1);
  DS_CHECK(cluster.ok());
  if (with_faults) cluster->InstallFaultPlan(MixedFaultPlan());
  auto result = c.protocol->Run(*cluster);
  DS_CHECK(result.ok());
  RunObservables obs;
  obs.sketch = std::move(result->sketch);
  obs.comm = result->comm;
  obs.digest = TranscriptDigest(cluster->log(), cluster->faults());
  obs.sketch_rows = result->sketch_rows;
  return obs;
}

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = ThreadPool::GlobalThreads(); }
  void TearDown() override { ThreadPool::SetGlobalThreads(saved_threads_); }
  size_t saved_threads_ = 1;
};

TEST_F(ParallelDeterminismTest, AllProtocolsBitIdenticalAcrossThreadCounts) {
  for (const ProtocolCase& c : AllProtocolCases()) {
    for (bool with_faults : {false, true}) {
      const RunObservables base = RunOnce(c, with_faults, 1);
      for (size_t threads : {2u, 8u}) {
        const RunObservables got = RunOnce(c, with_faults, threads);
        SCOPED_TRACE(c.name + (with_faults ? " faults" : " ideal") +
                     " threads=" + std::to_string(threads));
        EXPECT_TRUE(got.sketch == base.sketch)
            << "sketch bits differ from the 1-thread run";
        EXPECT_EQ(got.sketch_rows, base.sketch_rows);
        EXPECT_EQ(got.comm.total_words, base.comm.total_words);
        EXPECT_EQ(got.comm.total_bits, base.comm.total_bits);
        EXPECT_EQ(got.comm.num_messages, base.comm.num_messages);
        EXPECT_EQ(got.comm.num_rounds, base.comm.num_rounds);
        EXPECT_EQ(got.comm.first_attempt_words, base.comm.first_attempt_words);
        EXPECT_EQ(got.comm.retransmit_words, base.comm.retransmit_words);
        EXPECT_EQ(got.digest, base.digest)
            << "wire transcript differs from the 1-thread run";
      }
    }
  }
}

TEST_F(ParallelDeterminismTest, RepeatedRunsAtFixedThreadCountAreIdentical) {
  for (const ProtocolCase& c : AllProtocolCases()) {
    const RunObservables a = RunOnce(c, true, 8);
    const RunObservables b = RunOnce(c, true, 8);
    SCOPED_TRACE(c.name);
    EXPECT_TRUE(a.sketch == b.sketch);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.comm.total_words, b.comm.total_words);
  }
}

// FD's shrink eigensolves the smaller Gram of its buffer: the 2l-by-2l
// row Gram when d > 2l, the d-by-d column Gram otherwise. Both paths must
// satisfy the FD covariance guarantee.
TEST(FdShrinkTest, BothShrinkPathsMeetTheFdGuarantee) {
  const Matrix a = GenerateLowRankPlusNoise({.rows = 400,
                                             .cols = 48,
                                             .rank = 6,
                                             .decay = 0.6,
                                             .top_singular_value = 20.0,
                                             .noise_stddev = 0.3,
                                             .seed = 9});
  EXPECT_TRUE(FdUsesGramShrink(48, 8));    // d > 2l: row Gram
  EXPECT_FALSE(FdUsesGramShrink(48, 24));  // d <= 2l: column Gram
  for (const size_t sketch_size : {8u, 24u}) {
    SCOPED_TRACE(sketch_size);
    FrequentDirections fd(48, sketch_size);
    for (size_t i = 0; i < a.rows(); ++i) fd.Append(a.Row(i));
    const Matrix sketch = fd.Sketch();
    // The FD invariant: the covariance error is bounded by the total
    // spectral mass shrunk away, and the sketch never gains Frobenius
    // mass.
    EXPECT_LE(CovarianceError(a, sketch),
              fd.total_shrinkage() * (1.0 + 1e-9) + 1e-9);
    EXPECT_LE(SquaredFrobeniusNorm(sketch),
              SquaredFrobeniusNorm(a) * (1.0 + 1e-12));
    EXPECT_GT(fd.total_shrinkage(), 0.0);  // the shrink path actually ran
  }
}

}  // namespace
}  // namespace distsketch
