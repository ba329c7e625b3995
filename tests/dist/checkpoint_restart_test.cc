// Checkpoint/restart suite: a coordinator that halts (or dies) mid-run
// and resumes from its SketchStore checkpoint must reproduce an
// uninterrupted run — bit-identically when the merge path is
// deterministic (clean halt: the server order is unchanged), and within
// the FD guarantee when a fault reordered the merge (a server lost
// mid-run is retried *after* the survivors on resume).

#include <cstring>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "dist/fault_injection.h"
#include "dist/fd_merge_protocol.h"
#include "dist/svs_protocol.h"
#include "linalg/blas.h"
#include "sketch/error_metrics.h"
#include "store/sketch_store.h"
#include "workload/generators.h"
#include "workload/partition.h"

namespace distsketch {
namespace {

constexpr size_t kServers = 6;

Matrix Workload(uint64_t seed) {
  return GenerateLowRankPlusNoise({.rows = 180,
                                   .cols = 14,
                                   .rank = 4,
                                   .decay = 0.7,
                                   .top_singular_value = 30.0,
                                   .noise_stddev = 0.4,
                                   .seed = seed});
}

Cluster MakeCluster(const Matrix& a, double eps) {
  auto cluster = Cluster::Create(
      PartitionRows(a, kServers, PartitionScheme::kRoundRobin, 7), eps);
  DS_CHECK(cluster.ok());
  return std::move(*cluster);
}

SketchStore OpenFreshStore(const std::string& name) {
  const std::string dir = testing::TempDir() + "/ckpt_" + name;
  std::filesystem::remove_all(dir);
  auto store = SketchStore::Open(dir);
  DS_CHECK(store.ok());
  return std::move(*store);
}

void ExpectMatrixBitsEq(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      uint64_t wa, wb;
      const double da = a(r, c), db = b(r, c);
      std::memcpy(&wa, &da, 8);
      std::memcpy(&wb, &db, 8);
      ASSERT_EQ(wa, wb) << "entry (" << r << ", " << c << ")";
    }
  }
}

class CheckpointRestartTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = ThreadPool::GlobalThreads(); }
  void TearDown() override { ThreadPool::SetGlobalThreads(saved_threads_); }
  size_t saved_threads_ = 1;
};

TEST_F(CheckpointRestartTest, FdMergeHaltResumeBitIdentical) {
  const Matrix a = Workload(21);
  const double eps = 0.4;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    ThreadPool::SetGlobalThreads(threads);

    // Uninterrupted reference run (no checkpointing at all).
    Cluster baseline_cluster = MakeCluster(a, eps);
    FdMergeProtocol baseline({.eps = eps, .k = 3});
    auto expected = baseline.Run(baseline_cluster);
    ASSERT_TRUE(expected.ok());

    // Crash after 3 servers, then restart the coordinator from the
    // stored checkpoint and finish.
    SketchStore store =
        OpenFreshStore("fd_halt_t" + std::to_string(threads));
    FdMergeOptions halted_options{.eps = eps, .k = 3};
    halted_options.checkpoint = {
        .store = &store, .key = "fd", .halt_after_servers = 3};
    Cluster halted_cluster = MakeCluster(a, eps);
    auto halted = FdMergeProtocol(halted_options).Run(halted_cluster);
    ASSERT_TRUE(halted.ok());
    EXPECT_TRUE(halted->halted);
    ASSERT_TRUE(store.Contains("fd"));

    FdMergeOptions resume_options{.eps = eps, .k = 3};
    resume_options.checkpoint = {.store = &store, .key = "fd",
                                 .resume = true};
    Cluster resumed_cluster = MakeCluster(a, eps);
    auto resumed = FdMergeProtocol(resume_options).Run(resumed_cluster);
    ASSERT_TRUE(resumed.ok());
    EXPECT_FALSE(resumed->halted);
    ExpectMatrixBitsEq(resumed->sketch, expected->sketch);
  }
}

// The star runs through the tree driver; under a fault plan that drops,
// duplicates and corrupts frames but kills no server, every retry still
// delivers, so a halt after 3 servers and a resume must reproduce the
// uninterrupted run under the same plan bit for bit.
TEST_F(CheckpointRestartTest,
       FdMergeHaltResumeBitIdenticalUnderTransientFaults) {
  const Matrix a = Workload(26);
  const double eps = 0.4;
  FaultConfig faults;
  faults.default_profile.drop_prob = 0.2;
  faults.default_profile.duplicate_prob = 0.2;
  faults.default_profile.corrupt_prob = 0.15;
  faults.max_retries = 12;
  faults.seed = 53;
  auto faulty_cluster = [&] {
    Cluster cluster = MakeCluster(a, eps);
    cluster.InstallFaultPlan(faults);
    return cluster;
  };
  for (size_t threads : {size_t{1}, size_t{8}}) {
    ThreadPool::SetGlobalThreads(threads);

    Cluster baseline_cluster = faulty_cluster();
    auto expected = FdMergeProtocol({.eps = eps, .k = 3}).Run(baseline_cluster);
    ASSERT_TRUE(expected.ok());
    ASSERT_FALSE(expected->degraded.degraded());
    ASSERT_GT(expected->comm.num_retransmits, 0u);

    SketchStore store =
        OpenFreshStore("fd_faults_t" + std::to_string(threads));
    FdMergeOptions halted_options{.eps = eps, .k = 3};
    halted_options.checkpoint = {
        .store = &store, .key = "fd", .halt_after_servers = 3};
    Cluster halted_cluster = faulty_cluster();
    auto halted = FdMergeProtocol(halted_options).Run(halted_cluster);
    ASSERT_TRUE(halted.ok());
    EXPECT_TRUE(halted->halted);
    EXPECT_FALSE(halted->degraded.degraded());

    FdMergeOptions resume_options{.eps = eps, .k = 3};
    resume_options.checkpoint = {.store = &store, .key = "fd",
                                 .resume = true};
    Cluster resumed_cluster = faulty_cluster();
    auto resumed = FdMergeProtocol(resume_options).Run(resumed_cluster);
    ASSERT_TRUE(resumed.ok());
    EXPECT_FALSE(resumed->halted);
    EXPECT_FALSE(resumed->degraded.degraded());
    ExpectMatrixBitsEq(resumed->sketch, expected->sketch);
  }
}

TEST_F(CheckpointRestartTest, SvsHaltResumeBitIdentical) {
  const Matrix a = Workload(22);
  const double alpha = 0.3;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    ThreadPool::SetGlobalThreads(threads);

    Cluster baseline_cluster = MakeCluster(a, alpha);
    SvsProtocol baseline({.alpha = alpha, .seed = 99});
    auto expected = baseline.Run(baseline_cluster);
    ASSERT_TRUE(expected.ok());

    SketchStore store =
        OpenFreshStore("svs_halt_t" + std::to_string(threads));
    SvsProtocolOptions halted_options{.alpha = alpha, .seed = 99};
    halted_options.checkpoint = {
        .store = &store, .key = "svs", .halt_after_servers = 3};
    Cluster halted_cluster = MakeCluster(a, alpha);
    auto halted = SvsProtocol(halted_options).Run(halted_cluster);
    ASSERT_TRUE(halted.ok());
    EXPECT_TRUE(halted->halted);
    ASSERT_TRUE(store.Contains("svs"));

    SvsProtocolOptions resume_options{.alpha = alpha, .seed = 99};
    resume_options.checkpoint = {.store = &store, .key = "svs",
                                 .resume = true};
    Cluster resumed_cluster = MakeCluster(a, alpha);
    auto resumed = SvsProtocol(resume_options).Run(resumed_cluster);
    ASSERT_TRUE(resumed.ok());
    EXPECT_FALSE(resumed->halted);
    // The per-server sampling seed depends only on (protocol seed,
    // server index), so the resumed run's remaining draws — and the
    // whole appended sketch — match the uninterrupted run exactly.
    ExpectMatrixBitsEq(resumed->sketch, expected->sketch);
  }
}

TEST_F(CheckpointRestartTest, FdMergeDeathMidRunResumeRecoversGuarantee) {
  const Matrix a = Workload(23);
  const double eps = 0.4;
  const size_t k = 3;

  // No-fault reference run.
  Cluster reference_cluster = MakeCluster(a, eps);
  auto reference = FdMergeProtocol({.eps = eps, .k = k}).Run(reference_cluster);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(IsEpsKSketch(a, reference->sketch, 2.0 * eps, k));

  // Kill server 2 at time zero via the fault injector's death mode; the
  // coordinator checkpoints every fold and finishes degraded.
  SketchStore store = OpenFreshStore("fd_death");
  FdMergeOptions faulty_options{.eps = eps, .k = k};
  faulty_options.checkpoint = {.store = &store, .key = "fd"};
  Cluster faulty_cluster = MakeCluster(a, eps);
  FaultConfig faults;
  faults.per_server[2].die_at_time = 0.0;
  faulty_cluster.InstallFaultPlan(faults);
  auto degraded = FdMergeProtocol(faulty_options).Run(faulty_cluster);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->degraded.degraded());
  EXPECT_EQ(degraded->degraded.lost_servers,
            (std::vector<int>{2}));

  // Restart: faults cleared (the server came back), resume from the
  // store. Only the lost server is reprocessed; it merges after the
  // survivors, so the result carries the full input within the merged-FD
  // guarantee (the merge order differs from the uninterrupted run, so
  // bit-identity is not promised here).
  FdMergeOptions resume_options{.eps = eps, .k = k};
  resume_options.checkpoint = {.store = &store, .key = "fd", .resume = true};
  Cluster resumed_cluster = MakeCluster(a, eps);
  auto recovered = FdMergeProtocol(resume_options).Run(resumed_cluster);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->degraded.degraded());
  EXPECT_TRUE(IsEpsKSketch(a, recovered->sketch, 2.0 * eps, k));
}

TEST_F(CheckpointRestartTest, SvsDeathMidRunResumeRecoversAllRows) {
  const Matrix a = Workload(24);
  const double alpha = 0.3;

  Cluster reference_cluster = MakeCluster(a, alpha);
  auto reference =
      SvsProtocol({.alpha = alpha, .seed = 7}).Run(reference_cluster);
  ASSERT_TRUE(reference.ok());

  SketchStore store = OpenFreshStore("svs_death");
  SvsProtocolOptions faulty_options{.alpha = alpha, .seed = 7};
  faulty_options.checkpoint = {.store = &store, .key = "svs"};
  Cluster faulty_cluster = MakeCluster(a, alpha);
  FaultConfig faults;
  faults.per_server[2].die_at_time = 0.0;
  faulty_cluster.InstallFaultPlan(faults);
  auto degraded = SvsProtocol(faulty_options).Run(faulty_cluster);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->degraded.degraded());

  // Server 2 died before its round-1 mass report, so the broadcast
  // global mass — and the sampling function every surviving server
  // already used — excluded it. A round-1 loss is therefore permanent:
  // the resumed run restores the checkpointed rows and keeps reporting
  // the loss honestly rather than sampling with an inconsistent g.
  SvsProtocolOptions resume_options{.alpha = alpha, .seed = 7};
  resume_options.checkpoint = {.store = &store, .key = "svs",
                               .resume = true};
  Cluster resumed_cluster = MakeCluster(a, alpha);
  auto recovered = SvsProtocol(resume_options).Run(resumed_cluster);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->degraded.degraded())
      << "round-1 losses are permanent: the mass broadcast cannot be "
         "retroactively widened";
  EXPECT_GT(recovered->sketch.rows(), 0u);
}

TEST_F(CheckpointRestartTest, ResumeAgainstWrongProtocolRejected) {
  const Matrix a = Workload(25);
  SketchStore store = OpenFreshStore("wrong_protocol");
  FdMergeOptions fd_options{.eps = 0.4, .k = 3};
  fd_options.checkpoint = {.store = &store, .key = "shared"};
  Cluster fd_cluster = MakeCluster(a, 0.4);
  ASSERT_TRUE(FdMergeProtocol(fd_options).Run(fd_cluster).ok());

  SvsProtocolOptions svs_options{.alpha = 0.3, .seed = 1};
  svs_options.checkpoint = {.store = &store, .key = "shared", .resume = true};
  Cluster svs_cluster = MakeCluster(a, 0.3);
  auto result = SvsProtocol(svs_options).Run(svs_cluster);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("protocol"), std::string::npos)
      << result.status().message();
}

}  // namespace
}  // namespace distsketch
