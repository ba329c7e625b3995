// Regression pins for the transport: seeded protocol runs through
// Cluster::Send must reproduce the pinned transcripts bit for bit —
// transcript digest, analytic word count, wire bytes, control (NAK)
// bytes, and the result sketch (per SIMD backend) are all pinned.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/adaptive_sketch_protocol.h"
#include "dist/cluster.h"
#include "dist/countsketch_protocol.h"
#include "dist/exact_gram_protocol.h"
#include "dist/fd_merge_protocol.h"
#include "dist/fault_injection.h"
#include "dist/row_sampling_protocol.h"
#include "dist/svs_protocol.h"
#include "linalg/simd_dispatch.h"
#include "workload/generators.h"
#include "workload/partition.h"

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

FaultConfig ChaosConfig() {
  FaultConfig fc;
  fc.default_profile.drop_prob = 0.08;
  fc.default_profile.duplicate_prob = 0.05;
  fc.default_profile.truncate_prob = 0.05;
  fc.default_profile.corrupt_prob = 0.05;
  fc.default_profile.transient_fail_prob = 0.04;
  fc.seed = 77;
  return fc;
}

Cluster MakeTestCluster(bool faults) {
  Matrix a = GenerateGaussian(512, 24, 1.0, 20240807);
  auto cluster =
      Cluster::Create(PartitionRows(a, 8, PartitionScheme::kRoundRobin), 0.1);
  DS_CHECK(cluster.ok());
  if (faults) cluster->InstallFaultPlan(ChaosConfig());
  return std::move(*cluster);
}

struct PinnedRun {
  const char* name;
  bool faults;
  uint64_t transcript_digest;
  uint64_t total_words;
  uint64_t total_wire_bytes;
  uint64_t control_wire_bytes;
};

// Captured from the pre-refactor synchronous Cluster::Send path (commit
// 68a7590) with the seeded workload above. Any drift here means the
// channel adapter changed an observable transcript. These hold on every
// SIMD backend. The CountSketch rows (star and tree(3) under the chaos
// plan) pin the fault order of the tree driver's depth-1 and deeper
// cases. Frame v1 (XXH64) and v2 (CRC-64) checksums give the same values:
// the checksum decides no fault and changes no frame size.
const PinnedRun kPins[] = {
    {"fd_merge", false, 0xc4753034a1c6230dull, 2112ull, 17480ull, 0ull},
    {"svs", false, 0x50555985a008bfe3ull, 64ull, 1794ull, 0ull},
    {"adaptive_sketch", false, 0xb0ab2648fb0c9ed1ull, 2080ull, 18416ull, 0ull},
    {"exact_gram", false, 0xe9a55ef08162cfa5ull, 2400ull, 19768ull, 0ull},
    {"row_sampling", false, 0x2e37237af9c3a516ull, 2424ull, 21168ull, 0ull},
    {"fd_merge", true, 0x8d5771dbd8d1c5dcull, 2649ull, 22561ull, 43ull},
    {"svs", true, 0xfa794e2725642d26ull, 129ull, 2707ull, 86ull},
    {"adaptive_sketch", true, 0xa5fc29b7f6d57929ull, 2167ull, 20219ull, 86ull},
    {"exact_gram", true, 0xaeb2f50abdf721a0ull, 3009ull, 25421ull, 43ull},
    {"row_sampling", true, 0xc2dd40ddcc9e5801ull, 3557ull, 30751ull, 86ull},
    {"countsketch", true, 0x0ebb4953ec5a6c07ull, 113039ull, 906446ull, 86ull},
    {"countsketch_tree3", true, 0xecebfd1c95b27541ull, 96018ull, 770088ull,
     86ull},
};

// Result-sketch digests, one per SIMD backend. The protocols that
// eigensolve (FD shrinks, the exact Gram's spectral factor) round
// differently on each kernel table, so their sketch bits are pinned per
// backend. A protocol's sketch is the same clean and under faults.
struct SketchPin {
  const char* name;
  uint64_t scalar;
  uint64_t avx2;
  uint64_t avx512;
};

const SketchPin kSketchPins[] = {
    {"fd_merge", 0xc54528b8629948aaull, 0xf463975a8206c6fbull,
     0xda1f11206e3fed65ull},
    {"svs", 0x3ffd1ff0ec0dd584ull, 0x5d599c5ba8e091a6ull,
     0x42d966d28adce1dbull},
    {"adaptive_sketch", 0xf9cb759a870268e9ull, 0xa0dd7517a6ab1175ull,
     0xcb65afcc3b2fde99ull},
    {"exact_gram", 0x7f2fd595049344e6ull, 0x81a2a156d22f54daull,
     0xe18ceccc10339d84ull},
    {"row_sampling", 0x92706e644040b951ull, 0x92706e644040b951ull,
     0x92706e644040b951ull},
    {"countsketch", 0x28749bfc43592c96ull, 0x28749bfc43592c96ull,
     0x28749bfc43592c96ull},
    {"countsketch_tree3", 0x523df929726aff7dull, 0x523df929726aff7dull,
     0x523df929726aff7dull},
};

uint64_t PinnedSketchDigest(const std::string& name) {
  for (const SketchPin& pin : kSketchPins) {
    if (name != pin.name) continue;
    switch (ActiveSimdBackend()) {
      case SimdBackend::kScalar:
        return pin.scalar;
      case SimdBackend::kAvx2:
        return pin.avx2;
      case SimdBackend::kAvx512:
        return pin.avx512;
    }
  }
  ADD_FAILURE() << "no sketch pin for " << name;
  return 0;
}

std::shared_ptr<SketchProtocol> MakeProtocol(const std::string& name) {
  if (name == "fd_merge") {
    return std::make_shared<FdMergeProtocol>(FdMergeOptions{});
  }
  if (name == "svs") {
    return std::make_shared<SvsProtocol>(SvsProtocolOptions{});
  }
  if (name == "adaptive_sketch") {
    return std::make_shared<AdaptiveSketchProtocol>(AdaptiveSketchOptions{});
  }
  if (name == "exact_gram") {
    return std::make_shared<ExactGramProtocol>();
  }
  if (name == "row_sampling") {
    return std::make_shared<RowSamplingProtocol>(RowSamplingOptions{});
  }
  if (name == "countsketch" || name == "countsketch_tree3") {
    CountSketchProtocolOptions options;
    if (name == "countsketch_tree3") {
      options.topology = MergeTopologyOptions::Tree(3);
    }
    return std::make_shared<CountSketchProtocol>(options);
  }
  return nullptr;
}

TEST(ChannelEquivalence, SeededRunsMatchPreRefactorPins) {
  for (const PinnedRun& pin : kPins) {
    SCOPED_TRACE(std::string(pin.name) +
                 (pin.faults ? " (faults)" : " (clean)"));
    auto protocol = MakeProtocol(pin.name);
    ASSERT_NE(protocol, nullptr);
    Cluster cluster = MakeTestCluster(pin.faults);
    auto result = protocol->Run(cluster);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(TranscriptDigest(cluster.log(), cluster.faults()),
              pin.transcript_digest);
    EXPECT_EQ(result->comm.total_words, pin.total_words);
    EXPECT_EQ(result->comm.total_wire_bytes, pin.total_wire_bytes);
    EXPECT_EQ(result->comm.control_wire_bytes, pin.control_wire_bytes);
    EXPECT_EQ(MatrixDigest(result->sketch), PinnedSketchDigest(pin.name));
  }
}

TEST(ChannelEquivalence, ResetLogReplaysIdenticalTranscript) {
  auto protocol = MakeProtocol("fd_merge");
  Cluster cluster = MakeTestCluster(/*faults=*/true);
  auto first = protocol->Run(cluster);
  ASSERT_TRUE(first.ok());
  const uint64_t digest1 = TranscriptDigest(cluster.log(), cluster.faults());
  cluster.ResetLog();
  auto second = protocol->Run(cluster);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(TranscriptDigest(cluster.log(), cluster.faults()), digest1);
  EXPECT_EQ(MatrixDigest(first->sketch), MatrixDigest(second->sketch));
}

}  // namespace
}  // namespace distsketch
