// E12: scale-out sweep of the aggregation topologies. Stars ship every
// per-server sketch straight to the coordinator, so coordinator inbound
// bytes grow as O(s * message); k-ary trees fold sketches at interior
// servers and the coordinator receives only the top level — the sweep
// measures exactly that gap over s in {64, 256, 1024} for the three
// mergeable protocols (fd_merge, exact_gram, countsketch), plus:
//
//   - Zipf-skewed shards (workload realism: a few servers hold most
//     rows; the tree's inbound win is partition-independent),
//   - sparse-aware local compute (CSR Gram vs dense Gram at ~2% nnz),
//   - chaos at scale (interior-node deaths at s=256 under tree(8):
//     re-parenting keeps the run alive, degraded accounting stays
//     honest).
//
// `--smoke` shrinks the sweep to s <= 256 for CTest / CI. `--check
// bench/gates.json` gates the measured ratios against the committed
// floors (`smoke_` or `full_` keys by sweep size) and exits nonzero on a
// regression. Neither mode writes BENCH_sketch.json; only the full,
// ungated sweep does. Each gated star/tree pair is timed interleaved, one run
// of each per repetition on its own cluster, and each side reports its
// best of 9. The inbound-bytes floor (>= 8x) is hardware-independent;
// the wall floors are conservative because the tree's wall win comes
// from per-level merge parallelism, which a single-core host cannot
// show (there the honest expectation is parity, and the floor only
// guards against the tree becoming outright slower).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "dist/countsketch_protocol.h"
#include "dist/exact_gram_protocol.h"
#include "dist/fd_merge_protocol.h"
#include "linalg/blas.h"
#include "linalg/csr_matrix.h"
#include "workload/generators.h"
#include "workload/partition.h"

namespace distsketch {
namespace {

struct RunResult {
  double wall_ms = 0.0;
  uint64_t words = 0;
  uint64_t wire_bytes = 0;
  uint64_t coord_wire_bytes = 0;
  double bound_widening = 0.0;
  size_t lost_servers = 0;
};

/// One run of `protocol` on `cluster`; coordinator inbound is read off
/// the CommLog of this run.
RunResult RunOnce(SketchProtocol& protocol, Cluster& cluster) {
  RunResult out;
  bench::WallTimer timer;
  auto result = protocol.Run(cluster);
  out.wall_ms = timer.ElapsedMs();
  DS_CHECK(result.ok());
  out.words = result->comm.total_words;
  out.wire_bytes = result->comm.total_wire_bytes;
  out.bound_widening = result->degraded.BoundWidening();
  out.lost_servers = result->degraded.lost_servers.size();
  out.coord_wire_bytes = cluster.log().WireBytesReceivedBy(kCoordinator);
  return out;
}

/// Keeps the faster wall time; every other field is identical across
/// repetitions of one configuration.
void KeepBest(RunResult& best, const RunResult& run, int rep) {
  if (rep == 0 || run.wall_ms < best.wall_ms) best = run;
}

/// Best-of-reps run of one protocol on one cluster.
RunResult RunProtocol(SketchProtocol& protocol, Cluster& cluster, int reps) {
  RunResult best;
  for (int r = 0; r < reps; ++r) KeepBest(best, RunOnce(protocol, cluster), r);
  return best;
}

/// Star and tree runs of one protocol, interleaved: each repetition runs
/// the star once and the tree once, each on its own cluster, so a change
/// in host load during the sweep lands on both sides alike. Each side
/// keeps its best repetition.
struct StarTree {
  RunResult star;
  RunResult tree;
};
StarTree RunStarTree(SketchProtocol& star, Cluster& star_cluster,
                     SketchProtocol& tree, Cluster& tree_cluster, int reps) {
  StarTree best;
  for (int r = 0; r < reps; ++r) {
    KeepBest(best.star, RunOnce(star, star_cluster), r);
    KeepBest(best.tree, RunOnce(tree, tree_cluster), r);
  }
  return best;
}

std::string TopologyLabel(const MergeTopologyOptions& topology) {
  if (topology.is_star()) return "star";
  return std::string(TopologyKindName(topology.kind)) +
         std::to_string(topology.fanout);
}

void Report(const char* op, size_t s, const std::string& topology,
            const RunResult& r) {
  std::printf("%-22s s=%5zu %-6s %9.2f ms %10llu words %10llu coord B\n",
              op, s, topology.c_str(), r.wall_ms,
              static_cast<unsigned long long>(r.words),
              static_cast<unsigned long long>(r.coord_wire_bytes));
}

/// Measured star/tree and dense/sparse ratios the --check gate audits.
struct GateRatios {
  double fd_inbound = 0.0;
  double fd_wall = 0.0;
  double gram_inbound = 0.0;
  double gram_wall = 0.0;
  double sparse_gram = 0.0;
};

}  // namespace
}  // namespace distsketch

int main(int argc, char** argv) {
  using namespace distsketch;
  bool smoke = false;
  const char* gates_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      gates_path = argv[++i];
    }
  }
  if (smoke || gates_path != nullptr) bench::DisableBenchJson();
  // The gates file is read before the sweep, so a wrong path or a
  // missing key exits 2 at once.
  const std::string mode = smoke ? "smoke_" : "full_";
  const std::string inbound_key = mode + "inbound_ratio_min";
  const std::string wall_key = mode + "wall_ratio_min";
  const std::string sparse_key = mode + "sparse_gram_ratio_min";
  std::optional<bench::Gates> gates;
  if (gates_path != nullptr) {
    gates = bench::Gates::Read(gates_path,
                               {inbound_key, wall_key, sparse_key});
    if (!gates) return 2;
  }

  std::printf("Scale-out sweep: star vs tree(8) aggregation\n\n");

  const std::vector<size_t> sweep =
      smoke ? std::vector<size_t>{64, 256} : std::vector<size_t>{64, 256, 1024};
  const size_t n = smoke ? 1024 : 4096;
  const size_t d = smoke ? 32 : 64;
  const double eps = 0.15;
  const int reps = smoke ? 1 : 3;
  // The star/tree wall gates divide two millisecond-scale run times, so
  // each side is the best of this many interleaved repetitions, in smoke
  // and full mode alike.
  const int gate_reps = 9;
  const size_t threads = ThreadPool::Global().num_threads();
  const size_t s_gate = sweep.back();

  const Matrix a = GenerateLowRankPlusNoise({.rows = n,
                                             .cols = d,
                                             .rank = 8,
                                             .decay = 0.6,
                                             .top_singular_value = 30.0,
                                             .noise_stddev = 0.3,
                                             .seed = 7});
  bench::BenchJsonWriter json;
  GateRatios ratios;

  const MergeTopologyOptions star = MergeTopologyOptions::Star();
  const MergeTopologyOptions tree8 = MergeTopologyOptions::Tree(8);
  const MergeTopologyOptions topologies[] = {star, tree8};

  bench::Section("topology sweep (round-robin shards)");
  const size_t fd_l = static_cast<size_t>(1.0 / eps) + 2;
  for (const size_t s : sweep) {
    Cluster star_cluster = bench::MakeCluster(a, s, eps);
    Cluster tree_cluster = bench::MakeCluster(a, s, eps);
    const auto report = [&](const char* op, size_t l, const StarTree& r) {
      for (const bool is_tree : {false, true}) {
        const RunResult& run = is_tree ? r.tree : r.star;
        const std::string label = TopologyLabel(is_tree ? tree8 : star);
        Report(op, s, label, run);
        json.Add({.op = op,
                  .n = n,
                  .d = d,
                  .s = s,
                  .l = l,
                  .threads = threads,
                  .wall_ms = run.wall_ms,
                  .words = run.words,
                  .wire_bytes = run.wire_bytes,
                  .topology = label,
                  .coord_wire_bytes = run.coord_wire_bytes});
      }
    };

    FdMergeProtocol star_fd({.eps = eps, .k = 0, .topology = star});
    FdMergeProtocol tree_fd({.eps = eps, .k = 0, .topology = tree8});
    const StarTree fd_r = RunStarTree(star_fd, star_cluster, tree_fd,
                                      tree_cluster, gate_reps);
    report("fd_merge", fd_l, fd_r);

    ExactGramProtocol star_gram({.topology = star});
    ExactGramProtocol tree_gram({.topology = tree8});
    const StarTree gram_r = RunStarTree(star_gram, star_cluster, tree_gram,
                                        tree_cluster, gate_reps);
    report("exact_gram", d, gram_r);

    CountSketchProtocol star_cs(
        {.eps = 0.3, .oversample = 2.0, .seed = 29, .topology = star});
    CountSketchProtocol tree_cs(
        {.eps = 0.3, .oversample = 2.0, .seed = 29, .topology = tree8});
    const StarTree cs_r = RunStarTree(star_cs, star_cluster, tree_cs,
                                      tree_cluster, reps);
    report("countsketch", 0, cs_r);

    if (s == s_gate) {
      ratios.fd_inbound = static_cast<double>(fd_r.star.coord_wire_bytes) /
                         static_cast<double>(fd_r.tree.coord_wire_bytes);
      ratios.fd_wall = fd_r.star.wall_ms / fd_r.tree.wall_ms;
      ratios.gram_inbound =
          static_cast<double>(gram_r.star.coord_wire_bytes) /
          static_cast<double>(gram_r.tree.coord_wire_bytes);
      ratios.gram_wall = gram_r.star.wall_ms / gram_r.tree.wall_ms;
    }
  }

  // Zipf-skewed shards: the tree's inbound cut is partition-independent
  // (every server still sends one uplink), while the star's coordinator
  // takes the same s messages regardless of skew.
  bench::Section("zipf-skewed shards (alpha = 1)");
  {
    const size_t s = smoke ? 64 : 256;
    for (const MergeTopologyOptions& topo : topologies) {
      auto cluster = Cluster::Create(PartitionRowsZipf(a, s, 1.0), eps);
      DS_CHECK(cluster.ok());
      FdMergeProtocol fd({.eps = eps, .k = 0, .topology = topo});
      const RunResult r = RunProtocol(fd, *cluster, reps);
      const std::string label = TopologyLabel(topo);
      Report("fd_merge_zipf", s, label, r);
      json.Add({.op = "fd_merge_zipf",
                .n = n,
                .d = d,
                .s = s,
                .l = static_cast<size_t>(1.0 / eps) + 2,
                .threads = threads,
                .wall_ms = r.wall_ms,
                .words = r.words,
                .wire_bytes = r.wire_bytes,
                .topology = label,
                .coord_wire_bytes = r.coord_wire_bytes});
    }
  }

  // Sparse-aware local compute: CSR Gram (nnz-proportional scatter
  // kernel) vs dense Gram at ~2% density. Kernel-level ratio is the
  // gate; the protocol-level pair shows it end to end.
  bench::Section("sparse gram (2% density)");
  {
    const size_t sn = smoke ? 512 : 2048;
    const size_t sd = smoke ? 128 : 256;
    const Matrix sp = GenerateSparse(
        {.rows = sn, .cols = sd, .density = 0.02, .value_stddev = 1.0,
         .seed = 11});
    const CsrMatrix csr = CsrMatrix::FromDense(sp);
    const int kreps = smoke ? 3 : 5;
    double dense_ms = -1.0, sparse_ms = -1.0;
    for (int r = 0; r < kreps; ++r) {
      bench::WallTimer t1;
      const Matrix g1 = Gram(sp);
      const double m1 = t1.ElapsedMs();
      if (dense_ms < 0.0 || m1 < dense_ms) dense_ms = m1;
      bench::WallTimer t2;
      const Matrix g2 = csr.Gram();
      const double m2 = t2.ElapsedMs();
      if (sparse_ms < 0.0 || m2 < sparse_ms) sparse_ms = m2;
      DS_CHECK(MaxAbs(Subtract(g1, g2)) < 1e-9);
    }
    ratios.sparse_gram = dense_ms / sparse_ms;
    std::printf("gram kernel %zux%zu: dense %.3f ms, sparse %.3f ms "
                "(%.1fx)\n",
                sn, sd, dense_ms, sparse_ms, ratios.sparse_gram);
    json.Add({.op = "gram_kernel_dense", .n = sn, .d = sd, .s = 0, .l = 0,
              .threads = 1, .wall_ms = dense_ms, .words = 0,
              .wire_bytes = 0});
    json.Add({.op = "gram_kernel_sparse", .n = sn, .d = sd, .s = 0, .l = 0,
              .threads = 1, .wall_ms = sparse_ms, .words = 0,
              .wire_bytes = 0});

    const size_t s = 16;
    for (const bool use_sparse : {false, true}) {
      auto parts = PartitionRows(sp, s, PartitionScheme::kRoundRobin);
      auto cluster = use_sparse ? Cluster::CreateSparse(parts, eps)
                                : Cluster::Create(parts, eps);
      DS_CHECK(cluster.ok());
      ExactGramProtocol gram({.topology = MergeTopologyOptions::Star()});
      const RunResult r = RunProtocol(gram, *cluster, kreps);
      const char* op = use_sparse ? "exact_gram_sparse_input"
                                  : "exact_gram_dense_input";
      Report(op, s, "star", r);
      json.Add({.op = op,
                .n = sn,
                .d = sd,
                .s = s,
                .l = sd,
                .threads = threads,
                .wall_ms = r.wall_ms,
                .words = r.words,
                .wire_bytes = r.wire_bytes,
                .topology = "star",
                .coord_wire_bytes = r.coord_wire_bytes});
    }
  }

  // Chaos at scale: interior-node deaths plus flaky links under tree(8).
  // Re-parenting keeps every surviving subtree's contribution; the
  // degraded bound widens by exactly the dead nodes' local masses.
  bench::Section("chaos at scale (tree(8), interior deaths)");
  {
    const size_t s = smoke ? 64 : 256;
    Cluster cluster = bench::MakeCluster(a, s, eps);
    FaultConfig config;
    config.default_profile.drop_prob = 0.02;
    config.default_profile.truncate_prob = 0.01;
    // Interior merge nodes of the contiguous tree(8): block heads.
    // Die after the mass-report round (reports are ~1 virtual time unit
    // each, plus timeout on faulted attempts) but during the uplink
    // stages, so the accounting stays finite while re-parenting runs.
    config.per_server[8].die_at_time = 90.0;
    config.per_server[16].die_at_time = 75.0;
    config.seed = 4242;
    cluster.InstallFaultPlan(config);
    FdMergeProtocol fd({.eps = eps,
                        .k = 0,
                        .topology = MergeTopologyOptions::Tree(8)});
    const RunResult r = RunProtocol(fd, cluster, reps);
    Report("fd_merge_tree_chaos", s, "tree8", r);
    std::printf("  lost servers: %zu, bound widening: %.3f\n",
                r.lost_servers, r.bound_widening);
    json.Add({.op = "fd_merge_tree_chaos",
              .n = n,
              .d = d,
              .s = s,
              .l = static_cast<size_t>(1.0 / eps) + 2,
              .threads = threads,
              .wall_ms = r.wall_ms,
              .words = r.words,
              .wire_bytes = r.wire_bytes,
              .topology = "tree8",
              .coord_wire_bytes = r.coord_wire_bytes});
  }

  std::printf("\nratios at s=%zu: fd inbound %.1fx wall %.2fx | gram "
              "inbound %.1fx wall %.2fx | sparse gram %.1fx\n",
              s_gate, ratios.fd_inbound, ratios.fd_wall, ratios.gram_inbound,
              ratios.gram_wall, ratios.sparse_gram);

  if (!gates) return 0;
  gates->Check(inbound_key, ratios.fd_inbound,
               "fd_merge coord inbound star/tree");
  gates->Check(inbound_key, ratios.gram_inbound,
               "exact_gram coord inbound star/tree");
  gates->Check(wall_key, ratios.fd_wall, "fd_merge wall star/tree");
  gates->Check(wall_key, ratios.gram_wall, "exact_gram wall star/tree");
  gates->Check(sparse_key, ratios.sparse_gram, "gram kernel dense/sparse");
  return gates->exit_code();
}
