#include "dist/exact_gram_protocol.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "dist/protocol_telemetry.h"
#include "dist/tree_reduce.h"
#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "telemetry/span.h"

namespace distsketch {
namespace {

/// Coordinator finish: B = sqrt(Lambda) V^T from the eigendecomposition
/// of the (exact) Gram sum. Shared by every topology — the sum is the
/// same matrix, however it was aggregated.
StatusOr<Matrix> GramToSketch(const Matrix& total_gram) {
  telemetry::Span eig_span("exact_gram/coordinator_eig",
                           telemetry::Phase::kCompute);
  const size_t d = total_gram.rows();
  DS_ASSIGN_OR_RETURN(SymmetricEigenResult eig,
                      ComputeSymmetricEigen(total_gram));
  Matrix sketch;
  sketch.SetZero(0, d);
  std::vector<double> row(d);
  for (size_t j = 0; j < eig.eigenvalues.size(); ++j) {
    const double lambda = eig.eigenvalues[j];
    if (lambda <= 0.0) break;  // sorted non-increasing
    const double sigma = std::sqrt(lambda);
    for (size_t i = 0; i < d; ++i) row[i] = sigma * eig.eigenvectors(i, j);
    sketch.AppendRow(row);
  }
  return sketch;
}

/// Writes `server`'s local d-by-d Gram into `g`, reusing its storage: the
/// O(n_i d^2) hot loop, or O(nnz_i d) through the CSR kernel when the
/// server carries a sparse view. Bit-identical to Gram(local rows).
void LocalGramInto(const Server& server, int64_t id, size_t d, Matrix& g) {
  telemetry::Span span("exact_gram/local_gram", telemetry::Phase::kCompute);
  span.SetAttr("server", id);
  const Matrix& local = server.local_rows();
  span.SetAttr("kernel", server.has_sparse() ? "sparse" : "dense");
  if (local.rows() == 0) {
    g.SetZero(d, d);
  } else if (server.has_sparse()) {
    server.sparse().GramInto(g);
  } else {
    g.SetZero(d, d);
    GramAccumulate(local, g);
  }
}

}  // namespace

StatusOr<SketchProtocolResult> ExactGramProtocol::Run(Cluster& cluster) {
  DS_RETURN_IF_ERROR(RequireRowPartition(cluster, Name()));
  cluster.ResetLog();
  ProtocolRunScope run_scope(cluster, Name());
  const size_t d = cluster.dim();
  const size_t s = cluster.num_servers();
  cluster.log().BeginRound();

  // Gram addition is associative: a tree's interior servers sum partial
  // Grams and forward one upper triangle (a star is the depth-1 case).
  SketchProtocolResult result;
  DS_ASSIGN_OR_RETURN(MergeTopology topo,
                      MergeTopology::Build(s, options_.topology));
  // A leaf (no topology children) builds its Gram at its stage in a
  // borrowed scratch Gram and packs it straight into its uplink; only a
  // node that absorbs uplinks keeps a d-by-d Gram for the run, its own
  // rows' Gram first, then its children's in arrival order. Every Gram
  // and uplink payload buffer is allocated on the calling thread, so
  // which heap holds it does not depend on the pool's schedule (the
  // CountSketch protocol follows the same rule). The scratch Grams, one
  // per pool lane (at most that many leaves build at once), are the
  // calling thread's, kept across runs.
  thread_local std::vector<Matrix> callers_scratch;
  std::vector<Matrix>& scratch_grams = callers_scratch;  // not the lane's
  scratch_grams.resize(
      std::max(scratch_grams.size(), ThreadPool::GlobalThreads()));
  for (Matrix& g : scratch_grams) g.SetZero(d, d);
  std::mutex scratch_mu;
  std::vector<Matrix> grams(s);
  std::vector<std::vector<uint8_t>> uplink_payloads(s);
  for (size_t i = 0; i < s; ++i) {
    if (!topo.node(i).children.empty()) grams[i].SetZero(d, d);
    uplink_payloads[i].reserve(wire::DensePayloadBytes(1, d * (d + 1) / 2));
  }
  ThreadPool::Global().ParallelFor(s, [&](size_t i) {
    if (grams[i].empty()) return;
    LocalGramInto(cluster.server(i), static_cast<int64_t>(i), d, grams[i]);
  });
  Matrix total_gram(d, d);
  TreeReduceHooks hooks;
  hooks.absorb = [&](int node, const std::vector<uint8_t>& payload) -> Status {
    Matrix& dst =
        (node == kCoordinator) ? total_gram : grams[static_cast<size_t>(node)];
    return wire::AddSymmetricPayloadInto(payload.data(), payload.size(), d,
                                         &dst);
  };
  // Symmetric payload: upper triangle only, packed as a flat row so the
  // measured wire words equal the analytic d(d+1)/2.
  hooks.make_message = [&](int node) -> StatusOr<wire::Message> {
    const size_t i = static_cast<size_t>(node);
    if (!topo.node(i).children.empty()) {
      wire::Message uplink = wire::SymmetricMessage(
          "local_gram", grams[i], std::move(uplink_payloads[i]));
      grams[i] = Matrix();  // nothing absorbs into it after this stage
      return uplink;
    }
    Matrix scratch;
    {
      std::lock_guard<std::mutex> lock(scratch_mu);
      scratch = std::move(scratch_grams.back());
      scratch_grams.pop_back();
    }
    LocalGramInto(cluster.server(i), node, d, scratch);
    wire::Message uplink = wire::SymmetricMessage(
        "local_gram", scratch, std::move(uplink_payloads[i]));
    std::lock_guard<std::mutex> lock(scratch_mu);
    scratch_grams.push_back(std::move(scratch));
    return uplink;
  };
  DS_RETURN_IF_ERROR(
      RunTreeReduce(cluster, topo, hooks, result.degraded).status());
  DS_ASSIGN_OR_RETURN(result.sketch, GramToSketch(total_gram));
  result.comm = cluster.log().Stats();
  result.sketch_rows = result.sketch.rows();
  return result;
}

}  // namespace distsketch
