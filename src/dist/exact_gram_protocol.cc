#include "dist/exact_gram_protocol.h"

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "dist/protocol_telemetry.h"
#include "dist/tree_reduce.h"
#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "telemetry/span.h"
#include "wire/codec.h"
#include "wire/message.h"

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

/// Writes `server`'s local Gram into `g`, a zeroed d-by-d matrix: the
/// O(n_i d^2) hot loop, or O(nnz_i d) through the CSR kernel when the
/// server carries a sparse view. Bit-identical to Gram(local rows).
void LocalGramInto(const Server& server, int64_t id, Matrix& g) {
  telemetry::Span span("exact_gram/local_gram", telemetry::Phase::kCompute);
  span.SetAttr("server", id);
  const Matrix& local = server.local_rows();
  span.SetAttr("kernel", server.has_sparse() ? "sparse" : "dense");
  if (local.rows() == 0) return;
  if (server.has_sparse()) {
    server.sparse().GramInto(g);
  } else {
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
  // Grams and forward one upper triangle (a star is the depth-1 case),
  // packed as a flat row so the measured wire words equal the analytic
  // d(d+1)/2.
  SketchProtocolResult result;
  DS_ASSIGN_OR_RETURN(MergeTopology topo,
                      MergeTopology::Build(s, options_.topology));
  SumReduceHooks hooks;
  hooks.rows = d;
  hooks.cols = d;
  hooks.payload_bytes = wire::DensePayloadBytes(1, d * (d + 1) / 2);
  hooks.fill = [&](int node, Matrix& gram) {
    LocalGramInto(cluster.server(static_cast<size_t>(node)), node, gram);
    return Status::OK();
  };
  hooks.encode = [](const Matrix& sum, std::vector<uint8_t> buffer) {
    return wire::SymmetricMessage("local_gram", sum, std::move(buffer));
  };
  hooks.add = [d](const std::vector<uint8_t>& payload, Matrix& sum) {
    return wire::AddSymmetricPayloadInto(payload.data(), payload.size(), d,
                                         &sum);
  };
  DS_ASSIGN_OR_RETURN(Matrix total_gram,
                      RunSumReduce(cluster, topo, hooks, result.degraded));
  DS_ASSIGN_OR_RETURN(result.sketch, GramToSketch(total_gram));
  result.comm = cluster.log().Stats();
  result.sketch_rows = result.sketch.rows();
  return result;
}

}  // namespace distsketch
