#include "dist/exact_gram_protocol.h"

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
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
  CommLog& log = cluster.log();
  const bool ft = cluster.fault_mode();
  log.BeginRound();

  SketchProtocolResult result;
  if (!options_.topology.is_star()) {
    // Communication-avoiding path: Gram addition is associative, so
    // interior servers sum partial Grams and forward one upper triangle;
    // the coordinator receives top_width messages instead of s.
    DS_ASSIGN_OR_RETURN(MergeTopology topo,
                        MergeTopology::Build(s, options_.topology));
    // A leaf (no topology children) builds its Gram at its stage in a
    // per-thread scratch and packs it straight into its uplink; only a
    // node that absorbs uplinks keeps a d-by-d Gram for the run, its own
    // rows' Gram first, then its children's in arrival order. Those
    // Grams and every uplink payload buffer are allocated here, on the
    // calling thread, so which heap holds them does not depend on the
    // pool's schedule (the CountSketch protocol follows the same rule).
    std::vector<Matrix> grams(s);
    std::vector<size_t> receivers;
    std::vector<std::vector<uint8_t>> uplink_payloads(s);
    for (size_t i = 0; i < s; ++i) {
      if (!topo.node(i).children.empty()) {
        grams[i].SetZero(d, d);
        receivers.push_back(i);
      }
      uplink_payloads[i].reserve(wire::DensePayloadBytes(1, d * (d + 1) / 2));
    }
    ThreadPool::Global().ParallelFor(receivers.size(), [&](size_t k) {
      const size_t i = receivers[k];
      LocalGramInto(cluster.server(i), static_cast<int64_t>(i), d, grams[i]);
    });
    Matrix total_gram(d, d);
    TreeReduceHooks hooks;
    hooks.absorb = [&](int node,
                       const std::vector<uint8_t>& payload) -> Status {
      Matrix& dst = (node == kCoordinator)
                        ? total_gram
                        : grams[static_cast<size_t>(node)];
      return wire::AddSymmetricPayloadInto(payload.data(), payload.size(), d,
                                           &dst);
    };
    hooks.make_message = [&](int node) -> StatusOr<wire::Message> {
      const size_t i = static_cast<size_t>(node);
      if (!topo.node(i).children.empty()) {
        wire::Message uplink = wire::SymmetricMessage(
            "local_gram", grams[i], std::move(uplink_payloads[i]));
        grams[i] = Matrix();  // nothing absorbs into it after this stage
        return uplink;
      }
      thread_local Matrix scratch;
      LocalGramInto(cluster.server(i), node, d, scratch);
      return wire::SymmetricMessage("local_gram", scratch,
                                    std::move(uplink_payloads[i]));
    };
    hooks.local_mass = [&](int node) {
      return ft ? cluster.server(static_cast<size_t>(node))
                      .squared_frobenius_norm()
                : 0.0;
    };
    DS_ASSIGN_OR_RETURN(TreeReduceStats tree_stats,
                        RunTreeReduce(cluster, topo, hooks, result.degraded));
    (void)tree_stats;
    DS_ASSIGN_OR_RETURN(result.sketch, GramToSketch(total_gram));
    result.comm = log.Stats();
    result.sketch_rows = result.sketch.rows();
    return result;
  }

  // Parallel phase: local d-by-d Grams and, in fault mode, the local
  // masses. The Grams are allocated here, on the calling thread in server
  // order, and the pool only fills them (the tree path's rule), so which
  // heap holds them does not depend on the pool's schedule.
  std::vector<Matrix> grams(s);
  for (Matrix& g : grams) g.SetZero(d, d);
  std::vector<double> masses(s, 0.0);
  ThreadPool::Global().ParallelFor(s, [&](size_t i) {
    const Server& server = cluster.server(i);
    LocalGramInto(server, static_cast<int64_t>(i), d, grams[i]);
    if (ft) masses[i] = server.squared_frobenius_norm();
  });

  // Serial phase: sends and the coordinator's sum, in server-index order.
  Matrix total_gram(d, d);
  for (size_t i = 0; i < s; ++i) {
    const int id = static_cast<int>(i);
    // Symmetric payload: upper triangle only, packed as a flat row so
    // the measured wire words equal the analytic d(d+1)/2.
    wire::Message msg = wire::SymmetricMessage("local_gram", grams[i]);
    DS_CHECK(msg.words == d * (d + 1) / 2);
    ServerSendResult sent = SendWithMassAccounting(
        cluster, id, kCoordinator, msg, result.degraded, masses[i],
        /*mass_known_if_lost=*/false, /*prepend_mass_report=*/ft);
    if (!sent.delivered) continue;
    DS_RETURN_IF_ERROR(wire::AddSymmetricPayloadInto(
        sent.payload.data(), sent.payload.size(), d, &total_gram));
  }

  DS_ASSIGN_OR_RETURN(result.sketch, GramToSketch(total_gram));
  result.comm = log.Stats();
  result.sketch_rows = result.sketch.rows();
  return result;
}

}  // namespace distsketch
