#include "dist/low_rank_exact_protocol.h"

#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "dist/protocol_telemetry.h"
#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "linalg/pinv.h"
#include "linalg/row_basis.h"
#include "telemetry/span.h"
#include "workload/row_stream.h"

namespace distsketch {

namespace {

// Per-server local computation: one pass over the local rows building the
// row basis Q, the projected second moment Z in the orthonormal basis V,
// and finally G = Q A^T A Q^T. Pure function of the server's partition —
// runs concurrently across servers.
struct LowRankLocal {
  bool overflowed = false;
  Matrix q;     // selected basis rows (m-by-d)
  Matrix g;     // projected Gram (m-by-m)
  double mass = 0.0;
};

LowRankLocal ComputeLowRankLocal(const Server& server, size_t d,
                                 size_t max_rank, bool want_mass) {
  LowRankLocal out;
  RowBasisBuilder builder(d, max_rank);
  Matrix z(0, 0);
  RowStream stream = server.OpenStream();
  while (stream.HasNext()) {
    auto row = stream.Next();
    const size_t old_rank = builder.rank();
    builder.Offer(row);
    if (builder.overflowed()) {
      out.overflowed = true;
      return out;
    }
    const size_t rank = builder.rank();
    if (rank > old_rank) {
      // Basis grew: pad Z with a zero row/column (exact, since all
      // previous rows lie in the old span).
      Matrix grown(rank, rank);
      for (size_t a = 0; a < old_rank; ++a) {
        for (size_t b = 0; b < old_rank; ++b) grown(a, b) = z(a, b);
      }
      z = std::move(grown);
    }
    if (rank == 0) continue;
    // Z += (V u)(V u)^T.
    const std::vector<double> coords =
        MatVec(builder.orthonormal_basis(), row);
    for (size_t a = 0; a < rank; ++a) {
      for (size_t b = 0; b < rank; ++b) {
        z(a, b) += coords[a] * coords[b];
      }
    }
  }

  out.q = builder.selected_rows();
  if (out.q.rows() > 0) {
    // G = Q A^T A Q^T = (Q V^T) Z (Q V^T)^T, computed locally.
    const Matrix qvt =
        MultiplyTransposeB(out.q, builder.orthonormal_basis());
    out.g = Multiply(Multiply(qvt, z), Transpose(qvt));
  }
  if (want_mass) out.mass = server.squared_frobenius_norm();
  return out;
}

}  // namespace

StatusOr<SketchProtocolResult> LowRankExactProtocol::Run(Cluster& cluster) {
  DS_RETURN_IF_ERROR(RequireRowPartition(cluster, Name()));
  cluster.ResetLog();
  if (options_.k < 1) {
    return Status::InvalidArgument("LowRankExactProtocol: k < 1");
  }
  ProtocolRunScope run_scope(cluster, "low_rank_exact");
  const size_t d = cluster.dim();
  const size_t s = cluster.num_servers();
  const size_t max_rank = std::min(2 * options_.k, d);
  CommLog& log = cluster.log();
  const bool ft = cluster.fault_mode();
  log.BeginRound();

  SketchProtocolResult result;
  // Parallel phase: every server's basis/projected-Gram pass.
  std::vector<LowRankLocal> locals =
      ParallelMap<LowRankLocal>(s, [&](size_t i) {
        telemetry::Span span("low_rank/local_basis",
                             telemetry::Phase::kCompute);
        span.SetAttr("server", static_cast<int64_t>(i));
        return ComputeLowRankLocal(cluster.server(i), d, max_rank, ft);
      });

  // Serial phase: transfers and the coordinator-side accumulation, in
  // server-index order. The overflow error is raised at the same point
  // of the transcript as the old interleaved loop: after this server's
  // mass report, before any of its payload sends.
  Matrix total_cov(d, d);
  for (size_t i = 0; i < s; ++i) {
    const int id = static_cast<int>(i);
    if (ft && !ReportLocalMass(cluster, id, locals[i].mass, result.degraded)) {
      continue;
    }
    if (locals[i].overflowed) {
      return Status::FailedPrecondition(
          "LowRankExactProtocol: local rank exceeds 2k; use the rounding "
          "path (§3.3 case 2)");
    }

    const size_t m = locals[i].q.rows();
    if (m == 0) continue;

    // Wire: the basis rows (original input entries) plus the m-by-m
    // Gram. Both must arrive; losing either discards the contribution.
    wire::Message basis_msg = wire::DenseMessage("row_basis", locals[i].q);
    DS_CHECK(basis_msg.words == cluster.cost_model().MatrixWords(m, d));
    ServerSendResult basis_sent = SendWithMassAccounting(
        cluster, id, kCoordinator, basis_msg, result.degraded, locals[i].mass,
        /*mass_known_if_lost=*/ft);
    if (!basis_sent.delivered) continue;
    wire::Message gram_msg =
        wire::DenseMessage("projected_gram", locals[i].g);
    DS_CHECK(gram_msg.words == cluster.cost_model().MatrixWords(m, m));
    ServerSendResult gram_sent = SendWithMassAccounting(
        cluster, id, kCoordinator, gram_msg, result.degraded, locals[i].mass,
        /*mass_known_if_lost=*/ft);
    if (!gram_sent.delivered) continue;

    // Coordinator side, from the decoded payloads:
    // A^(i)T A^(i) = Q^+ G Q^{+T}.
    DS_ASSIGN_OR_RETURN(wire::DecodedMatrix q_recv,
                        wire::DecodeMessagePayload(basis_sent.payload));
    DS_ASSIGN_OR_RETURN(wire::DecodedMatrix g_recv,
                        wire::DecodeMessagePayload(gram_sent.payload));
    DS_ASSIGN_OR_RETURN(Matrix q_pinv, PseudoInverse(q_recv.matrix));
    const Matrix local_cov =
        Multiply(Multiply(q_pinv, g_recv.matrix), Transpose(q_pinv));
    for (size_t j = 0; j < total_cov.size(); ++j) {
      total_cov.data()[j] += local_cov.data()[j];
    }
  }

  // Coordinator output: exact covariance square root.
  DS_ASSIGN_OR_RETURN(SymmetricEigenResult eig,
                      ComputeSymmetricEigen(total_cov));
  result.sketch.SetZero(0, d);
  std::vector<double> row(d);
  for (size_t j = 0; j < eig.eigenvalues.size(); ++j) {
    if (eig.eigenvalues[j] <= 1e-12 * std::max(1.0, eig.eigenvalues[0])) {
      break;
    }
    const double sigma = std::sqrt(eig.eigenvalues[j]);
    for (size_t a = 0; a < d; ++a) row[a] = sigma * eig.eigenvectors(a, j);
    result.sketch.AppendRow(row);
  }
  result.comm = log.Stats();
  result.sketch_rows = result.sketch.rows();
  return result;
}

}  // namespace distsketch
