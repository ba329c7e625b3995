#include "query/distributed_ridge.h"

#include <algorithm>
#include <vector>

#include "dist/adaptive_sketch_protocol.h"
#include "dist/protocol.h"
#include "linalg/blas.h"
#include "query/covariance_query.h"
#include "sketch/error_metrics.h"

namespace distsketch {

StatusOr<DistributedRidgeResult> DistributedRidge(
    Cluster& cluster, const DistributedRidgeOptions& options) {
  DS_RETURN_IF_ERROR(RequireRowPartition(cluster, "DistributedRidge"));
  if (options.lambda <= 0.0) {
    return Status::InvalidArgument("DistributedRidge: lambda must be > 0");
  }
  if (cluster.dim() < 2) {
    return Status::InvalidArgument(
        "DistributedRidge: need at least 1 feature + target column");
  }
  const size_t d = cluster.dim() - 1;  // last column is the target
  const size_t s = cluster.num_servers();

  // Split every server's rows into features and target, locally.
  std::vector<Matrix> features(s);
  std::vector<double> atb(d, 0.0);
  for (size_t i = 0; i < s; ++i) {
    const Matrix& rows = cluster.server(i).local_rows();
    features[i].SetZero(rows.rows(), d);
    for (size_t r = 0; r < rows.rows(); ++r) {
      const double y = rows(r, d);
      for (size_t c = 0; c < d; ++c) {
        features[i](r, c) = rows(r, c);
        atb[c] += rows(r, c) * y;  // local X^T y contribution
      }
    }
  }

  // The feature sub-cluster runs the Theorem 7 sketch protocol.
  DS_ASSIGN_OR_RETURN(Cluster feature_cluster,
                      Cluster::Create(std::move(features), options.eps));
  AdaptiveSketchProtocol sketch_protocol({.eps = options.eps,
                                          .k = options.k,
                                          .delta = 0.1,
                                          .seed = options.seed});
  DS_ASSIGN_OR_RETURN(SketchProtocolResult sketch,
                      sketch_protocol.Run(feature_cluster));

  // One more round: exact X^T y aggregation (d words per server).
  CommLog& log = feature_cluster.log();
  log.BeginRound();
  for (size_t i = 0; i < s; ++i) {
    log.Record(static_cast<int>(i), kCoordinator, "xty", d);
  }

  DistributedRidgeResult result;
  if (sketch.sketch.rows() == 0) {
    // Degenerate: all-zero features; ridge solution is zero.
    result.weights.assign(d, 0.0);
    result.comm = log.Stats();
    return result;
  }

  // Certified budget: the (3 eps, k) guarantee of Theorem 7 is
  // 3 eps ||X - [X]_k||_F^2 / k. The coordinator does not see X, but the
  // sketch's own tail energy is a sound proxy (||B - [B]_k||_F^2 <=
  // (1 + eps) ||X - [X]_k||_F^2 by Lemma 5, and the concatenated-sketch
  // tail tracks the data tail the same way).
  const double budget = 3.0 * options.eps *
                        OptimalTailEnergy(sketch.sketch, options.k) /
                        static_cast<double>(std::max<size_t>(options.k, 1));
  CovarianceQueryEngine engine(std::move(sketch.sketch), budget);
  DS_ASSIGN_OR_RETURN(result.weights,
                      engine.RidgeSolve(atb, options.lambda));
  result.relative_error_bound =
      engine.RidgeRelativeErrorBound(options.lambda);
  result.comm = log.Stats();
  return result;
}

}  // namespace distsketch
