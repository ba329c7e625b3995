#include "pca/distributed_power_iteration.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.h"
#include "dist/protocol.h"
#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "linalg/qr.h"
#include "linalg/svd.h"
#include "sketch/frequent_directions.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

// Shared-seed Gaussian d-by-b start block; every server can generate it
// locally, so only the seed travels.
Matrix SharedSeedGaussian(size_t rows, size_t cols, uint64_t seed) {
  return GenerateGaussian(rows, cols, 1.0, seed);
}

}  // namespace

StatusOr<PcaResult> DistributedPowerIterationPca::Run(Cluster& cluster) {
  DS_RETURN_IF_ERROR(RequireRowPartition(cluster, Name()));
  cluster.ResetLog();
  if (options_.k < 1) {
    return Status::InvalidArgument("DistributedPowerIterationPca: k < 1");
  }
  if (options_.eps <= 0.0 || options_.eps >= 1.0) {
    return Status::InvalidArgument(
        "DistributedPowerIterationPca: eps not in (0,1)");
  }
  const size_t d = cluster.dim();
  const size_t s = cluster.num_servers();
  const size_t b = std::min(d, options_.k + options_.oversample);
  const size_t rounds =
      options_.rounds > 0
          ? options_.rounds
          : std::max<size_t>(
                2, static_cast<size_t>(
                       std::ceil(std::log2(static_cast<double>(d) + 1.0))));
  CommLog& log = cluster.log();

  // Phase 1: block subspace iteration. Initial block from a shared seed
  // (one word broadcast).
  log.BeginRound();
  log.RecordBroadcast(s, "g0_seed", 1);
  DS_ASSIGN_OR_RETURN(
      Matrix g,
      OrthonormalizeColumns(SharedSeedGaussian(d, b, options_.seed)));

  for (size_t r = 0; r < rounds; ++r) {
    log.BeginRound();
    if (r > 0) {
      // Rounds after the first must ship the current iterate out.
      log.RecordBroadcast(s, "iterate", d * b);
    }
    Matrix f(d, b);
    for (size_t i = 0; i < s; ++i) {
      const Matrix& local = cluster.server(i).local_rows();
      if (local.rows() == 0) continue;
      const Matrix ag = Multiply(local, g);            // n_i x b
      const Matrix atag = MultiplyTransposeA(local, ag);  // d x b
      log.Record(static_cast<int>(i), kCoordinator, "gram_times_g", d * b);
      f = Add(f, atag);
    }
    DS_ASSIGN_OR_RETURN(g, OrthonormalizeColumns(f));
  }

  // Rotation: servers send the projected Grams G^T A^(i)T A^(i) G.
  log.BeginRound();
  log.RecordBroadcast(s, "final_iterate", d * b);
  Matrix h(b, b);
  for (size_t i = 0; i < s; ++i) {
    const Matrix& local = cluster.server(i).local_rows();
    if (local.rows() == 0) continue;
    const Matrix ag = Multiply(local, g);  // n_i x b
    const Matrix hi = Gram(ag);            // b x b
    log.Record(static_cast<int>(i), kCoordinator, "projected_gram",
               b * b);
    h = Add(h, hi);
  }
  DS_ASSIGN_OR_RETURN(SymmetricEigenResult eig, ComputeSymmetricEigen(h));
  // V = G * (top-k eigenvectors of H).
  Matrix rot(b, options_.k);
  for (size_t j = 0; j < options_.k && j < b; ++j) {
    for (size_t i = 0; i < b; ++i) rot(i, j) = eig.eigenvectors(i, j);
  }
  Matrix v = Multiply(g, rot);

  // Phase 2: eps-refinement with the [5]-shaped payload.
  if (options_.refine) {
    log.BeginRound();
    const size_t r_rows = static_cast<size_t>(
        std::ceil(static_cast<double>(options_.k) /
                  (options_.eps * options_.eps)));
    const size_t m_cols = std::min(d, r_rows);
    if (m_cols == d) {
      // Fully real path: merge per-server FD sketches of k/eps^2 rows and
      // solve PCA on the merged sketch.
      FrequentDirections merged(d, std::max<size_t>(r_rows, options_.k + 1));
      for (size_t i = 0; i < s; ++i) {
        const Matrix& local = cluster.server(i).local_rows();
        if (local.rows() == 0) continue;
        FrequentDirections fd(d, std::max<size_t>(r_rows, options_.k + 1));
        fd.AppendRows(local);
        const Matrix sketch = fd.Sketch();
        log.Record(static_cast<int>(i), kCoordinator, "refine_sketch",
                   cluster.cost_model().MatrixWords(sketch.rows(), d));
        merged.AppendRows(sketch);
      }
      const Matrix q = merged.Sketch();
      if (q.rows() > 0) {
        DS_ASSIGN_OR_RETURN(SvdResult svd, ComputeSvd(q));
        v = svd.TopRightSingularVectors(options_.k);
      }
    } else {
      // d > k/eps^2: [5] compresses columns to k/eps^2 dimensions. We
      // send the compressed payload (metered traffic) and keep phase 1's
      // answer; see the class comment and DESIGN.md.
      const Matrix t = SharedSeedGaussian(
          d, m_cols, Rng::DeriveSeed(options_.seed, 0x7777));
      for (size_t i = 0; i < s; ++i) {
        const Matrix& local = cluster.server(i).local_rows();
        if (local.rows() == 0) continue;
        FrequentDirections fd(d, std::max<size_t>(r_rows, options_.k + 1));
        fd.AppendRows(local);
        const Matrix compressed = Multiply(fd.Sketch(), t);
        log.Record(static_cast<int>(i), kCoordinator,
                   "refine_sketch_compressed",
                   cluster.cost_model().MatrixWords(compressed.rows(),
                                                    m_cols));
      }
    }
  }

  PcaResult result;
  result.components = std::move(v);
  result.comm = log.Stats();
  return result;
}

}  // namespace distsketch
