#include "pca/sketch_and_solve.h"

#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dist/protocol.h"
#include "linalg/spectral_kernel.h"
#include "pca/distributed_power_iteration.h"
#include "sketch/adaptive_sketch.h"
#include "workload/row_stream.h"

namespace distsketch {
namespace {

CommStats AddStats(const CommStats& a, const CommStats& b) {
  CommStats out;
  out.total_words = a.total_words + b.total_words;
  out.total_bits = a.total_bits + b.total_bits;
  out.num_messages = a.num_messages + b.num_messages;
  out.num_rounds = a.num_rounds + b.num_rounds;
  return out;
}

}  // namespace

StatusOr<PcaResult> SketchAndSolvePca::Run(Cluster& cluster) {
  DS_RETURN_IF_ERROR(RequireRowPartition(cluster, Name()));
  cluster.ResetLog();
  if (options_.k < 1) {
    return Status::InvalidArgument("SketchAndSolvePca: k < 1");
  }
  const size_t d = cluster.dim();
  const size_t s = cluster.num_servers();
  CommLog& log = cluster.log();
  // Lemma 8 needs a strong (eps/2, k)-sketch.
  const double sketch_eps = options_.eps / 2.0;

  // Pass + tail-mass agreement (rounds 1-2 of §3.2).
  std::vector<AdaptiveLocalSketch> locals;
  locals.reserve(s);
  for (size_t i = 0; i < s; ++i) {
    DS_ASSIGN_OR_RETURN(
        AdaptiveLocalSketch local,
        AdaptiveLocalSketch::Create(d, sketch_eps, options_.k,
                                    Rng::DeriveSeed(options_.seed, i)));
    RowStream stream = cluster.server(i).OpenStream();
    while (stream.HasNext()) local.Append(stream.Next());
    locals.push_back(std::move(local));
  }
  log.BeginRound();
  double global_tail_mass = 0.0;
  for (size_t i = 0; i < s; ++i) {
    global_tail_mass += locals[i].FinishAndReportTailMass();
    log.Record(static_cast<int>(i), kCoordinator, "tail_mass", 1);
  }
  log.BeginRound();
  log.RecordBroadcast(s, "global_tail_mass", 1);

  // Q^(i) stays local for now.
  std::vector<Matrix> parts;
  parts.reserve(s);
  uint64_t total_sketch_rows = 0;
  for (size_t i = 0; i < s; ++i) {
    DS_ASSIGN_OR_RETURN(Matrix q_i,
                        locals[i].CompressWithGlobalTailMass(
                            global_tail_mass, s, options_.delta));
    total_sketch_rows += q_i.rows();
    parts.push_back(std::move(q_i));
  }

  // Choose the solve mode: collect costs rows(Q)*d; the distributed
  // solver costs ~ 2*rounds*s*d*(k+p) + s*(k/eps^2)*min(d, k/eps^2).
  SolveMode mode = options_.mode;
  if (mode == SolveMode::kAuto) {
    const double collect_cost =
        static_cast<double>(total_sketch_rows) * static_cast<double>(d);
    const double keps2 = static_cast<double>(options_.k) /
                         (options_.eps * options_.eps);
    const size_t rounds = std::max<size_t>(
        2, static_cast<size_t>(
               std::ceil(std::log2(static_cast<double>(d) + 1.0))));
    const double solve_cost =
        2.0 * static_cast<double>(rounds) * static_cast<double>(s) *
            static_cast<double>(d) * static_cast<double>(options_.k + 8) +
        static_cast<double>(s) * keps2 *
            std::min(static_cast<double>(d), keps2);
    mode = (collect_cost <= solve_cost) ? SolveMode::kCollect
                                        : SolveMode::kDistributedSolve;
    // The row-count agreement that informs the choice: one word each way.
    log.BeginRound();
    for (size_t i = 0; i < s; ++i) {
      log.Record(static_cast<int>(i), kCoordinator, "sketch_row_count", 1);
    }
  }

  PcaResult result;
  if (mode == SolveMode::kCollect) {
    log.BeginRound();
    Matrix q(0, d);
    for (size_t i = 0; i < s; ++i) {
      if (parts[i].rows() == 0) continue;
      log.Record(static_cast<int>(i), kCoordinator, "sketch_part",
                 cluster.cost_model().MatrixWords(parts[i].rows(), d));
      q.AppendRows(parts[i]);
    }
    if (q.rows() == 0) {
      result.components.SetZero(d, 0);
    } else {
      // Only the top-k right singular vectors are needed; the spectral
      // kernel never forms U and takes the Gram route when the collected
      // sketch is tall.
      DS_ASSIGN_OR_RETURN(SpectralResult spec, ComputeSigmaVt(q));
      result.components = spec.TopRightSingularVectors(options_.k);
    }
    result.comm = log.Stats();
    return result;
  }

  // Distributed solve: the batch comparator runs over the sketch parts —
  // a second simulated cluster whose traffic we add to this run's.
  DS_ASSIGN_OR_RETURN(Cluster sketch_cluster,
                      Cluster::Create(std::move(parts), options_.eps));
  PowerIterationPcaOptions solver_options;
  solver_options.k = options_.k;
  solver_options.eps = options_.eps;
  solver_options.seed = Rng::DeriveSeed(options_.seed, 0x50CAull);
  DistributedPowerIterationPca solver(solver_options);
  DS_ASSIGN_OR_RETURN(PcaResult solved, solver.Run(sketch_cluster));

  result.components = std::move(solved.components);
  result.comm = AddStats(log.Stats(), solved.comm);
  return result;
}

}  // namespace distsketch
