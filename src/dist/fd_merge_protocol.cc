#include "dist/fd_merge_protocol.h"

#include <optional>
#include <vector>

#include "common/thread_pool.h"
#include "dist/protocol_telemetry.h"
#include "dist/tree_reduce.h"
#include "sketch/frequent_directions.h"
#include "sketch/quantizer.h"
#include "telemetry/span.h"
#include "wire/sketch_serde.h"
#include "workload/row_stream.h"

namespace distsketch {
namespace {

StatusOr<FrequentDirections> MakeFd(size_t dim, const FdMergeOptions& opt) {
  if (opt.k == 0) {
    return FrequentDirections::FromEps(dim, opt.eps);
  }
  return FrequentDirections::FromEpsK(dim, opt.eps, opt.k);
}

}  // namespace

StatusOr<SketchProtocolResult> FdMergeProtocol::Run(Cluster& cluster) {
  DS_RETURN_IF_ERROR(RequireRowPartition(cluster, Name()));
  cluster.ResetLog();
  ProtocolRunScope run_scope(cluster, Name());
  const size_t d = cluster.dim();
  const size_t s = cluster.num_servers();
  cluster.log().BeginRound();

  SketchProtocolResult result;
  // Validates the options once; the per-server sketches below use the
  // same parameters and therefore cannot fail.
  DS_ASSIGN_OR_RETURN(FrequentDirections merged, MakeFd(d, options_));

  if (!options_.topology.is_star()) {
    // An interior node would round again what it absorbed, and no bound
    // accounts for that second rounding yet.
    if (options_.quantize) {
      return Status::InvalidArgument(
          "fd_merge: quantize requires the star topology");
    }
    // The done bitmap names the coordinator's own senders only; it cannot
    // represent contributors a dead interior node re-parented to it.
    if (options_.checkpoint.enabled() ||
        options_.checkpoint.halt_after_servers < s) {
      return Status::InvalidArgument(
          "fd_merge: checkpoint/restart requires the star topology");
    }
  }
  DS_ASSIGN_OR_RETURN(MergeTopology topo,
                      MergeTopology::Build(s, options_.topology));

  // Checkpoint restore: the done bitmap marks servers already folded
  // into the saved partial sketch; this run skips them, so the merge
  // order over the full run sequence matches an uninterrupted run.
  std::vector<uint8_t> done(s, 0);
  DS_ASSIGN_OR_RETURN(
      std::optional<wire::CoordinatorCheckpoint> restored,
      LoadCheckpoint(options_.checkpoint, kCheckpointProtocolFdMerge, s));
  if (restored.has_value()) {
    done = restored->done;
    if (!restored->sketch_blob.empty()) {
      DS_ASSIGN_OR_RETURN(
          wire::CompactSketch compact,
          wire::CompactSketch::Wrap(restored->sketch_blob.data(),
                                    restored->sketch_blob.size()));
      DS_ASSIGN_OR_RETURN(merged, compact.ToFrequentDirections());
    }
  }

  // Only a node that absorbs uplinks keeps an FD accumulator, seeded with
  // its local rows here; a leaf sketches its rows inside make_message.
  // (FD's shrinks run the spectral kernel's fixed serial schedule inside
  // the pool and its parallel one in a replay outside it: same bits.)
  auto sketch_local = [&](size_t i, FrequentDirections& fd) {
    telemetry::Span span("fd_merge/local_sketch", telemetry::Phase::kCompute);
    span.SetAttr("server", static_cast<int64_t>(i));
    RowStream stream = cluster.server(i).OpenStream();
    while (stream.HasNext()) fd.Append(stream.Next());
  };
  std::vector<std::optional<FrequentDirections>> acc(s);
  for (size_t i = 0; i < s; ++i) {
    if (!topo.node(i).children.empty()) acc[i] = MakeFd(d, options_).value();
  }
  ThreadPool::Global().ParallelFor(s, [&](size_t i) {
    if (acc[i].has_value()) sketch_local(i, *acc[i]);
  });

  // §3.3: a quantized sketch is rounded per entry and metered in exact
  // bits (the word-complexity version of Thm 2).
  const double precision =
      SketchRoundingPrecision(cluster.total_rows(), d, options_.eps);
  auto encode = [&](const Matrix& sketch) -> StatusOr<wire::Message> {
    if (!options_.quantize || sketch.rows() == 0) {
      return wire::DenseMessage("local_sketch", sketch);
    }
    DS_ASSIGN_OR_RETURN(QuantizeResult q, QuantizeMatrix(sketch, precision));
    return wire::QuantizedMessage("local_sketch_q", q,
                                  cluster.cost_model().bits_per_word());
  };

  TreeReduceHooks hooks;
  // Receivers merge what they decoded off the wire, not the sender's
  // in-memory sketch.
  hooks.absorb = [&](int node, const std::vector<uint8_t>& payload) -> Status {
    DS_ASSIGN_OR_RETURN(wire::DecodedMatrix received,
                        wire::DecodeMessagePayload(payload));
    if (node != kCoordinator) {
      acc[static_cast<size_t>(node)]->AppendRows(received.matrix);
      return Status::OK();
    }
    telemetry::Span span("fd_merge/coordinator_merge",
                         telemetry::Phase::kCompute);
    merged.AppendRows(received.matrix);
    return Status::OK();
  };
  hooks.make_message = [&](int node) -> StatusOr<wire::Message> {
    const size_t i = static_cast<size_t>(node);
    if (acc[i].has_value()) return encode(acc[i]->Sketch());
    FrequentDirections local = MakeFd(d, options_).value();
    sketch_local(i, local);
    return encode(local.Sketch());
  };
  hooks.skip = [&](int node) { return done[static_cast<size_t>(node)] != 0; };
  // After each server: checkpoint the pre-finalization buffer (the final
  // Sketch() below is the only step a resumed run repeats, as an
  // uninterrupted run performs it once at the end). A lost server stays
  // un-done, and a resumed run retries it.
  size_t settled = 0;
  hooks.settled = [&](int node, bool absorbed) -> StatusOr<bool> {
    if (absorbed) done[static_cast<size_t>(node)] = 1;
    if (options_.checkpoint.enabled()) {
      wire::CoordinatorCheckpoint checkpoint;
      checkpoint.protocol_id = kCheckpointProtocolFdMerge;
      checkpoint.servers_total = s;
      checkpoint.done = done;
      checkpoint.sketch_blob = wire::SerializeSketch(merged);
      DS_RETURN_IF_ERROR(SaveCheckpoint(options_.checkpoint, checkpoint));
    }
    return ++settled >= options_.checkpoint.halt_after_servers;
  };
  DS_ASSIGN_OR_RETURN(TreeReduceStats tree_stats,
                      RunTreeReduce(cluster, topo, hooks, result.degraded));
  result.halted = tree_stats.halted;
  result.sketch = merged.Sketch();
  result.comm = cluster.log().Stats();
  result.sketch_rows = result.sketch.rows();
  return result;
}

}  // namespace distsketch
