#include "dist/fd_merge_protocol.h"

#include <optional>
#include <utility>
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
  CommLog& log = cluster.log();
  const bool ft = cluster.fault_mode();
  log.BeginRound();

  SketchProtocolResult result;
  // Validates the options once; the per-server sketches below use the
  // same parameters and therefore cannot fail.
  DS_ASSIGN_OR_RETURN(FrequentDirections merged, MakeFd(d, options_));

  if (!options_.topology.is_star()) {
    // Communication-avoiding path: uplinks climb an aggregation tree and
    // interior servers shrink-merge in place (FD mergeability), so the
    // coordinator receives top_width sketches instead of s. Quantize and
    // checkpoint are star-transcript features (leaf-to-coordinator wire
    // formats / coordinator-sequential restart points) and stay gated.
    if (options_.quantize) {
      return Status::InvalidArgument(
          "fd_merge: quantize requires the star topology");
    }
    if (options_.checkpoint.enabled() ||
        options_.checkpoint.halt_after_servers < s) {
      return Status::InvalidArgument(
          "fd_merge: checkpoint/restart requires the star topology");
    }
    DS_ASSIGN_OR_RETURN(MergeTopology topo,
                        MergeTopology::Build(s, options_.topology));

    // Per-node accumulators: seeded with the local rows here, children's
    // sketches folded in by the driver's absorb hook at merge time.
    std::vector<FrequentDirections> acc;
    acc.reserve(s);
    for (size_t i = 0; i < s; ++i) {
      auto fd = MakeFd(d, options_);
      DS_CHECK(fd.ok());  // options validated above
      acc.push_back(std::move(fd).value());
    }
    std::vector<double> masses(s, 0.0);
    ParallelMap<int>(s, [&](size_t i) {
      telemetry::Span span("fd_merge/local_sketch",
                           telemetry::Phase::kCompute);
      span.SetAttr("server", static_cast<int64_t>(i));
      RowStream stream = cluster.server(i).OpenStream();
      while (stream.HasNext()) acc[i].Append(stream.Next());
      if (ft) masses[i] = cluster.server(i).squared_frobenius_norm();
      return 0;
    });

    TreeReduceHooks hooks;
    hooks.absorb = [&](int node,
                       const std::vector<uint8_t>& payload) -> Status {
      wire::DecodedMatrix received;
      DS_ASSIGN_OR_RETURN(received, wire::DecodeMessagePayload(payload));
      if (node == kCoordinator) {
        merged.AppendRows(received.matrix);
      } else {
        acc[static_cast<size_t>(node)].AppendRows(received.matrix);
      }
      return Status::OK();
    };
    hooks.make_message = [&](int node) -> StatusOr<wire::Message> {
      return wire::DenseMessage("local_sketch",
                                acc[static_cast<size_t>(node)].Sketch());
    };
    hooks.local_mass = [&](int node) {
      return masses[static_cast<size_t>(node)];
    };
    DS_ASSIGN_OR_RETURN(TreeReduceStats tree_stats,
                        RunTreeReduce(cluster, topo, hooks, result.degraded));
    (void)tree_stats;
    result.sketch = merged.Sketch();
    result.comm = log.Stats();
    result.sketch_rows = result.sketch.rows();
    return result;
  }

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

  // Parallel phase: every server compresses its local rows concurrently.
  // This is pure computation — no sends, no shared state — so the result
  // slots are bit-identical for any thread count. (FD's shrinks route
  // through the spectral kernel, which runs its fixed serial schedule
  // when nested inside this ParallelMap — same bits either way.) Local
  // masses are computed alongside (only transmitted in fault mode).
  struct LocalWork {
    Matrix sketch;
    double mass = 0.0;
  };
  std::vector<LocalWork> locals = ParallelMap<LocalWork>(s, [&](size_t i) {
    LocalWork w;
    if (done[i]) return w;  // already in the restored coordinator state
    telemetry::Span span("fd_merge/local_sketch", telemetry::Phase::kCompute);
    span.SetAttr("server", static_cast<int64_t>(i));
    auto local = MakeFd(d, options_);
    DS_CHECK(local.ok());
    RowStream stream = cluster.server(i).OpenStream();
    while (stream.HasNext()) local->Append(stream.Next());
    w.sketch = local->Sketch();
    if (ft) w.mass = cluster.server(i).squared_frobenius_norm();
    return w;
  });

  // Serial phase: transfers and the coordinator merge run in server-index
  // order, so the wire transcript and the merged sketch are independent
  // of the parallel schedule above. Returns whether the server's sketch
  // reached the coordinator (lost servers stay un-done and are retried
  // by a resumed run).
  auto process = [&](size_t i) -> StatusOr<bool> {
    const int id = static_cast<int>(i);
    const Matrix& sketch = locals[i].sketch;
    wire::Message msg;
    if (options_.quantize && sketch.rows() > 0) {
      const double precision = SketchRoundingPrecision(
          cluster.total_rows(), d, options_.eps);
      DS_ASSIGN_OR_RETURN(QuantizeResult q,
                          QuantizeMatrix(sketch, precision));
      DS_ASSIGN_OR_RETURN(
          msg, wire::QuantizedMessage("local_sketch_q", q,
                                      cluster.cost_model().bits_per_word()));
      DS_CHECK(msg.words == cluster.cost_model().BitsToWords(q.total_bits));
    } else {
      msg = wire::DenseMessage("local_sketch", sketch);
      DS_CHECK(msg.words ==
               cluster.cost_model().MatrixWords(sketch.rows(), d));
    }
    // Fault-tolerant runs prepend the 1-word mass report so the
    // coordinator can widen its bound honestly if this server is lost.
    ServerSendResult sent = SendWithMassAccounting(
        cluster, id, kCoordinator, msg, result.degraded, locals[i].mass,
        /*mass_known_if_lost=*/false, /*prepend_mass_report=*/ft);
    if (!sent.delivered) return false;
    // The coordinator merges what it decoded off the wire, not the
    // sender's in-memory sketch.
    DS_ASSIGN_OR_RETURN(wire::DecodedMatrix received,
                        wire::DecodeMessagePayload(sent.payload));
    telemetry::Span merge_span("fd_merge/coordinator_merge",
                               telemetry::Phase::kCompute);
    merge_span.SetAttr("server", static_cast<int64_t>(i));
    merged.AppendRows(received.matrix);
    return true;
  };

  size_t processed = 0;
  for (size_t i = 0; i < s; ++i) {
    if (done[i]) continue;
    DS_ASSIGN_OR_RETURN(const bool folded, process(i));
    if (folded) done[i] = 1;
    ++processed;
    if (options_.checkpoint.enabled()) {
      // Checkpoint the pre-finalization buffer: the final Sketch() call
      // below is the only step a resumed run repeats, exactly as an
      // uninterrupted run performs it once at the end.
      wire::CoordinatorCheckpoint checkpoint;
      checkpoint.protocol_id = kCheckpointProtocolFdMerge;
      checkpoint.servers_total = s;
      checkpoint.done = done;
      checkpoint.sketch_blob = wire::SerializeSketch(merged);
      DS_RETURN_IF_ERROR(SaveCheckpoint(options_.checkpoint, checkpoint));
    }
    if (processed >= options_.checkpoint.halt_after_servers) {
      result.halted = true;
      break;
    }
  }

  result.sketch = merged.Sketch();
  result.comm = log.Stats();
  result.sketch_rows = result.sketch.rows();
  return result;
}

}  // namespace distsketch
