#include "dist/adaptive_sketch_protocol.h"

#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "dist/protocol_telemetry.h"
#include "linalg/blas.h"
#include "sketch/adaptive_sketch.h"
#include "sketch/quantizer.h"
#include "telemetry/span.h"
#include "workload/row_stream.h"

namespace distsketch {

StatusOr<SketchProtocolResult> AdaptiveSketchProtocol::Run(Cluster& cluster) {
  DS_RETURN_IF_ERROR(RequireRowPartition(cluster, Name()));
  cluster.ResetLog();
  ProtocolRunScope run_scope(cluster, Name());
  const size_t d = cluster.dim();
  const size_t s = cluster.num_servers();
  CommLog& log = cluster.log();
  const bool ft = cluster.fault_mode();
  SketchProtocolResult result;

  // Validate the options once so the per-server Create calls below (same
  // parameters, different seeds) cannot fail inside the parallel region.
  DS_RETURN_IF_ERROR(
      AdaptiveLocalSketch::Create(d, options_.eps, options_.k, options_.seed)
          .status());

  // Parallel pass: every server streams its rows through FD, splits
  // head/tail, and computes the masses it will later report. Each
  // server's SVS stage draws from its own derived seed, so concurrency
  // cannot perturb the numbers; the FD/Decomp factorizations route
  // through the spectral kernel, whose nested (serial-schedule) path is
  // bit-identical to its threaded one.
  struct LocalSlot {
    std::optional<AdaptiveLocalSketch> sketch;
    double tail_mass = 0.0;
    double mass = 0.0;  // full Frobenius mass (fault mode only)
  };
  std::vector<LocalSlot> locals = ParallelMap<LocalSlot>(s, [&](size_t i) {
    LocalSlot slot;
    telemetry::Span span("adaptive/local_stream", telemetry::Phase::kCompute);
    span.SetAttr("server", static_cast<int64_t>(i));
    auto local =
        AdaptiveLocalSketch::Create(d, options_.eps, options_.k,
                                    Rng::DeriveSeed(options_.seed, i));
    DS_CHECK(local.ok());
    RowStream stream = cluster.server(i).OpenStream();
    while (stream.HasNext()) local->Append(stream.Next());
    slot.tail_mass = local->FinishAndReportTailMass();
    slot.sketch = std::move(*local);
    if (ft) slot.mass = cluster.server(i).squared_frobenius_norm();
    return slot;
  });

  // Round 1: tail masses (fault-tolerant runs prepend the 1-word full
  // Frobenius mass report that funds honest bound widening on loss).
  log.BeginRound();
  double global_tail_mass = 0.0;
  std::vector<double> masses(s, 0.0);
  std::vector<bool> active(s, false);
  for (size_t i = 0; i < s; ++i) {
    const int id = static_cast<int>(i);
    masses[i] = locals[i].mass;
    const wire::Message report =
        wire::ScalarMessage("tail_mass", locals[i].tail_mass);
    ServerSendResult tail_sent = SendWithMassAccounting(
        cluster, id, kCoordinator, report, result.degraded, masses[i],
        /*mass_known_if_lost=*/false, /*prepend_mass_report=*/ft);
    if (tail_sent.delivered) {
      active[i] = true;
      DS_ASSIGN_OR_RETURN(const double reported,
                          wire::DecodeScalarPayload(tail_sent.payload));
      global_tail_mass += reported;
    }
  }

  // Round 2: broadcast the global tail mass (fixes g everywhere). Each
  // server compresses against the value it decoded off the wire.
  log.BeginRound();
  std::vector<double> received_tail(s, 0.0);
  const wire::Message broadcast =
      wire::ScalarMessage("global_tail_mass", global_tail_mass);
  for (size_t i = 0; i < s; ++i) {
    if (!active[i]) continue;
    ServerSendResult sent = SendWithMassAccounting(
        cluster, kCoordinator, static_cast<int>(i), broadcast,
        result.degraded, masses[i], /*mass_known_if_lost=*/ft);
    if (!sent.delivered) {
      active[i] = false;
      continue;
    }
    DS_ASSIGN_OR_RETURN(received_tail[i],
                        wire::DecodeScalarPayload(sent.payload));
    DS_CHECK(received_tail[i] == global_tail_mass);
  }

  // Round 3: every active server compresses its tail against the global
  // tail mass concurrently (per-server state, per-server seeds), then
  // Q^(i) = [T^(i); W^(i)] goes to the coordinator in index order. The
  // coordinator keeps each decoded part and stacks them once at the end.
  log.BeginRound();
  result.sketch.SetZero(0, d);
  std::vector<Matrix> parts;
  struct CompressSlot {
    Status status;
    Matrix q;
  };
  std::vector<CompressSlot> compressed =
      ParallelMap<CompressSlot>(s, [&](size_t i) {
        CompressSlot slot;
        if (!active[i]) return slot;
        telemetry::Span span("adaptive/local_compress",
                             telemetry::Phase::kCompute);
        span.SetAttr("server", static_cast<int64_t>(i));
        auto q = locals[i].sketch->CompressWithGlobalTailMass(
            received_tail[i], s, options_.delta, options_.kind);
        slot.status = q.status();
        if (q.ok()) slot.q = std::move(*q);
        return slot;
      });
  for (size_t i = 0; i < s; ++i) {
    if (!active[i]) continue;
    const int id = static_cast<int>(i);
    if (!compressed[i].status.ok()) return compressed[i].status;
    const Matrix& q_i = compressed[i].q;
    if (q_i.rows() == 0) continue;
    wire::Message msg;
    if (options_.quantize) {
      const double precision =
          SketchRoundingPrecision(cluster.total_rows(), d, options_.eps);
      DS_ASSIGN_OR_RETURN(QuantizeResult qr, QuantizeMatrix(q_i, precision));
      DS_ASSIGN_OR_RETURN(
          msg, wire::QuantizedMessage("local_q_sketch_q", qr,
                                      cluster.cost_model().bits_per_word()));
      DS_CHECK(msg.words == cluster.cost_model().BitsToWords(qr.total_bits));
    } else {
      msg = wire::DenseMessage("local_q_sketch", q_i);
      DS_CHECK(msg.words == cluster.cost_model().MatrixWords(q_i.rows(), d));
    }
    ServerSendResult sent = SendWithMassAccounting(
        cluster, id, kCoordinator, msg, result.degraded, masses[i],
        /*mass_known_if_lost=*/ft);
    if (!sent.delivered) continue;
    DS_ASSIGN_OR_RETURN(wire::DecodedMatrix received,
                        wire::DecodeMessagePayload(sent.payload));
    parts.push_back(std::move(received.matrix));
  }
  if (!parts.empty()) result.sketch = ConcatRows(parts);

  if (options_.recompress && result.sketch.rows() > 0) {
    telemetry::Span span("adaptive/recompress", telemetry::Phase::kCompute);
    span.SetAttr("rows", static_cast<uint64_t>(result.sketch.rows()));
    DS_ASSIGN_OR_RETURN(
        Matrix compressed,
        RecompressSketch(result.sketch, options_.eps, options_.k));
    result.sketch = std::move(compressed);
  }

  result.comm = log.Stats();
  result.sketch_rows = result.sketch.rows();
  return result;
}

}  // namespace distsketch
