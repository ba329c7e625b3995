#include "dist/svs_protocol.h"

#include <memory>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "dist/protocol_telemetry.h"
#include "linalg/blas.h"
#include "sketch/svs.h"
#include "telemetry/span.h"
#include "wire/sketch_serde.h"

namespace distsketch {

namespace {

// Per-server round-1/2 outcome codes stored in checkpoint extra row 1.
// Values are frozen (they live in v1 checkpoint blobs).
constexpr uint8_t kServerLostMassUnknown = 0;  // lost in round 1
constexpr uint8_t kServerActive = 1;
constexpr uint8_t kServerLostMassKnown = 2;  // lost in round 2

}  // namespace

StatusOr<SketchProtocolResult> SvsProtocol::Run(Cluster& cluster) {
  DS_RETURN_IF_ERROR(RequireRowPartition(cluster, Name()));
  cluster.ResetLog();
  ProtocolRunScope run_scope(cluster, Name());
  const size_t d = cluster.dim();
  const size_t s = cluster.num_servers();
  CommLog& log = cluster.log();
  SketchProtocolResult result;
  result.sketch.SetZero(0, d);
  // The coordinator keeps the restored partial sketch and each decoded
  // part, and stacks them only to checkpoint and once at the end.
  std::vector<Matrix> parts;
  const auto stacked = [&] {
    return parts.empty() ? result.sketch : ConcatRows(parts);
  };

  double global_mass = 0.0;
  std::vector<double> masses(s, 0.0);
  std::vector<uint8_t> server_state(s, kServerActive);
  std::vector<uint8_t> done(s, 0);

  DS_ASSIGN_OR_RETURN(
      std::optional<wire::CoordinatorCheckpoint> restored,
      LoadCheckpoint(options_.checkpoint, kCheckpointProtocolSvs, s));
  if (restored.has_value()) {
    // Rounds 1 and 2 already ran before the checkpoint: restore the
    // broadcast mass, the per-server outcomes, and the partial sketch,
    // and go straight to round 3 for the servers not yet folded in.
    if (restored->extra.rows() != 2 || restored->extra.cols() != s) {
      return Status::InvalidArgument(
          "svs checkpoint: malformed per-server state matrix");
    }
    done = restored->done;
    global_mass = restored->global_scalar;
    for (size_t i = 0; i < s; ++i) {
      masses[i] = restored->extra(0, i);
      server_state[i] = static_cast<uint8_t>(restored->extra(1, i));
      if (server_state[i] == kServerLostMassUnknown) {
        result.degraded.RecordLoss(static_cast<int>(i), 0.0, false);
      } else if (server_state[i] == kServerLostMassKnown) {
        result.degraded.RecordLoss(static_cast<int>(i), masses[i], true);
      }
    }
    if (!restored->sketch_blob.empty()) {
      DS_ASSIGN_OR_RETURN(
          wire::CompactSketch compact,
          wire::CompactSketch::Wrap(restored->sketch_blob.data(),
                                    restored->sketch_blob.size()));
      DS_ASSIGN_OR_RETURN(wire::SvsSketchState partial,
                          compact.ToSvsState());
      parts.push_back(std::move(partial.sketch));
    }
    if (global_mass <= 0.0) {
      result.comm = log.Stats();
      return result;
    }
  } else {
    // Round 1: local Frobenius masses (each server's, computed once at
    // cluster construction), reported in server-index order. The
    // coordinator's global mass (and therefore the shared sampling
    // function) is built from the reports that actually arrive; a server
    // lost here never participates and its mass is unknown.
    log.BeginRound();
    for (size_t i = 0; i < s; ++i) {
      masses[i] = cluster.server(i).squared_frobenius_norm();
      const wire::Message report =
          wire::ScalarMessage("local_mass", masses[i]);
      ServerSendResult sent = SendWithMassAccounting(
          cluster, static_cast<int>(i), kCoordinator, report,
          result.degraded, masses[i], /*mass_known_if_lost=*/false);
      if (sent.delivered) {
        // The coordinator accumulates the mass it decoded off the wire.
        DS_ASSIGN_OR_RETURN(const double reported,
                            wire::DecodeScalarPayload(sent.payload));
        global_mass += reported;
      } else {
        server_state[i] = kServerLostMassUnknown;
      }
    }
    if (global_mass <= 0.0) {
      result.comm = log.Stats();
      return result;
    }

    // Round 2: broadcast the global mass (fixes g on every server). A
    // server the broadcast cannot reach is lost with known mass.
    log.BeginRound();
    const wire::Message broadcast =
        wire::ScalarMessage("global_mass", global_mass);
    for (size_t i = 0; i < s; ++i) {
      if (server_state[i] != kServerActive) continue;
      ServerSendResult sent = SendWithMassAccounting(
          cluster, kCoordinator, static_cast<int>(i), broadcast,
          result.degraded, masses[i], /*mass_known_if_lost=*/true);
      if (!sent.delivered) {
        server_state[i] = kServerLostMassKnown;
        continue;
      }
      // The dense codec is a byte copy, so the broadcast value survives
      // the wire bit-exactly; every server fixes the same g.
      DS_ASSIGN_OR_RETURN(const double received,
                          wire::DecodeScalarPayload(sent.payload));
      DS_CHECK(received == global_mass);
    }
  }

  SamplingFunctionParams params;
  params.num_servers = s;
  params.alpha = options_.alpha;
  params.total_frobenius = global_mass;
  params.dim = d;
  params.delta = options_.delta;
  DS_ASSIGN_OR_RETURN(std::unique_ptr<SamplingFunction> g,
                      MakeSamplingFunction(options_.kind, params));

  // Round 3: local SVS runs concurrently — every server's sampling draws
  // from its own derived seed, so the sketches are independent of the
  // schedule — then the sampled rows go to the coordinator in index
  // order. Inactive and already-checkpointed servers produce an empty
  // slot and send nothing; because the per-server seed depends only on
  // options_.seed and the index, a resumed run redraws the same rows.
  // Each Svs call routes through the spectral kernel (Gram accumulation +
  // d-by-d eigensolve for these tall inputs); inside this ParallelMap the
  // kernel detects the enclosing parallel region and runs its serial
  // schedule, which produces the same bits as its threaded one.
  log.BeginRound();
  struct SvsSlot {
    bool ran = false;
    Status status;
    SvsResult svs;
  };
  std::vector<SvsSlot> slots = ParallelMap<SvsSlot>(s, [&](size_t i) {
    SvsSlot slot;
    if (done[i] || server_state[i] != kServerActive) return slot;
    const Matrix& local = cluster.server(i).local_rows();
    if (local.rows() == 0) return slot;
    telemetry::Span span("svs/local_svs", telemetry::Phase::kCompute);
    span.SetAttr("server", static_cast<int64_t>(i));
    span.SetAttr("rows", static_cast<uint64_t>(local.rows()));
    auto svs = Svs(local, *g, Rng::DeriveSeed(options_.seed, i));
    slot.status = svs.status();
    if (svs.ok()) {
      slot.ran = true;
      slot.svs = std::move(*svs);
    }
    return slot;
  });
  size_t processed = 0;
  for (size_t i = 0; i < s; ++i) {
    if (done[i] || server_state[i] != kServerActive) continue;
    const bool has_rows = cluster.server(i).local_rows().rows() > 0;
    if (has_rows && !slots[i].status.ok()) return slots[i].status;
    if (has_rows && slots[i].ran && slots[i].svs.sketch.rows() > 0) {
      const SvsResult& svs = slots[i].svs;
      wire::Message msg = wire::DenseMessage("svs_rows", svs.sketch);
      DS_CHECK(msg.words ==
               cluster.cost_model().MatrixWords(svs.sketch.rows(), d));
      // A round-3 loss keeps state kServerActive and stays un-done: a
      // resumed run retries the send with the same derived seed.
      ServerSendResult sent = SendWithMassAccounting(
          cluster, static_cast<int>(i), kCoordinator, msg, result.degraded,
          masses[i], /*mass_known_if_lost=*/true);
      if (!sent.delivered) continue;
      DS_ASSIGN_OR_RETURN(wire::DecodedMatrix received,
                          wire::DecodeMessagePayload(sent.payload));
      parts.push_back(std::move(received.matrix));
    }
    done[i] = 1;  // delivered, or nothing to send
    ++processed;
    if (options_.checkpoint.enabled()) {
      wire::CoordinatorCheckpoint checkpoint;
      checkpoint.protocol_id = kCheckpointProtocolSvs;
      checkpoint.servers_total = s;
      checkpoint.done = done;
      checkpoint.global_scalar = global_mass;
      checkpoint.extra.SetZero(2, s);
      for (size_t j = 0; j < s; ++j) {
        checkpoint.extra(0, j) = masses[j];
        checkpoint.extra(1, j) = static_cast<double>(server_state[j]);
      }
      wire::SvsSketchState partial;
      partial.sketch = stacked();
      partial.seed = options_.seed;
      checkpoint.sketch_blob = wire::SerializeSketchState(partial);
      DS_RETURN_IF_ERROR(SaveCheckpoint(options_.checkpoint, checkpoint));
    }
    if (processed >= options_.checkpoint.halt_after_servers) {
      result.halted = true;
      break;
    }
  }

  result.sketch = stacked();
  result.comm = log.Stats();
  result.sketch_rows = result.sketch.rows();
  return result;
}

}  // namespace distsketch
