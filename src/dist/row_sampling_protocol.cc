#include "dist/row_sampling_protocol.h"

#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "dist/protocol_telemetry.h"
#include "linalg/blas.h"
#include "sketch/row_sampling.h"
#include "telemetry/span.h"
#include "workload/row_stream.h"

namespace distsketch {

StatusOr<SketchProtocolResult> RowSamplingProtocol::Run(Cluster& cluster) {
  DS_RETURN_IF_ERROR(RequireRowPartition(cluster, Name()));
  cluster.ResetLog();
  if (options_.eps <= 0.0 || options_.oversample <= 0.0) {
    return Status::InvalidArgument("RowSamplingProtocol: bad options");
  }
  ProtocolRunScope run_scope(cluster, Name());
  const size_t d = cluster.dim();
  const size_t s = cluster.num_servers();
  const size_t t = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(options_.oversample / (options_.eps * options_.eps))));
  CommLog& log = cluster.log();

  // Pass: every server fills t weighted reservoirs over its local stream.
  std::vector<RowSamplingSketch> local;
  local.reserve(s);
  for (size_t i = 0; i < s; ++i) {
    telemetry::Span span("row_sampling/local_reservoir",
                         telemetry::Phase::kCompute);
    span.SetAttr("server", static_cast<int64_t>(i));
    local.emplace_back(d, t, Rng::DeriveSeed(options_.seed, i));
    RowStream stream = cluster.server(i).OpenStream();
    while (stream.HasNext()) local.back().Append(stream.Next());
  }

  // Round 1: local masses to the coordinator (real encoded scalars; the
  // coordinator accumulates what it decodes).
  log.BeginRound();
  SketchProtocolResult result;
  double global_mass = 0.0;
  std::vector<double> masses(s);
  std::vector<bool> active(s, false);
  for (size_t i = 0; i < s; ++i) {
    masses[i] = local[i].total_mass();
    const wire::Message report = wire::ScalarMessage("local_mass", masses[i]);
    ServerSendResult sent = SendWithMassAccounting(
        cluster, static_cast<int>(i), kCoordinator, report, result.degraded,
        masses[i], /*mass_known_if_lost=*/false);
    if (!sent.delivered) continue;
    active[i] = true;
    DS_ASSIGN_OR_RETURN(const double reported,
                        wire::DecodeScalarPayload(sent.payload));
    global_mass += reported;
  }

  result.sketch.SetZero(0, d);
  if (global_mass <= 0.0) {
    result.comm = log.Stats();
    return result;
  }

  // Round 2: coordinator draws the multinomial split of t samples across
  // servers (each of the t global samples independently picks server i
  // with probability mass_i / global_mass) and replies with the count and
  // the global mass in one two-word payload.
  log.BeginRound();
  Rng coord_rng(Rng::DeriveSeed(options_.seed, 0xC00Dull));
  std::vector<size_t> counts(s, 0);
  for (size_t j = 0; j < t; ++j) {
    double u = coord_rng.NextDouble() * global_mass;
    size_t pick = s - 1;
    for (size_t i = 0; i < s; ++i) {
      if (!active[i]) continue;
      if (u < masses[i]) {
        pick = i;
        break;
      }
      u -= masses[i];
    }
    ++counts[pick];
  }
  std::vector<double> received_mass(s, 0.0);
  std::vector<size_t> received_count(s, 0);
  for (size_t i = 0; i < s; ++i) {
    if (!active[i]) continue;
    const wire::Message split = wire::ScalarsMessage(
        "sample_count+mass", {static_cast<double>(counts[i]), global_mass});
    ServerSendResult sent = SendWithMassAccounting(
        cluster, kCoordinator, static_cast<int>(i), split,
        result.degraded, masses[i], /*mass_known_if_lost=*/true);
    if (!sent.delivered) {
      active[i] = false;
      continue;
    }
    DS_ASSIGN_OR_RETURN(wire::DecodedMatrix reply,
                        wire::DecodeMessagePayload(sent.payload));
    DS_CHECK(reply.matrix.size() == 2);
    received_count[i] = static_cast<size_t>(reply.matrix.data()[0]);
    received_mass[i] = reply.matrix.data()[1];
  }

  // Round 3: servers rescale their first m_i reservoir rows with the
  // global mass they received (so that E[B^T B] = A^T A) and ship them;
  // the coordinator keeps what it decodes and stacks it once at the end.
  log.BeginRound();
  std::vector<double> scaled(d);
  std::vector<Matrix> parts;
  for (size_t i = 0; i < s; ++i) {
    if (!active[i]) continue;
    Matrix rows(0, d);
    size_t taken = 0;
    for (size_t r = 0; r < t && taken < received_count[i]; ++r) {
      if (!local[i].HasSample(r)) continue;
      const double p = local[i].SampleWeight(r) / received_mass[i];
      const double scale = 1.0 / std::sqrt(static_cast<double>(t) * p);
      auto row = local[i].SampleRow(r);
      for (size_t j = 0; j < d; ++j) scaled[j] = scale * row[j];
      rows.AppendRow(scaled);
      ++taken;
    }
    if (taken > 0) {
      wire::Message msg = wire::DenseMessage("sampled_rows", rows);
      DS_CHECK(msg.words == cluster.cost_model().MatrixWords(taken, d));
      ServerSendResult sent = SendWithMassAccounting(
          cluster, static_cast<int>(i), kCoordinator, msg, result.degraded,
          masses[i], /*mass_known_if_lost=*/true);
      if (!sent.delivered) continue;
      DS_ASSIGN_OR_RETURN(wire::DecodedMatrix received,
                          wire::DecodeMessagePayload(sent.payload));
      parts.push_back(std::move(received.matrix));
    }
  }
  if (!parts.empty()) result.sketch = ConcatRows(parts);

  result.comm = log.Stats();
  result.sketch_rows = result.sketch.rows();
  return result;
}

}  // namespace distsketch
