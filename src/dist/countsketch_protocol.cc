#include "dist/countsketch_protocol.h"

#include <string>
#include <utility>
#include <vector>

#include "dist/protocol_telemetry.h"
#include "dist/tree_reduce.h"
#include "sketch/countsketch.h"
#include "telemetry/span.h"
#include "wire/codec.h"
#include "wire/message.h"
#include "workload/row_stream.h"

namespace distsketch {

StatusOr<SketchProtocolResult> CountSketchProtocol::Run(Cluster& cluster) {
  cluster.ResetLog();
  ProtocolRunScope run_scope(cluster, Name());
  const size_t d = cluster.dim();
  const size_t s = cluster.num_servers();
  CommLog& log = cluster.log();
  log.BeginRound();

  if (options_.eps <= 0.0 || options_.oversample <= 0.0) {
    return Status::InvalidArgument(
        "countsketch: eps and oversample must be > 0");
  }
  const size_t m = CountSketchBuckets(options_.eps, options_.oversample);
  const bool additive = cluster.partition() == PartitionModel::kAdditive;

  DS_ASSIGN_OR_RETURN(MergeTopology topo,
                      MergeTopology::Build(s, options_.topology));

  SketchProtocolResult result;

  // Seed downlink, reverse topology order: the coordinator sends the
  // 1-word seed to the top layer only; interior nodes forward it to
  // their children. Every server receives the seed exactly once, and the
  // coordinator's outbound traffic is top_width words instead of s. A
  // dead forwarder is routed around exactly like a dead merge target:
  // the next live ancestor (or the coordinator) sends instead.
  std::vector<uint64_t> seeds(s, 0);
  std::vector<uint8_t> seeded(s, 0);
  {
    telemetry::Span span("countsketch/seed_downlink",
                         telemetry::Phase::kComm);
    const auto& stages = topo.stages();
    wire::Message seed_msg = wire::SeedMessage("cs_seed", options_.seed);
    for (size_t r = stages.size(); r-- > 0;) {
      for (int node : stages[r]) {
        if (cluster.ServerLost(node)) continue;
        int src = topo.node(static_cast<size_t>(node)).parent;
        while (src != kCoordinator &&
               (cluster.ServerLost(src) || !seeded[static_cast<size_t>(src)])) {
          src = topo.node(static_cast<size_t>(src)).parent;
        }
        SendOutcome out = cluster.Send(src, node, seed_msg);
        if (!out.delivered) continue;  // loss accounted at reduce time
        DS_ASSIGN_OR_RETURN(seeds[static_cast<size_t>(node)],
                            wire::DecodeSeedPayload(out.payload));
        seeded[static_cast<size_t>(node)] = 1;
      }
    }
  }

  // Local compute: each seeded server streams its rows through a
  // compressor under the decoded seed — sparse rows through the O(nnz)
  // scatter kernel when a CSR view is attached. Hash index of local row
  // r: base | r, with base = server << 32 under kRows (distinct across
  // servers, stable under re-partitioning by whole shards; local counts
  // stay far below 2^32) and 0 under kAdditive (shares of row r agree).
  // An unseeded server leaves its zeroed m-by-d matrix zero. Bucket
  // matrices add (linearity), so RunSumReduce sums them up the topology.
  SumReduceHooks hooks;
  hooks.rows = m;
  hooks.cols = d;
  hooks.payload_bytes = wire::DensePayloadBytes(m, d);
  hooks.fill = [&](int node, Matrix& buckets) -> Status {
    const size_t i = static_cast<size_t>(node);
    if (!seeded[i]) return Status::OK();
    telemetry::Span span("countsketch/local_compress",
                         telemetry::Phase::kCompute);
    span.SetAttr("server", static_cast<int64_t>(i));
    const Server& server = cluster.server(i);
    const uint64_t base = additive ? 0 : static_cast<uint64_t>(i) << 32;
    span.SetAttr("kernel", server.has_sparse() ? "sparse" : "dense");
    DS_ASSIGN_OR_RETURN(
        CountSketchCompressor compressor,
        CountSketchCompressor::FromState({seeds[i], std::move(buckets)}));
    if (server.has_sparse()) {
      const CsrMatrix& csr = server.sparse();
      for (size_t r = 0; r < csr.rows(); ++r) {
        compressor.AbsorbSparse(base | r, csr.RowIndices(r),
                                csr.RowValues(r));
      }
    } else {
      RowStream stream = server.OpenStream();
      for (size_t r = 0; stream.HasNext(); ++r) {
        compressor.Absorb(base | r, stream.Next());
      }
    }
    buckets = std::move(compressor).TakeCompressed();
    return Status::OK();
  };
  hooks.encode = [](const Matrix& sum, std::vector<uint8_t> buffer) {
    return wire::DenseMessage("local_cs", sum, std::move(buffer));
  };
  hooks.add = [](const std::vector<uint8_t>& payload, Matrix& sum) {
    return wire::AddMatrixPayloadInto(payload.data(), payload.size(), &sum);
  };
  // An unseeded server contributes nothing, so it reports no mass.
  hooks.local_mass = [&](int node) {
    const size_t i = static_cast<size_t>(node);
    return seeded[i] ? cluster.server(i).squared_frobenius_norm() : 0.0;
  };
  DS_ASSIGN_OR_RETURN(result.sketch,
                      RunSumReduce(cluster, topo, hooks, result.degraded));
  if (additive && result.degraded.degraded()) {
    return Status::Unavailable(
        "countsketch: share " +
        std::to_string(result.degraded.lost_servers.front()) +
        " permanently lost; the additive sum is unrecoverable");
  }

  result.comm = log.Stats();
  result.sketch_rows = result.sketch.rows();
  return result;
}

}  // namespace distsketch
