#include "dist/countsketch_protocol.h"

#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
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
  const bool ft = cluster.fault_mode();
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

  // Local compute: each seeded server streams its rows through the
  // compressor under the decoded seed — sparse rows through the O(nnz)
  // scatter kernel when a CSR view is attached. Hash index of local row
  // r: base | r, with base = server << 32 under kRows (distinct across
  // servers, stable under re-partitioning by whole shards; local counts
  // stay far below 2^32) and 0 under kAdditive (shares of row r agree).
  //
  // The compressors (and so the accumulators) are allocated here, on the
  // calling thread in server order; the pool only fills them. Which heap
  // holds a node's buffer then does not depend on which pool thread
  // claims it, so the allocator's layout, and the memory it returns to
  // the OS between runs, is the same in every process: page faults per
  // run stay within 1% across processes, where allocating inside the
  // pool let them vary by up to 70%. Each node's uplink payload buffer is
  // reserved here for the same reason; make_message encodes into it on
  // the pool.
  struct LocalWork {
    Matrix compressed;
    double mass = 0.0;
  };
  std::vector<CountSketchCompressor> compressors;
  std::vector<std::vector<uint8_t>> uplink_payloads(s);
  compressors.reserve(s);
  for (size_t i = 0; i < s; ++i) {
    compressors.emplace_back(m, d, seeds[i]);
    uplink_payloads[i].reserve(wire::DensePayloadBytes(m, d));
  }
  std::vector<LocalWork> locals = ParallelMap<LocalWork>(s, [&](size_t i) {
    LocalWork w;
    CountSketchCompressor& compressor = compressors[i];
    if (!seeded[i]) {
      w.compressed = std::move(compressor).TakeCompressed();  // all zero
      return w;
    }
    telemetry::Span span("countsketch/local_compress",
                         telemetry::Phase::kCompute);
    span.SetAttr("server", static_cast<int64_t>(i));
    const Server& server = cluster.server(i);
    const uint64_t base = additive ? 0 : static_cast<uint64_t>(i) << 32;
    span.SetAttr("kernel", server.has_sparse() ? "sparse" : "dense");
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
    w.compressed = std::move(compressor).TakeCompressed();
    if (ft) w.mass = server.squared_frobenius_norm();
    return w;
  });

  // Uplink: bucket matrices add (linearity), so interior nodes sum each
  // delivered payload straight into their accumulator, and RunTreeReduce
  // handles transfers, telemetry and loss.
  Matrix total;
  total.SetZero(m, d);
  TreeReduceHooks hooks;
  hooks.absorb = [&](int node, const std::vector<uint8_t>& payload) -> Status {
    Matrix& dst = (node == kCoordinator)
                      ? total
                      : locals[static_cast<size_t>(node)].compressed;
    return wire::AddMatrixPayloadInto(payload.data(), payload.size(), &dst);
  };
  hooks.make_message = [&](int node) -> StatusOr<wire::Message> {
    const size_t i = static_cast<size_t>(node);
    Matrix& acc = locals[i].compressed;
    wire::Message uplink =
        wire::DenseMessage("local_cs", acc, std::move(uplink_payloads[i]));
    // Nothing absorbs into a node after its uplink is built (every
    // receiver sits at a later stage), and RunTreeReduce replays the kept
    // uplink, not the accumulator, if an ancestor dies: free it now.
    acc = Matrix();
    return uplink;
  };
  hooks.local_mass = [&](int node) {
    return locals[static_cast<size_t>(node)].mass;
  };
  DS_ASSIGN_OR_RETURN(TreeReduceStats tree_stats,
                      RunTreeReduce(cluster, topo, hooks, result.degraded));
  (void)tree_stats;
  if (additive && result.degraded.degraded()) {
    return Status::Unavailable(
        "countsketch: share " +
        std::to_string(result.degraded.lost_servers.front()) +
        " permanently lost; the additive sum is unrecoverable");
  }

  result.sketch = std::move(total);
  result.comm = log.Stats();
  result.sketch_rows = result.sketch.rows();
  return result;
}

}  // namespace distsketch
