#include "dist/countsketch_protocol.h"

#include <algorithm>
#include <mutex>
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
  // `buckets` must be a zeroed m-by-d matrix; an unseeded server leaves
  // it zero.
  auto compress_local = [&](size_t i, Matrix& buckets) -> Status {
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

  // A leaf's bucket matrix is its uplink: it is compressed at the leaf's
  // stage into a per-thread scratch and encoded straight into an uplink
  // payload buffer, so no per-node accumulator exists for it. Only a node
  // that absorbs uplinks (one with topology children) keeps an m-by-d
  // accumulator for the whole run, filled with its own rows first, then
  // with its children's uplinks in arrival order.
  //
  // Every sketch-sized buffer of the run is allocated on the calling
  // thread, here in server order; the pool only fills them. Which heap holds a buffer
  // then does not depend on which pool thread claims its node, so the
  // allocator's layout, and the memory it returns to the OS between runs,
  // is the same in every process. A receiving node gets its accumulator
  // and its own uplink buffer. Leaves share one window's worth of uplink
  // buffers: RunTreeReduce builds at most kTreeReduceWindow uplinks at a
  // time and hands each released payload back through `recycle`, so the
  // spares are never empty when a window builds (only a replay, on the
  // calling thread, may find them empty and allocate). The leaves'
  // scratch is allocated once per pool thread and reused across leaves
  // and runs.
  const size_t payload_bytes = wire::DensePayloadBytes(m, d);
  std::vector<Matrix> accumulators(s);
  std::vector<size_t> receivers;
  std::vector<std::vector<uint8_t>> receiver_payloads(s);
  for (size_t i = 0; i < s; ++i) {
    if (!topo.node(i).children.empty()) {
      accumulators[i].SetZero(m, d);
      receiver_payloads[i].reserve(payload_bytes);
      receivers.push_back(i);
    }
  }
  std::mutex spare_mu;
  std::vector<std::vector<uint8_t>> spare_payloads(
      std::min(kTreeReduceWindow, s - receivers.size()));
  for (std::vector<uint8_t>& buffer : spare_payloads) {
    buffer.reserve(payload_bytes);
  }
  std::vector<Status> local_status =
      ParallelMap<Status>(receivers.size(), [&](size_t k) {
        const size_t i = receivers[k];
        return compress_local(i, accumulators[i]);
      });
  for (const Status& st : local_status) DS_RETURN_IF_ERROR(st);

  // Uplink: bucket matrices add (linearity), so receivers sum each
  // delivered payload straight into their accumulator, and RunTreeReduce
  // handles transfers, telemetry and loss.
  Matrix total;
  total.SetZero(m, d);
  TreeReduceHooks hooks;
  hooks.absorb = [&](int node, const std::vector<uint8_t>& payload) -> Status {
    Matrix& dst = (node == kCoordinator)
                      ? total
                      : accumulators[static_cast<size_t>(node)];
    return wire::AddMatrixPayloadInto(payload.data(), payload.size(), &dst);
  };
  hooks.make_message = [&](int node) -> StatusOr<wire::Message> {
    const size_t i = static_cast<size_t>(node);
    if (!topo.node(i).children.empty()) {
      Matrix& acc = accumulators[i];
      wire::Message uplink = wire::DenseMessage(
          "local_cs", acc, std::move(receiver_payloads[i]));
      // Nothing absorbs into a node after its uplink is built (every
      // receiver sits at a later stage), and RunTreeReduce replays the
      // kept uplink, not the accumulator, if an ancestor dies: free it.
      acc = Matrix();
      return uplink;
    }
    // A function of the node alone, as RunTreeReduce requires of a
    // childless node (it calls this again to replay a released uplink):
    // the spare buffer only lends its capacity.
    std::vector<uint8_t> buffer;
    {
      std::lock_guard<std::mutex> lock(spare_mu);
      if (!spare_payloads.empty()) {
        buffer = std::move(spare_payloads.back());
        spare_payloads.pop_back();
      }
    }
    thread_local Matrix scratch;
    scratch.SetZero(m, d);
    DS_RETURN_IF_ERROR(compress_local(i, scratch));
    return wire::DenseMessage("local_cs", scratch, std::move(buffer));
  };
  hooks.recycle = [&](int node, std::vector<uint8_t> payload) {
    if (topo.node(static_cast<size_t>(node)).children.empty()) {
      std::lock_guard<std::mutex> lock(spare_mu);
      spare_payloads.push_back(std::move(payload));
    }
  };
  // An unseeded server contributes nothing, so it reports no mass.
  hooks.local_mass = [&](int node) {
    const size_t i = static_cast<size_t>(node);
    return seeded[i] ? cluster.server(i).squared_frobenius_norm() : 0.0;
  };
  DS_RETURN_IF_ERROR(
      RunTreeReduce(cluster, topo, hooks, result.degraded).status());
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
