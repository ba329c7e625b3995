#ifndef DISTSKETCH_DIST_CLUSTER_H_
#define DISTSKETCH_DIST_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cost_model.h"
#include "common/status.h"
#include "dist/comm_log.h"
#include "dist/fault_injection.h"
#include "dist/wire_endpoint.h"
#include "linalg/csr_matrix.h"
#include "linalg/matrix.h"
#include "workload/row_stream.h"

namespace distsketch {

/// How the servers' local matrices make up the input A.
enum class PartitionModel {
  /// The paper's row partition: A = [A^(1); ...; A^(s)], each server
  /// holding whole rows.
  kRows,
  /// The arbitrary partition model of Boutsidis et al. [5], the paper's
  /// concluding open question: every server holds an n-by-d share and
  /// A = sum_i A^(i). Local Grams do not add up (A^T A has cross terms),
  /// so only a sketch linear in A — CountSketchProtocol — runs here;
  /// every row-only consumer refuses it (RequireRowPartition).
  kAdditive,
};

/// One server of the simulated shared-nothing cluster. Holds its local
/// matrix — a block of whole rows (PartitionModel::kRows) or an n-by-d
/// additive share (kAdditive); protocols consume it through
/// `OpenStream()` when they claim single-pass behaviour, or through
/// `local_rows()` for batch protocols (the distinction §1's "distributed
/// streaming vs batch").
class Server {
 public:
  /// Computes the local squared Frobenius norm once, here.
  Server(int id, Matrix local_rows);

  int id() const { return id_; }
  /// Batch access to the local partition.
  const Matrix& local_rows() const { return local_rows_; }
  /// ||local_rows()||_F^2, the server's local mass: the degraded-mode
  /// accounting unit every fault-mode protocol reports. Bitwise equal to
  /// SquaredFrobeniusNorm(local_rows()).
  double squared_frobenius_norm() const { return squared_frobenius_norm_; }
  /// Single-pass access to the local partition.
  RowStream OpenStream() const { return RowStream(local_rows_); }
  /// Number of local rows.
  size_t num_rows() const { return local_rows_.rows(); }

  /// True iff the partition also carries a CSR view (sparse-aware
  /// protocols route their local compute through it; everything else
  /// keeps using the dense rows, which stay authoritative).
  bool has_sparse() const { return sparse_ != nullptr; }
  /// The CSR view; only valid when has_sparse().
  const CsrMatrix& sparse() const { return *sparse_; }

  /// Attaches a CSR view of the same local rows (Cluster::CreateSparse).
  void AttachSparse(std::shared_ptr<const CsrMatrix> sparse) {
    sparse_ = std::move(sparse);
  }

 private:
  int id_;
  Matrix local_rows_;
  double squared_frobenius_norm_;
  // shared_ptr: Server stays cheaply movable and the view is immutable.
  std::shared_ptr<const CsrMatrix> sparse_;
};

/// The simulated message-passing cluster of the paper's model: `s`
/// servers holding a partition of A (rows, or additive shares; see
/// PartitionModel), one coordinator, point-to-point
/// channels metered by a CommLog. The substitution for a physical cluster
/// is documented in DESIGN.md: the paper's complexity measure is words
/// exchanged, which the simulation meters exactly. The simulation is
/// serial: every Send runs its wire transfer on the caller's thread, in
/// call order, which is what keeps seeded transcripts reproducible.
class Cluster {
 public:
  Cluster(Cluster&&) = default;
  Cluster& operator=(Cluster&&) = default;

  /// Builds a cluster from a row partition (one matrix per server; all
  /// must share the column count). `n_hint` and `eps_hint` parameterize
  /// the word size of the cost model (§1.2); pass the instance's real n
  /// and target eps.
  static StatusOr<Cluster> Create(std::vector<Matrix> parts, double eps_hint);

  /// Like Create, but each server additionally carries a CSR view of its
  /// partition (entries with |v| <= tol dropped) so sparse-aware
  /// protocols can run nnz-proportional local kernels. The dense rows
  /// remain authoritative; the CSR view is derived from them once here.
  static StatusOr<Cluster> CreateSparse(std::vector<Matrix> parts,
                                        double eps_hint, double tol = 0.0);

  /// Builds an arbitrary-partition cluster: server i holds share i and
  /// the input is A = sum_i A^(i). All shares must have identical,
  /// non-empty shape.
  static StatusOr<Cluster> CreateAdditive(std::vector<Matrix> shares,
                                          double eps_hint);

  size_t num_servers() const { return servers_.size(); }
  /// Row dimension d.
  size_t dim() const { return dim_; }
  /// Rows n of the input A: summed across servers under kRows, the
  /// shared share height under kAdditive.
  size_t total_rows() const { return total_rows_; }
  PartitionModel partition() const { return partition_; }

  const Server& server(size_t i) const { return servers_[i]; }

  CommLog& log() { return wire_.log; }
  const CommLog& log() const { return wire_.log; }
  const CostModel& cost_model() const { return cost_model_; }

  /// Resets the communication log (between protocol runs on the same
  /// data). Also rewinds the fault simulation, if installed, so every
  /// run replays the identical fault schedule.
  void ResetLog() {
    wire_.log = CommLog(cost_model_.bits_per_word());
    if (wire_.faults) wire_.faults->Reset();
  }

  /// Installs a deterministic fault plan: every subsequent transfer runs
  /// through the simulated faulty network (see fault_injection.h).
  void InstallFaultPlan(FaultConfig config) {
    wire_.faults.emplace(std::move(config));
  }
  /// Removes the fault plan; transfers become ideal again.
  void ClearFaultPlan() { wire_.faults.reset(); }

  /// True iff a plan is installed that can actually perturb a run.
  /// Protocols consult this to decide whether to send the extra
  /// mass-accounting messages of degraded mode, so an all-zero plan (or
  /// none) reproduces the ideal-network wire format exactly.
  bool fault_mode() const {
    return wire_.faults && wire_.faults->config().CanFault();
  }

  FaultInjector* faults() { return wire_.faults ? &*wire_.faults : nullptr; }
  const FaultInjector* faults() const {
    return wire_.faults ? &*wire_.faults : nullptr;
  }

  /// True iff the fault simulation has declared server `i` lost.
  bool ServerLost(int i) const {
    return wire_.faults && wire_.faults->IsLost(i);
  }

  /// Routes one logical transfer of encoded bytes over the wire, on the
  /// calling thread: through the fault simulation when a plan is
  /// installed (ideal wire otherwise), framed and checksum-verified for
  /// the receiving side, which reads outcome.payload: a view of
  /// msg.payload, valid while `msg` lives. Protocols must use this (not
  /// log().Record) for every payload so faults, retry accounting and
  /// wire-byte metering apply uniformly.
  SendOutcome Send(int from, int to, const wire::Message& msg) {
    return wire_.Transfer(from, to, msg);
  }
  /// A temporary would die before its delivered view: name the message.
  SendOutcome Send(int from, int to, wire::Message&& msg) = delete;

  /// Reassembles the full input — [A^(1); ...; A^(s)] under kRows,
  /// sum_i A^(i) under kAdditive (test/bench oracle — a real coordinator
  /// never sees this).
  Matrix AssembleGroundTruth() const;

 private:
  Cluster(std::vector<Server> servers, size_t dim, size_t total_rows,
          CostModel cost_model, PartitionModel partition);

  std::vector<Server> servers_;
  size_t dim_;
  size_t total_rows_;
  PartitionModel partition_;
  CostModel cost_model_;
  WireEndpoint wire_;
};

}  // namespace distsketch

#endif  // DISTSKETCH_DIST_CLUSTER_H_
