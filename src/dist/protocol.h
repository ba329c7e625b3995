#ifndef DISTSKETCH_DIST_PROTOCOL_H_
#define DISTSKETCH_DIST_PROTOCOL_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "dist/cluster.h"
#include "dist/comm_log.h"
#include "linalg/matrix.h"
#include "wire/message.h"

namespace distsketch {

/// Coordinator-side accounting of servers permanently lost to the fault
/// simulation. The coordinator merges the surviving s' < s local
/// sketches and widens its reported covariance-error bound: dropping
/// server set L changes the Gram by sum_{i in L} A^(i)T A^(i), so
///   ||A^T A - B^T B||_2 <= base_bound(A_surviving)
///                          + sum_{i in L} ||A^(i)||_F^2,
/// and base_bound is monotone in the input mass, so the full-input base
/// bound plus the lost Frobenius mass is an honest certificate. The mass
/// terms come from the 1-word "local_mass" reports each server prepends
/// in fault mode; a server lost before even that report leaves the bound
/// unknown (mass_known = false, BoundWidening() = infinity).
struct DegradedModeInfo {
  /// Ids of permanently lost servers, in loss order.
  std::vector<int> lost_servers;
  /// Sum of ||A^(i)||_F^2 over lost servers whose mass report reached
  /// the coordinator.
  double lost_mass = 0.0;
  /// False iff some lost server never reported its local mass.
  bool mass_known = true;

  bool degraded() const { return !lost_servers.empty(); }

  /// Additive widening of the protocol's covariance-error bound
  /// (infinity when the lost mass is unknown).
  double BoundWidening() const {
    if (!degraded()) return 0.0;
    if (!mass_known) return std::numeric_limits<double>::infinity();
    return lost_mass;
  }

  void RecordLoss(int server, double frobenius_mass, bool mass_reported) {
    lost_servers.push_back(server);
    if (mass_reported) {
      lost_mass += frobenius_mass;
    } else {
      mass_known = false;
    }
  }
};

/// Output of a distributed covariance-sketch protocol run.
struct SketchProtocolResult {
  /// The coordinator's sketch matrix B.
  Matrix sketch;
  /// Communication metered during the run.
  CommStats comm;
  /// Number of rows in `sketch` (convenience for tables).
  size_t sketch_rows = 0;
  /// Degraded-mode accounting; empty (degraded() == false) on an ideal
  /// or fully recovered run.
  DegradedModeInfo degraded;
  /// True iff the run stopped early at a checkpoint boundary (the
  /// CheckpointConfig::halt_after_servers crash-simulation hook). The
  /// sketch is then the partial coordinator state; re-running with
  /// resume = true continues from the stored checkpoint.
  bool halted = false;
};

/// Result of one accounted per-server transfer (see
/// SendWithMassAccounting): either the delivered payload, or a loss that
/// has already been recorded in the caller's DegradedModeInfo.
using ServerSendResult = SendOutcome;

/// Sends the 1-word "local_mass" report a server prepends in fault mode
/// so the coordinator can widen its bound honestly if the server is
/// later lost. On loss, records it (mass unknown — the report itself
/// never arrived) and returns false; the caller skips the server.
bool ReportLocalMass(Cluster& cluster, int server, double mass,
                     DegradedModeInfo& degraded);

/// The per-server send-with-loss-accounting step shared by every
/// protocol round: sends `msg` from `from` to `to` and, on permanent
/// loss, records the endpoint server in `degraded` with `mass` known iff
/// `mass_known_if_lost` (round semantics: false before any mass report
/// has arrived, true once the coordinator holds the server's mass).
/// With `prepend_mass_report` set (fault-mode uplinks), the 1-word
/// "local_mass" report is sent first via ReportLocalMass — a loss there
/// skips the payload entirely, and a payload loss after a delivered
/// report is recorded with the mass known.
///
/// On delivery the verified payload bytes are returned (a view of
/// msg.payload, as Cluster::Send returns them); protocols decode their
/// matrix/scalar from those (receiver-side discipline), never from sender
/// state.
ServerSendResult SendWithMassAccounting(Cluster& cluster, int from, int to,
                                        const wire::Message& msg,
                                        DegradedModeInfo& degraded,
                                        double mass, bool mass_known_if_lost,
                                        bool prepend_mass_report = false);
/// A temporary would die before its delivered view: name the message.
ServerSendResult SendWithMassAccounting(Cluster& cluster, int from, int to,
                                        wire::Message&& msg,
                                        DegradedModeInfo& degraded,
                                        double mass, bool mass_known_if_lost,
                                        bool prepend_mass_report = false) =
    delete;

/// Guard of every consumer whose math assumes whole rows (local Grams,
/// FD merges, row sampling): kFailedPrecondition on an additive cluster,
/// which only CountSketchProtocol sketches.
inline Status RequireRowPartition(const Cluster& cluster,
                                  std::string_view name) {
  return cluster.partition() == PartitionModel::kRows
             ? Status::OK()
             : Status::FailedPrecondition(
                   std::string(name) +
                   ": needs a row partition, got additive shares");
}

/// A distributed protocol that leaves a covariance sketch of the
/// partitioned input at the coordinator. Implementations must route every
/// transfer through cluster.log() so benches can meter them, and must
/// only combine per-server information through those transfers (the
/// simulation is shared-memory; the discipline is what makes the metering
/// meaningful).
class SketchProtocol {
 public:
  virtual ~SketchProtocol() = default;

  /// Protocol name for tables and run scopes (ProtocolFamilyName for the
  /// six Table 1 families).
  virtual std::string_view Name() const = 0;

  /// Runs the protocol. Resets the cluster's log first so the stats in
  /// the result reflect this run only.
  virtual StatusOr<SketchProtocolResult> Run(Cluster& cluster) = 0;
};

}  // namespace distsketch

#endif  // DISTSKETCH_DIST_PROTOCOL_H_
