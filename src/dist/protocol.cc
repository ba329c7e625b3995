#include "dist/protocol.h"

namespace distsketch {

bool ReportLocalMass(Cluster& cluster, int server, double mass,
                     DegradedModeInfo& degraded) {
  const wire::Message report = wire::ScalarMessage("local_mass", mass);
  const SendOutcome sent = cluster.Send(server, kCoordinator, report);
  if (!sent.delivered) {
    degraded.RecordLoss(server, mass, false);
    return false;
  }
  return true;
}

ServerSendResult SendWithMassAccounting(Cluster& cluster, int from, int to,
                                        const wire::Message& msg,
                                        DegradedModeInfo& degraded,
                                        double mass, bool mass_known_if_lost,
                                        bool prepend_mass_report) {
  const int server = from == kCoordinator ? to : from;
  if (prepend_mass_report) {
    if (!ReportLocalMass(cluster, server, mass, degraded)) {
      return ServerSendResult();
    }
    mass_known_if_lost = true;
  }
  ServerSendResult sent = cluster.Send(from, to, msg);
  if (!sent.delivered) degraded.RecordLoss(server, mass, mass_known_if_lost);
  return sent;
}

}  // namespace distsketch
