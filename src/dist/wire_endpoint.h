#ifndef DISTSKETCH_DIST_WIRE_ENDPOINT_H_
#define DISTSKETCH_DIST_WIRE_ENDPOINT_H_

#include <cstdint>
#include <optional>

#include "dist/comm_log.h"
#include "dist/fault_injection.h"
#include "wire/message.h"

namespace distsketch {

/// The wire state one sender meters into: a CommLog and an optional
/// fault plan. Cluster::Send and ServiceRunner call it directly, on the
/// sending thread.
///
/// Transfer and TransferIdeal are the one metering point every payload
/// transfer funnels through: each emits the `cluster/send` telemetry span
/// and the comm.* counters, whose byte totals equal the CommLog's
/// wire-byte totals (payload + control). Not thread-safe; callers run one
/// transfer at a time.
struct WireEndpoint {
  explicit WireEndpoint(uint64_t bits_per_word) : log(bits_per_word) {}

  /// Routes one message through the fault simulation when a plan is
  /// installed, over the ideal wire otherwise.
  SendOutcome Transfer(int from, int to, const wire::Message& msg);

  /// Routes one message over the ideal wire even when a plan is
  /// installed: metered, never faulted (the service's responses).
  SendOutcome TransferIdeal(int from, int to, const wire::Message& msg);

  CommLog log;
  std::optional<FaultInjector> faults;
};

}  // namespace distsketch

#endif  // DISTSKETCH_DIST_WIRE_ENDPOINT_H_
