#include "dist/wire_endpoint.h"

#include "telemetry/span.h"

namespace distsketch {
namespace {

// Sends through `faults` when given, over the ideal wire otherwise, inside
// the `cluster/send` span, and counts the outcome into comm.*.
SendOutcome MeteredSend(CommLog& log, FaultInjector* faults, int from,
                        int to, const wire::Message& msg) {
  telemetry::Span span("cluster/send", telemetry::Phase::kComm);
  if (span.active()) {
    span.SetAttr("from", static_cast<int64_t>(from));
    span.SetAttr("to", static_cast<int64_t>(to));
    // The server endpoint of the channel.
    span.SetAttr("server",
                 static_cast<int64_t>(from == kCoordinator ? to : from));
    span.SetAttr("tag", msg.tag);
  }
  SendOutcome out = faults != nullptr ? faults->Send(log, from, to, msg)
                                      : SendOverIdealWire(log, from, to, msg);
  if (span.active()) {
    span.SetAttr("bytes", out.wire_bytes);
    span.SetAttr("words", out.wire_words);
    span.SetAttr("attempts", static_cast<int64_t>(out.attempts));
    if (out.control_bytes > 0) {
      span.SetAttr("control_bytes", out.control_bytes);
    }
    if (!out.delivered) span.SetAttr("delivered", "false");
    telemetry::Count("comm.messages");
    telemetry::Count("comm.wire_bytes", out.wire_bytes);
    telemetry::Count("comm.control_wire_bytes", out.control_bytes);
    if (out.attempts > 1) telemetry::Count("comm.retries", out.attempts - 1);
  }
  return out;
}

}  // namespace

SendOutcome WireEndpoint::Transfer(int from, int to,
                                   const wire::Message& msg) {
  return MeteredSend(log, faults ? &*faults : nullptr, from, to, msg);
}

SendOutcome WireEndpoint::TransferIdeal(int from, int to,
                                        const wire::Message& msg) {
  return MeteredSend(log, nullptr, from, to, msg);
}

}  // namespace distsketch
