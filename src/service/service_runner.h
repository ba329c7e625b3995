#ifndef DISTSKETCH_SERVICE_SERVICE_RUNNER_H_
#define DISTSKETCH_SERVICE_SERVICE_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "dist/channel.h"
#include "dist/fault_injection.h"
#include "service/sketch_service.h"
#include "service/service_wire.h"

namespace distsketch {

struct ServiceRunnerOptions {
  /// Policy of the SketchService behind the channel.
  SketchServiceOptions service;
  /// Per-client channel queue capacity (backpressure / shed point).
  ChannelOptions channel;
  /// Loss model applied to the *request* leg (client -> service). The
  /// injector's per-client RNG streams make each client's fault schedule
  /// independent of how submissions interleave. Responses travel over
  /// the ideal wire (they are metered, never faulted — a lost request is
  /// answered kUnavailable, so every accepted submit gets a response).
  std::optional<FaultConfig> faults;
};

/// The service front end: a bounded request channel carrying framed
/// requests from many clients into one SketchService, with the full
/// overload ladder:
///
///   client Submit --(queue full)--> kOverloaded, shed at the channel
///          |
///          v (accepted: exactly one callback will fire)
///   wire transfer --(fault-injected loss)--> kUnavailable response
///          |
///          v (delivered)
///   decode --(bad frame)--> kInvalidArgument response
///          |
///          v
///   SketchService::HandleBatch --(registry full)--> kOverloaded response
///          |
///          v
///   response encoded + metered over the ideal wire, callback fires
///
/// Threading: any number of producer threads may call Submit
/// concurrently (the channel's queue is the synchronization point).
/// Drain() runs the wire transfers, the service and every callback on
/// its calling thread, and must be called from one thread at a time.
/// Submissions still queued when the runner is destroyed are dropped
/// unexecuted: their callbacks never fire.
class ServiceRunner {
 public:
  using ResponseCallback = std::function<void(const ServiceResponse&)>;

  static StatusOr<std::unique_ptr<ServiceRunner>> Create(
      const ServiceRunnerOptions& options);

  /// Submits one framed request from `client` (client ids are >= 0).
  /// Returns kOverloaded — without invoking `cb` — when the client's
  /// channel queue is full. Every accepted submit gets exactly one
  /// callback, during a later Drain() (none if the runner is destroyed
  /// first).
  Status Submit(int client, wire::Message request, ResponseCallback cb);

  /// Convenience: encodes and submits an ingest request.
  Status SubmitIngest(int client, const std::string& tenant,
                      const Matrix& rows, ResponseCallback cb) {
    return Submit(client, EncodeIngestRequest(tenant, rows), std::move(cb));
  }

  /// Convenience: encodes and submits a configure (front-door) request.
  Status SubmitConfigure(int client, const std::string& tenant,
                         const ConfigureParams& params, ResponseCallback cb) {
    return Submit(client, EncodeConfigureRequest(tenant, params),
                  std::move(cb));
  }

  /// Executes every queued wire transfer, then processes all delivered
  /// requests through the service in one batch and fires callbacks in
  /// submission order. Returns the number of callbacks fired.
  size_t Drain();

  SketchService& service() { return *service_; }
  CommLog& log() { return wire_.log; }
  const std::optional<FaultInjector>& faults() const { return wire_.faults; }

  /// Lifetime counters. accepted() is safe to read from any thread;
  /// wire_lost() and responded() belong to the draining thread.
  uint64_t accepted() const { return channel_.submitted(); }
  uint64_t wire_lost() const { return wire_lost_; }
  uint64_t responded() const { return responded_; }

 private:
  explicit ServiceRunner(const ServiceRunnerOptions& options);

  /// One accepted submission after its wire transfer executed.
  struct Delivered {
    int client = 0;
    bool delivered = false;
    uint64_t request_wire_bytes = 0;
    /// The delivered request bytes: the submitted message's payload
    /// buffer, handed over by the transport without a copy.
    std::vector<uint8_t> payload;
    ResponseCallback cb;
  };

  WireEndpoint wire_;
  // Its wire function meters into wire_, so it is declared after it.
  ChannelTransport channel_;
  std::unique_ptr<SketchService> service_;

  /// Executed-but-unanswered submissions, in execution (= submission)
  /// order. Appended by done callbacks inside Drain, on its thread.
  std::vector<Delivered> inbox_;

  uint64_t wire_lost_ = 0;
  uint64_t responded_ = 0;
};

}  // namespace distsketch

#endif  // DISTSKETCH_SERVICE_SERVICE_RUNNER_H_
