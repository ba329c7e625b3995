#ifndef DISTSKETCH_SERVICE_SERVICE_RUNNER_H_
#define DISTSKETCH_SERVICE_SERVICE_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/status.h"
#include "dist/fault_injection.h"
#include "dist/wire_endpoint.h"
#include "service/sketch_service.h"
#include "service/service_wire.h"

namespace distsketch {

struct ServiceRunnerOptions {
  /// Policy of the SketchService behind the queue.
  SketchServiceOptions service;
  /// Requests queued per client before Submit sheds with kOverloaded
  /// (backpressure). Must be >= 1.
  size_t client_queue_capacity = 64;
  /// Loss model applied to the *request* leg (client -> service). The
  /// injector's per-client RNG streams make each client's fault schedule
  /// independent of how submissions interleave. Responses travel over
  /// the ideal wire (they are metered, never faulted — a lost request is
  /// answered kUnavailable, so every accepted submit gets a response).
  std::optional<FaultConfig> faults;
};

/// The service front end: a bounded request queue carrying framed
/// requests from many clients into one SketchService, with the full
/// overload ladder:
///
///   client Submit --(queue full)--> kOverloaded, shed at the queue
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
/// concurrently (one mutex guards the queue). Drain() runs the wire
/// transfers, the service and every callback on its calling thread, and
/// must be called from one thread at a time. Submissions still queued
/// when the runner is destroyed are dropped unexecuted: their callbacks
/// never fire.
class ServiceRunner {
 public:
  using ResponseCallback = std::function<void(const ServiceResponse&)>;

  /// kInvalidArgument when client_queue_capacity is 0, or when the
  /// service options are invalid.
  static StatusOr<std::unique_ptr<ServiceRunner>> Create(
      const ServiceRunnerOptions& options);

  /// Submits one framed request from `client` (client ids are >= 0).
  /// Returns kOverloaded — without invoking `cb` — when the client's
  /// queue is full. Every accepted submit gets exactly one callback,
  /// during a later Drain() (none if the runner is destroyed first).
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

  /// Pops queued requests one at a time, oldest first, until the queue
  /// is empty, sending each over the wire and decoding what arrives; a
  /// submit accepted meanwhile is popped by this Drain too. Then answers
  /// them through the service in one batch and fires callbacks in
  /// submission order. Returns the number of callbacks fired.
  size_t Drain();

  SketchService& service() { return *service_; }
  CommLog& log() { return wire_.log; }
  const std::optional<FaultInjector>& faults() const { return wire_.faults; }

  /// Lifetime counters. accepted() is safe to read from any thread;
  /// wire_lost() and responded() belong to the draining thread.
  uint64_t accepted() const { return accepted_.load(); }
  uint64_t wire_lost() const { return wire_lost_; }
  uint64_t responded() const { return responded_; }

 private:
  explicit ServiceRunner(const ServiceRunnerOptions& options);

  /// One accepted submission, waiting for Drain.
  struct Queued {
    int client = 0;
    wire::Message request;
    ResponseCallback cb;
  };

  /// Moves the oldest queued submission into `out`; false when empty.
  bool PopOldest(Queued& out);

  const size_t client_queue_capacity_;
  WireEndpoint wire_;
  std::unique_ptr<SketchService> service_;

  std::mutex lock_;
  /// Accepted submissions in submission order, and how many of them each
  /// client has (clients with none have no entry).
  std::deque<Queued> queue_;
  std::map<int, size_t> queued_per_client_;

  std::atomic<uint64_t> accepted_{0};
  uint64_t wire_lost_ = 0;
  uint64_t responded_ = 0;
};

}  // namespace distsketch

#endif  // DISTSKETCH_SERVICE_SERVICE_RUNNER_H_
