#include "service/service_runner.h"

#include <utility>
#include <vector>

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace distsketch {

ServiceRunner::ServiceRunner(const ServiceRunnerOptions& options)
    : client_queue_capacity_(options.client_queue_capacity),
      wire_(/*bits_per_word=*/64) {}

StatusOr<std::unique_ptr<ServiceRunner>> ServiceRunner::Create(
    const ServiceRunnerOptions& options) {
  if (options.client_queue_capacity == 0) {
    return Status::InvalidArgument(
        "ServiceRunner: client_queue_capacity must be >= 1");
  }
  DS_ASSIGN_OR_RETURN(SketchService service,
                      SketchService::Create(options.service));
  std::unique_ptr<ServiceRunner> runner(new ServiceRunner(options));
  runner->service_ = std::make_unique<SketchService>(std::move(service));
  if (options.faults.has_value()) {
    runner->wire_.faults.emplace(*options.faults);
  }
  return runner;
}

Status ServiceRunner::Submit(int client, wire::Message request,
                             ResponseCallback cb) {
  if (client < 0) {
    return Status::InvalidArgument("ServiceRunner: client ids must be >= 0");
  }
  std::lock_guard<std::mutex> g(lock_);
  size_t& queued = queued_per_client_[client];
  if (queued >= client_queue_capacity_) {
    return Status::Overloaded("ServiceRunner: client " +
                              std::to_string(client) +
                              " queue at capacity (" +
                              std::to_string(client_queue_capacity_) + ")");
  }
  ++queued;
  queue_.push_back(Queued{client, std::move(request), std::move(cb)});
  accepted_.fetch_add(1);
  return Status::OK();
}

bool ServiceRunner::PopOldest(Queued& out) {
  std::lock_guard<std::mutex> g(lock_);
  if (queue_.empty()) return false;
  out = std::move(queue_.front());
  queue_.pop_front();
  auto it = queued_per_client_.find(out.client);
  if (--it->second == 0) queued_per_client_.erase(it);
  return true;
}

size_t ServiceRunner::Drain() {
  // One entry per popped submission, in submission order: the decoded
  // request's index into `requests`, or the code it is answered with
  // (wire-lost -> kUnavailable, undecodable -> its decode error).
  struct Answer {
    int client = 0;
    ResponseCallback cb;
    uint64_t request_wire_bytes = 0;
    size_t request = SIZE_MAX;
    StatusCode code = StatusCode::kOk;
  };
  std::vector<Answer> batch;
  std::vector<ServiceRequest> requests;
  Queued next;
  while (PopOldest(next)) {
    const SendOutcome sent =
        wire_.Transfer(next.client, kCoordinator, next.request);
    Answer& a = batch.emplace_back();
    a.client = next.client;
    a.cb = std::move(next.cb);
    a.request_wire_bytes = sent.wire_bytes;
    if (!sent.delivered) {
      ++wire_lost_;
      a.code = StatusCode::kUnavailable;
      continue;
    }
    // The delivered view is the submitted request's own buffer: nothing
    // copied it.
    DS_CHECK(sent.payload.data() == next.request.payload.data() &&
             sent.payload.size() == next.request.payload.size());
    auto req = DecodeServiceRequest(next.request.payload);
    if (!req.ok()) {
      a.code = req.status().code();
      continue;
    }
    a.request = requests.size();
    requests.push_back(std::move(*req));
  }
  if (batch.empty()) return 0;
  std::vector<ServiceResponse> answers = service_->HandleBatch(requests);

  // Each response is encoded and metered over the ideal wire back to the
  // client before its callback fires.
  const bool telem = telemetry::Telemetry::Current()->enabled();
  for (Answer& a : batch) {
    ServiceResponse resp;
    if (a.request == SIZE_MAX) {
      resp.code = a.code;
    } else {
      resp = std::move(answers[a.request]);
    }
    const wire::Message wire_resp = EncodeServiceResponse(resp);
    const SendOutcome out =
        wire_.TransferIdeal(kCoordinator, a.client, wire_resp);
    if (telem && !resp.tenant.empty()) {
      telemetry::Count(TenantCounter(resp.tenant, "req_bytes"),
                       a.request_wire_bytes);
      telemetry::Count(TenantCounter(resp.tenant, "resp_bytes"),
                       out.wire_bytes);
    }
    ++responded_;
    if (a.cb) a.cb(resp);
  }
  return batch.size();
}

}  // namespace distsketch
