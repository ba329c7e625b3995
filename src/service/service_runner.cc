#include "service/service_runner.h"

#include <string>
#include <utility>

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace distsketch {
namespace {

std::string TenantCounter(const std::string& tenant, const char* what) {
  std::string key = "svc.tenant.";
  key += tenant;
  key += '.';
  key += what;
  return key;
}

}  // namespace

ServiceRunner::ServiceRunner(const ServiceRunnerOptions& options)
    : wire_(/*bits_per_word=*/64),
      channel_(
          [this](int from, int to, const wire::Message& msg) {
            return wire_.Transfer(from, to, msg);
          },
          options.channel) {}

StatusOr<std::unique_ptr<ServiceRunner>> ServiceRunner::Create(
    const ServiceRunnerOptions& options) {
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
  return channel_.TrySubmit(
      client, kCoordinator, std::move(request),
      [this, client, cb = std::move(cb)](SendOutcome&& outcome) mutable {
        Delivered d;
        d.client = client;
        d.delivered = outcome.delivered;
        d.request_wire_bytes = outcome.wire_bytes;
        if (outcome.delivered) {
          // The delivered bytes are the submitted request's own, which
          // the outcome owns: keep that buffer, copying nothing.
          DS_CHECK(outcome.payload.data() == outcome.payload_owner.data() &&
                   outcome.payload.size() == outcome.payload_owner.size());
          d.payload = std::move(outcome.payload_owner);
        }
        d.cb = std::move(cb);
        if (!outcome.delivered) ++wire_lost_;
        inbox_.push_back(std::move(d));
      });
}

size_t ServiceRunner::Drain() {
  channel_.DrainAll();
  std::vector<Delivered> batch;
  batch.swap(inbox_);
  if (batch.empty()) return 0;

  // Decode the delivered submissions; one service batch answers them all.
  std::vector<ServiceRequest> requests;
  std::vector<size_t> request_of(batch.size(), SIZE_MAX);
  std::vector<Status> decode_status(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!batch[i].delivered) continue;
    auto req = DecodeServiceRequest(batch[i].payload);
    if (!req.ok()) {
      decode_status[i] = req.status();
      continue;
    }
    request_of[i] = requests.size();
    requests.push_back(std::move(*req));
  }
  std::vector<ServiceResponse> answers = service_->HandleBatch(requests);

  // Answer every submission in order: wire-lost -> kUnavailable,
  // undecodable -> its decode error, else the service's response. Each
  // response is encoded and metered over the ideal wire back to the
  // client before its callback fires.
  const bool telem = telemetry::Telemetry::Current()->enabled();
  for (size_t i = 0; i < batch.size(); ++i) {
    ServiceResponse resp;
    if (!batch[i].delivered) {
      resp.code = StatusCode::kUnavailable;
    } else if (request_of[i] == SIZE_MAX) {
      resp.code = decode_status[i].code();
    } else {
      resp = std::move(answers[request_of[i]]);
    }
    const wire::Message wire_resp = EncodeServiceResponse(resp);
    const SendOutcome out =
        SendOverIdealWire(wire_.log, kCoordinator, batch[i].client, wire_resp);
    if (telem && !resp.tenant.empty()) {
      telemetry::Count(TenantCounter(resp.tenant, "req_bytes"),
                       batch[i].request_wire_bytes);
      telemetry::Count(TenantCounter(resp.tenant, "resp_bytes"),
                       out.wire_bytes);
    }
    ++responded_;
    if (batch[i].cb) batch[i].cb(resp);
  }
  return batch.size();
}

}  // namespace distsketch
