#include "service/service_wire.h"

#include <bit>
#include <cstring>
#include <utility>

#include "wire/codec.h"

namespace distsketch {
namespace {

constexpr size_t kMaxTenantNameBytes = 255;

void AppendU16(uint16_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v & 0xff));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void AppendU64(uint64_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void AppendF64(double v, std::vector<uint8_t>* out) {
  AppendU64(std::bit_cast<uint64_t>(v), out);
}

struct Reader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  bool ReadU8(uint8_t* v) {
    if (pos + 1 > size) return false;
    *v = data[pos++];
    return true;
  }
  bool ReadU16(uint16_t* v) {
    if (pos + 2 > size) return false;
    *v = static_cast<uint16_t>(data[pos]) |
         static_cast<uint16_t>(data[pos + 1]) << 8;
    pos += 2;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (pos + 8 > size) return false;
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(data[pos + i]) << (8 * i);
    }
    *v = out;
    pos += 8;
    return true;
  }
  bool ReadF64(double* v) {
    uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    *v = std::bit_cast<double>(bits);
    return true;
  }
};

wire::Message EncodeRequest(ServiceRequestKind kind, std::string tag,
                            const std::string& tenant, const Matrix& rows) {
  wire::Message msg;
  msg.tag = std::move(tag);
  // One allocation, and the rows are written once, straight from the
  // matrix into the request payload.
  msg.payload.reserve(4 + tenant.size() +
                      wire::DensePayloadBytes(rows.rows(), rows.cols()));
  msg.payload.push_back(kServiceWireVersion);
  msg.payload.push_back(static_cast<uint8_t>(kind));
  AppendU16(static_cast<uint16_t>(tenant.size()), &msg.payload);
  msg.payload.insert(msg.payload.end(), tenant.begin(), tenant.end());
  wire::AppendDensePayload(rows, &msg.payload);
  msg.words = rows.size() > 0 ? rows.size() : 1;
  return msg;
}

}  // namespace

wire::Message EncodeIngestRequest(const std::string& tenant,
                                  const Matrix& rows) {
  return EncodeRequest(ServiceRequestKind::kIngest, "svc/ingest", tenant,
                       rows);
}

wire::Message EncodeFlushRequest(const std::string& tenant) {
  return EncodeRequest(ServiceRequestKind::kFlush, "svc/flush", tenant,
                       Matrix(0, 0));
}

wire::Message EncodeQueryRequest(const std::string& tenant) {
  return EncodeRequest(ServiceRequestKind::kQuery, "svc/query", tenant,
                       Matrix(0, 0));
}

wire::Message EncodeConfigureRequest(const std::string& tenant,
                                     const ConfigureParams& params) {
  wire::Message msg;
  msg.tag = "svc/configure";
  msg.payload.push_back(kServiceWireVersion);
  msg.payload.push_back(static_cast<uint8_t>(ServiceRequestKind::kConfigure));
  AppendU16(static_cast<uint16_t>(tenant.size()), &msg.payload);
  msg.payload.insert(msg.payload.end(), tenant.begin(), tenant.end());
  AppendF64(params.eps, &msg.payload);
  AppendF64(params.delta, &msg.payload);
  AppendU64(params.k, &msg.payload);
  const uint8_t flags =
      static_cast<uint8_t>(params.allow_randomized ? 1 : 0) |
      static_cast<uint8_t>(params.arbitrary_partition ? 2 : 0);
  msg.payload.push_back(flags);
  AppendU64(params.budget_coordinator_words, &msg.payload);
  AppendU64(params.budget_total_wire_bytes, &msg.payload);
  AppendU64(params.budget_critical_path_words, &msg.payload);
  AppendU64(params.num_servers, &msg.payload);
  AppendU64(params.dim, &msg.payload);
  AppendU64(params.expected_rows, &msg.payload);
  AppendU64(params.epoch_rows, &msg.payload);
  wire::AppendDensePayload(Matrix(0, 0), &msg.payload);
  msg.words = 1;
  return msg;
}

StatusOr<ServiceRequest> DecodeServiceRequest(
    const std::vector<uint8_t>& payload) {
  Reader r{payload.data(), payload.size()};
  uint8_t version = 0;
  uint8_t kind_byte = 0;
  uint16_t name_len = 0;
  if (!r.ReadU8(&version) || !r.ReadU8(&kind_byte) || !r.ReadU16(&name_len)) {
    return Status::InvalidArgument("service request: truncated header");
  }
  if (version != kServiceWireVersion) {
    return Status::InvalidArgument(
        "service request: wire version " + std::to_string(version) +
        " (this binary speaks " + std::to_string(kServiceWireVersion) + ")");
  }
  if (kind_byte < 1 || kind_byte > 4) {
    return Status::InvalidArgument("service request: unknown kind");
  }
  if (name_len > kMaxTenantNameBytes) {
    return Status::InvalidArgument("service request: tenant name too long");
  }
  if (r.pos + name_len > r.size) {
    return Status::InvalidArgument("service request: truncated tenant name");
  }
  ServiceRequest req;
  req.kind = static_cast<ServiceRequestKind>(kind_byte);
  req.tenant.assign(reinterpret_cast<const char*>(payload.data() + r.pos),
                    name_len);
  r.pos += name_len;
  if (req.kind == ServiceRequestKind::kConfigure) {
    ConfigureParams& p = req.configure;
    uint8_t flags = 0;
    if (!r.ReadF64(&p.eps) || !r.ReadF64(&p.delta) || !r.ReadU64(&p.k) ||
        !r.ReadU8(&flags) || !r.ReadU64(&p.budget_coordinator_words) ||
        !r.ReadU64(&p.budget_total_wire_bytes) ||
        !r.ReadU64(&p.budget_critical_path_words) ||
        !r.ReadU64(&p.num_servers) || !r.ReadU64(&p.dim) ||
        !r.ReadU64(&p.expected_rows) || !r.ReadU64(&p.epoch_rows)) {
      return Status::InvalidArgument(
          "service request: truncated configure params");
    }
    p.allow_randomized = (flags & 1) != 0;
    p.arbitrary_partition = (flags & 2) != 0;
  }
  DS_ASSIGN_OR_RETURN(
      wire::DecodedMatrix body,
      wire::DecodeMatrixPayload(payload.data() + r.pos, r.size - r.pos));
  req.rows = std::move(body.matrix);
  return req;
}

wire::Message EncodeServiceResponse(const ServiceResponse& response) {
  wire::Message msg;
  msg.tag = "svc/response";
  msg.payload.push_back(kServiceWireVersion);
  msg.payload.push_back(static_cast<uint8_t>(response.code));
  AppendU16(static_cast<uint16_t>(response.tenant.size()), &msg.payload);
  msg.payload.insert(msg.payload.end(), response.tenant.begin(),
                     response.tenant.end());
  AppendU64(response.epoch, &msg.payload);
  AppendU64(response.rows_ingested, &msg.payload);
  msg.payload.push_back(response.config.present ? 1 : 0);
  if (response.config.present) {
    const ConfigSummary& c = response.config;
    AppendU16(static_cast<uint16_t>(c.family.size()), &msg.payload);
    msg.payload.insert(msg.payload.end(), c.family.begin(), c.family.end());
    AppendF64(c.working_eps, &msg.payload);
    AppendU64(c.sketch_rows, &msg.payload);
    AppendU64(c.quantize_bits, &msg.payload);
    msg.payload.push_back(c.topology);
    AppendU64(c.fanout, &msg.payload);
    AppendF64(c.predicted_error, &msg.payload);
    AppendF64(c.error_hi, &msg.payload);
    AppendF64(c.coordinator_words, &msg.payload);
    AppendF64(c.total_wire_bytes, &msg.payload);
    msg.payload.push_back(c.binding);
  }
  wire::AppendDensePayload(response.sketch, &msg.payload);
  msg.words = response.sketch.size() > 0 ? response.sketch.size() : 1;
  return msg;
}

StatusOr<ServiceResponse> DecodeServiceResponse(
    const std::vector<uint8_t>& payload) {
  Reader r{payload.data(), payload.size()};
  uint8_t version = 0;
  uint8_t code = 0;
  uint16_t name_len = 0;
  if (!r.ReadU8(&version) || !r.ReadU8(&code) || !r.ReadU16(&name_len)) {
    return Status::InvalidArgument("service response: truncated header");
  }
  if (version != kServiceWireVersion) {
    return Status::InvalidArgument(
        "service response: wire version " + std::to_string(version) +
        " (this binary speaks " + std::to_string(kServiceWireVersion) + ")");
  }
  if (name_len > kMaxTenantNameBytes) {
    return Status::InvalidArgument("service response: tenant name too long");
  }
  if (r.pos + name_len > r.size) {
    return Status::InvalidArgument("service response: truncated tenant name");
  }
  ServiceResponse resp;
  resp.code = static_cast<StatusCode>(code);
  resp.tenant.assign(reinterpret_cast<const char*>(payload.data() + r.pos),
                     name_len);
  r.pos += name_len;
  if (!r.ReadU64(&resp.epoch) || !r.ReadU64(&resp.rows_ingested)) {
    return Status::InvalidArgument("service response: truncated counters");
  }
  uint8_t has_config = 0;
  if (!r.ReadU8(&has_config)) {
    return Status::InvalidArgument("service response: truncated config flag");
  }
  if (has_config != 0) {
    ConfigSummary& c = resp.config;
    c.present = true;
    uint16_t family_len = 0;
    if (!r.ReadU16(&family_len) || r.pos + family_len > r.size) {
      return Status::InvalidArgument(
          "service response: truncated config family");
    }
    c.family.assign(reinterpret_cast<const char*>(payload.data() + r.pos),
                    family_len);
    r.pos += family_len;
    if (!r.ReadF64(&c.working_eps) || !r.ReadU64(&c.sketch_rows) ||
        !r.ReadU64(&c.quantize_bits) || !r.ReadU8(&c.topology) ||
        !r.ReadU64(&c.fanout) || !r.ReadF64(&c.predicted_error) ||
        !r.ReadF64(&c.error_hi) || !r.ReadF64(&c.coordinator_words) ||
        !r.ReadF64(&c.total_wire_bytes) || !r.ReadU8(&c.binding)) {
      return Status::InvalidArgument(
          "service response: truncated config block");
    }
  }
  DS_ASSIGN_OR_RETURN(
      wire::DecodedMatrix body,
      wire::DecodeMatrixPayload(payload.data() + r.pos, r.size - r.pos));
  resp.sketch = std::move(body.matrix);
  return resp;
}

}  // namespace distsketch
