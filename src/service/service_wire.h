#ifndef DISTSKETCH_SERVICE_SERVICE_WIRE_H_
#define DISTSKETCH_SERVICE_SERVICE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"
#include "wire/message.h"

namespace distsketch {

/// Version byte leading every service request and response payload.
/// Unlike the frozen v1 sketch formats (wire/codec.h), the service wire
/// evolves with the binary — the version byte is what lets a peer built
/// against a different layout fail loudly (InvalidArgument) instead of
/// misparsing the bytes that follow. Bumped whenever the layout changes
/// (v2 added the version byte itself plus the kConfigure params and the
/// response config block).
inline constexpr uint8_t kServiceWireVersion = 2;

/// Request kinds the sketch service accepts. Values are on the wire
/// (payload byte after the version); never renumber.
enum class ServiceRequestKind : uint8_t {
  /// Absorb a batch of rows into the tenant's epoch sketch.
  kIngest = 1,
  /// Seal the tenant's current epoch (merge into the coordinator
  /// sketch) and checkpoint it, regardless of fill level.
  kFlush = 2,
  /// Return the tenant's current sketch (coordinator merged with the
  /// open epoch).
  kQuery = 3,
  /// Provision a new tenant from a goal + budget: the service runs the
  /// constraint solver (autoconf) and sizes the tenant from the winning
  /// plan. The front door — callers state what they need, not how.
  kConfigure = 4,
};

/// The goal/budget/shape block of a kConfigure request (the wire form of
/// autoconf's SketchGoal + Budget + InstanceShape). Budgets of 0 mean
/// unconstrained.
struct ConfigureParams {
  double eps = 0.1;
  double delta = 0.1;
  uint64_t k = 0;
  bool allow_randomized = true;
  bool arbitrary_partition = false;
  uint64_t budget_coordinator_words = 0;
  uint64_t budget_total_wire_bytes = 0;
  uint64_t budget_critical_path_words = 0;
  /// Instance shape the plan prices: servers holding the row partition,
  /// row dimension, expected total rows.
  uint64_t num_servers = 1;
  uint64_t dim = 0;
  uint64_t expected_rows = 0;
  /// Tenant epoch sizing (service-level policy, not solved for).
  uint64_t epoch_rows = 256;
};

/// The solved configuration echoed in a kConfigure response — the
/// machine-checkable rationale a client can audit or hand to
/// autoconf::BuildProtocol.
struct ConfigSummary {
  /// False on non-configure responses (nothing else set).
  bool present = false;
  /// Calibration family key (autoconf::FamilyKey: fd_merge, fd_merge_q,
  /// svs_linear, ...).
  std::string family;
  double working_eps = 0.0;
  uint64_t sketch_rows = 0;
  uint64_t quantize_bits = 0;
  /// TopologyKind as its wire value (0 star, 1 tree, 2 pipeline) + fanout.
  uint8_t topology = 0;
  uint64_t fanout = 0;
  /// Predicted measured error (relative to ||A||_F^2) with its band.
  double predicted_error = 0.0;
  double error_hi = 0.0;
  /// Predicted communication of the provisioned protocol.
  double coordinator_words = 0.0;
  double total_wire_bytes = 0.0;
  /// autoconf::BindingConstraint as its wire value.
  uint8_t binding = 0;
};

/// A decoded service request. `rows` is populated for kIngest only;
/// `configure` for kConfigure only.
struct ServiceRequest {
  ServiceRequestKind kind = ServiceRequestKind::kIngest;
  std::string tenant;
  Matrix rows;
  ConfigureParams configure{};
};

/// One response per request — the no-silent-drops contract: every
/// accepted submit produces exactly one response, and failures carry a
/// typed code (kOverloaded for shed work, kUnavailable for wire loss).
struct ServiceResponse {
  StatusCode code = StatusCode::kOk;
  std::string tenant;
  /// Epochs sealed for this tenant so far.
  uint64_t epoch = 0;
  /// Rows this tenant has ingested in total (after this request).
  uint64_t rows_ingested = 0;
  /// kQuery: the sketch matrix. Empty otherwise.
  Matrix sketch;
  /// kConfigure: the solved plan (present == true). Default otherwise.
  ConfigSummary config;
};

/// Request payload layout (always framed as a wire::Message so the
/// transport meters, checksums, and fault-injects it like any protocol
/// transfer):
///   [u8 version][u8 kind][u16 tenant_len][tenant bytes]
///   [dense matrix payload]
/// The matrix payload is the self-describing DSMT encoding (codec.h);
/// kFlush/kQuery carry a 0x0 matrix. Metered words = rows * dim for
/// ingest (the paper's convention), 1 for the control requests.
wire::Message EncodeIngestRequest(const std::string& tenant,
                                  const Matrix& rows);
wire::Message EncodeFlushRequest(const std::string& tenant);
wire::Message EncodeQueryRequest(const std::string& tenant);
/// kConfigure carries a fixed-size params block between the tenant name
/// and the (empty) matrix payload; doubles travel as IEEE-754 bit
/// patterns in the u64 little-endian encoding.
wire::Message EncodeConfigureRequest(const std::string& tenant,
                                     const ConfigureParams& params);

/// Decodes any request payload. Rejects version mismatches, malformed
/// layouts and tenant names longer than 255 bytes with InvalidArgument.
StatusOr<ServiceRequest> DecodeServiceRequest(
    const std::vector<uint8_t>& payload);

/// Response payload layout:
///   [u8 version][u8 code][u16 tenant_len][tenant bytes]
///   [u64 epoch][u64 rows]
///   [u8 has_config][config block when has_config = 1]
///   [dense matrix payload]
wire::Message EncodeServiceResponse(const ServiceResponse& response);
StatusOr<ServiceResponse> DecodeServiceResponse(
    const std::vector<uint8_t>& payload);

}  // namespace distsketch

#endif  // DISTSKETCH_SERVICE_SERVICE_WIRE_H_
