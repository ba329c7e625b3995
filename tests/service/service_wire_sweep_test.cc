// Corruption sweeps over the service wire: every truncation and every
// single-bit flip of each encoded request kind through
// DecodeServiceRequest, and of a query and a configure response through
// DecodeServiceResponse. A damaged payload must come back as an error
// or as a well-formed value, never as a crash or an out-of-bounds read
// (the asan-ubsan job runs this under ASan). The frame checksum
// catches these before the decoder in a real transfer; the decoder
// still must not trust its input.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../corruption_sweep.h"
#include "service/service_wire.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

using testing::ForEachBitFlip;
using testing::ForEachTruncation;

// Decodes `payload`; on success touches every decoded field, so a
// decoder that built a value out of bytes it never had shows up under
// ASan.
void DecodeRequestSafely(const std::vector<uint8_t>& payload,
                         const std::string& what) {
  StatusOr<ServiceRequest> req = DecodeServiceRequest(payload);
  if (!req.ok()) {
    EXPECT_EQ(req.status().code(), StatusCode::kInvalidArgument) << what;
    return;
  }
  double sum = 0.0;
  for (size_t i = 0; i < req->rows.size(); ++i) sum += req->rows.data()[i];
  EXPECT_LE(req->tenant.size(), payload.size()) << what;
  EXPECT_LE(req->rows.size() * sizeof(double), payload.size()) << what;
  (void)sum;
}

void DecodeResponseSafely(const std::vector<uint8_t>& payload,
                          const std::string& what) {
  StatusOr<ServiceResponse> resp = DecodeServiceResponse(payload);
  if (!resp.ok()) {
    EXPECT_EQ(resp.status().code(), StatusCode::kInvalidArgument) << what;
    return;
  }
  double sum = 0.0;
  for (size_t i = 0; i < resp->sketch.size(); ++i) {
    sum += resp->sketch.data()[i];
  }
  EXPECT_LE(resp->tenant.size(), payload.size()) << what;
  EXPECT_LE(resp->config.family.size(), payload.size()) << what;
  EXPECT_LE(resp->sketch.size() * sizeof(double), payload.size()) << what;
  (void)sum;
}

void SweepRequest(const wire::Message& msg) {
  ASSERT_TRUE(DecodeServiceRequest(msg.payload).ok());
  ForEachTruncation(msg.payload, DecodeRequestSafely);
  ForEachBitFlip(msg.payload, DecodeRequestSafely);
}

void SweepResponse(const wire::Message& msg) {
  ASSERT_TRUE(DecodeServiceResponse(msg.payload).ok());
  ForEachTruncation(msg.payload, DecodeResponseSafely);
  ForEachBitFlip(msg.payload, DecodeResponseSafely);
}

TEST(ServiceWireSweep, IngestRequest) {
  SweepRequest(
      EncodeIngestRequest("tenant-7", GenerateGaussian(3, 4, 1.0, 11)));
}

TEST(ServiceWireSweep, FlushRequest) {
  SweepRequest(EncodeFlushRequest("tenant-7"));
}

TEST(ServiceWireSweep, QueryRequest) {
  SweepRequest(EncodeQueryRequest("tenant-7"));
}

TEST(ServiceWireSweep, ConfigureRequest) {
  ConfigureParams params;
  params.eps = 0.05;
  params.k = 3;
  params.num_servers = 16;
  params.dim = 32;
  params.expected_rows = 1 << 16;
  params.budget_coordinator_words = 4096;
  SweepRequest(EncodeConfigureRequest("tenant-7", params));
}

TEST(ServiceWireSweep, QueryResponse) {
  ServiceResponse resp;
  resp.tenant = "tenant-7";
  resp.epoch = 5;
  resp.rows_ingested = 1234;
  resp.sketch = GenerateGaussian(4, 3, 1.0, 12);
  SweepResponse(EncodeServiceResponse(resp));
}

TEST(ServiceWireSweep, ConfigureResponse) {
  ServiceResponse resp;
  resp.tenant = "tenant-7";
  resp.config.present = true;
  resp.config.family = "fd_merge";
  resp.config.working_eps = 0.05;
  resp.config.sketch_rows = 21;
  resp.config.topology = 1;
  resp.config.fanout = 8;
  resp.config.predicted_error = 0.01;
  resp.config.error_hi = 0.02;
  SweepResponse(EncodeServiceResponse(resp));
}

}  // namespace
}  // namespace distsketch
