// The multi-tenant sketch service: request/response wire round-trips,
// the tenant epoch-merge state machine, admission control and typed
// kOverloaded shedding, LRU eviction with bit-identical checkpoint
// restore (pinned against a never-evicted shadow tenant), batch
// determinism across thread-pool widths, the runner's full overload
// ladder (queue shed / wire loss / decode failure / registry full),
// concurrent submitters, and a runner destroyed with a queue.

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "service/service_runner.h"
#include "service/service_wire.h"
#include "service/sketch_service.h"
#include "service/tenant.h"
#include "sketch/error_metrics.h"
#include "store/sketch_store.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

constexpr size_t kDim = 8;

uint64_t MatrixDigest(const Matrix& m) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  mix(m.rows());
  mix(m.cols());
  for (size_t i = 0; i < m.size(); ++i) {
    uint64_t bits;
    std::memcpy(&bits, m.data() + i, 8);
    mix(bits);
  }
  return h;
}

Matrix Rows(size_t n, uint64_t seed) {
  return GenerateGaussian(n, kDim, 1.0, seed);
}

TenantOptions SmallTenant() {
  return TenantOptions{.dim = kDim, .eps = 0.25, .epoch_rows = 16};
}

class StoreDir {
 public:
  StoreDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("svc_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::remove_all(dir_);
  }
  ~StoreDir() { std::filesystem::remove_all(dir_); }
  std::string path() const { return dir_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

TEST(ServiceWire, RequestRoundTrip) {
  const Matrix rows = Rows(5, 11);
  const wire::Message msg = EncodeIngestRequest("tenant-a", rows);
  EXPECT_EQ(msg.tag, "svc/ingest");
  EXPECT_EQ(msg.words, rows.size());
  auto req = DecodeServiceRequest(msg.payload);
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->kind, ServiceRequestKind::kIngest);
  EXPECT_EQ(req->tenant, "tenant-a");
  EXPECT_EQ(MatrixDigest(req->rows), MatrixDigest(rows));

  auto flush = DecodeServiceRequest(EncodeFlushRequest("t").payload);
  ASSERT_TRUE(flush.ok());
  EXPECT_EQ(flush->kind, ServiceRequestKind::kFlush);
  auto query = DecodeServiceRequest(EncodeQueryRequest("t").payload);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->kind, ServiceRequestKind::kQuery);
}

TEST(ServiceWire, ResponseRoundTrip) {
  ServiceResponse resp;
  resp.code = StatusCode::kOverloaded;
  resp.tenant = "t9";
  resp.epoch = 7;
  resp.rows_ingested = 1234;
  resp.sketch = Rows(3, 5);
  const wire::Message msg = EncodeServiceResponse(resp);
  EXPECT_EQ(msg.tag, "svc/response");
  auto decoded = DecodeServiceResponse(msg.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kOverloaded);
  EXPECT_EQ(decoded->tenant, "t9");
  EXPECT_EQ(decoded->epoch, 7u);
  EXPECT_EQ(decoded->rows_ingested, 1234u);
  EXPECT_EQ(MatrixDigest(decoded->sketch), MatrixDigest(resp.sketch));
}

TEST(ServiceWire, RejectsMalformedRequests) {
  EXPECT_FALSE(DecodeServiceRequest({}).ok());
  // Unknown kind (behind a valid version byte).
  EXPECT_FALSE(DecodeServiceRequest({kServiceWireVersion, 9, 0, 0}).ok());
  wire::Message msg = EncodeIngestRequest("t", Rows(2, 1));
  msg.payload.resize(msg.payload.size() / 2);  // truncated body
  EXPECT_FALSE(DecodeServiceRequest(msg.payload).ok());
}

TEST(ServiceWire, RejectsForeignWireVersions) {
  // A peer speaking a different service-wire layout must fail loudly at
  // the version byte, not misparse the bytes that follow.
  wire::Message req = EncodeIngestRequest("t", Rows(2, 1));
  ASSERT_EQ(req.payload[0], kServiceWireVersion);
  req.payload[0] = kServiceWireVersion + 1;
  EXPECT_FALSE(DecodeServiceRequest(req.payload).ok());

  ServiceResponse resp;
  resp.tenant = "t";
  wire::Message enc = EncodeServiceResponse(resp);
  ASSERT_EQ(enc.payload[0], kServiceWireVersion);
  enc.payload[0] = 0;
  EXPECT_FALSE(DecodeServiceResponse(enc.payload).ok());
}

TEST(TenantSketch, EpochMergeMatchesSingleSketch) {
  auto tenant = TenantSketch::Create("t", SmallTenant());
  ASSERT_TRUE(tenant.ok());
  auto reference =
      FrequentDirections::FromEps(kDim, SmallTenant().eps);
  ASSERT_TRUE(reference.ok());

  // Epoch boundaries are merges of mergeable summaries: driving the
  // same rows through seal cycles must track a single FD sketch fed the
  // epoch sketches via Merge — which is exactly what SealEpoch does.
  uint64_t seals = 0;
  for (int batch = 0; batch < 10; ++batch) {
    const Matrix rows = Rows(7, 100 + batch);
    ASSERT_TRUE(tenant->AbsorbRows(rows).ok());
    while (tenant->EpochReady()) {
      tenant->SealEpoch();
      ++seals;
    }
  }
  EXPECT_GT(seals, 0u);
  EXPECT_EQ(tenant->epoch(), seals);
  EXPECT_EQ(tenant->rows_ingested(), 70u);

  auto query = tenant->Query();
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->cols(), kDim);

  // Checkpoint -> restore round trip is bit-identical, including the
  // open (unsealed) epoch.
  auto restored =
      TenantSketch::Restore("t", SmallTenant(), tenant->Checkpoint());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->epoch(), tenant->epoch());
  EXPECT_EQ(restored->rows_in_epoch(), tenant->rows_in_epoch());
  auto restored_query = restored->Query();
  ASSERT_TRUE(restored_query.ok());
  EXPECT_EQ(MatrixDigest(*restored_query), MatrixDigest(*query));
  EXPECT_EQ(restored->Checkpoint(), tenant->Checkpoint());
}

TEST(SketchService, IngestSealsEpochsAndAnswersQueries) {
  auto service = SketchService::Create(
      {.tenant = SmallTenant(), .max_tenants = 8, .max_resident = 8});
  ASSERT_TRUE(service.ok());
  ServiceRequest ingest{ServiceRequestKind::kIngest, "a", Rows(40, 3)};
  ServiceResponse resp = service->Handle(ingest);
  EXPECT_EQ(resp.code, StatusCode::kOk);
  EXPECT_EQ(resp.rows_ingested, 40u);
  // One seal: a seal closes the whole open epoch (40 rows >= 16), so a
  // single oversized batch crosses the boundary once.
  EXPECT_EQ(resp.epoch, 1u);

  ServiceResponse query =
      service->Handle({ServiceRequestKind::kQuery, "a", Matrix(0, 0)});
  EXPECT_EQ(query.code, StatusCode::kOk);
  EXPECT_EQ(query.sketch.cols(), kDim);
  EXPECT_GT(query.sketch.rows(), 0u);

  // Bad tenant names are rejected, not admitted.
  ServiceResponse bad =
      service->Handle({ServiceRequestKind::kIngest, "../evil", Rows(1, 1)});
  EXPECT_EQ(bad.code, StatusCode::kInvalidArgument);
  EXPECT_EQ(service->known_tenants(), 1u);
}

// A NaN or Inf in one ingest row used to reach FD's next shrink and abort
// the process in the eigensolve. The batch is now refused whole: the
// request is answered with an error, the next one is served, and the
// tenant's sketch matches a shadow that never saw the poisoned batch.
TEST(SketchService, NonFiniteIngestRowIsRefusedWithoutTouchingTheTenant) {
  constexpr size_t kWide = 32;
  const TenantOptions tenant{.dim = kWide, .eps = 0.25, .epoch_rows = 16};
  const double kPoison[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
  for (const double poison : kPoison) {
    SCOPED_TRACE(poison);
    auto service = SketchService::Create(
        {.tenant = tenant, .max_tenants = 4, .max_resident = 4});
    auto shadow = SketchService::Create(
        {.tenant = tenant, .max_tenants = 4, .max_resident = 4});
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE(shadow.ok());
    const ServiceRequest first{ServiceRequestKind::kIngest, "a",
                               GenerateGaussian(64, kWide, 1.0, 41)};
    EXPECT_EQ(service->Handle(first).code, StatusCode::kOk);
    EXPECT_EQ(shadow->Handle(first).code, StatusCode::kOk);

    Matrix bad = GenerateGaussian(64, kWide, 1.0, 42);
    bad(37, 5) = poison;
    const ServiceResponse refused =
        service->Handle({ServiceRequestKind::kIngest, "a", bad});
    EXPECT_EQ(refused.code, StatusCode::kInvalidArgument);

    const ServiceRequest next{ServiceRequestKind::kIngest, "a",
                              GenerateGaussian(64, kWide, 1.0, 43)};
    EXPECT_EQ(service->Handle(next).code, StatusCode::kOk);
    EXPECT_EQ(shadow->Handle(next).code, StatusCode::kOk);

    const ServiceRequest query{ServiceRequestKind::kQuery, "a", Matrix(0, 0)};
    const ServiceResponse got = service->Handle(query);
    const ServiceResponse want = shadow->Handle(query);
    ASSERT_EQ(got.code, StatusCode::kOk);
    ASSERT_EQ(want.code, StatusCode::kOk);
    EXPECT_EQ(got.rows_ingested, 128u);
    EXPECT_EQ(got.rows_ingested, want.rows_ingested);
    EXPECT_EQ(got.epoch, want.epoch);
    EXPECT_EQ(MatrixDigest(got.sketch), MatrixDigest(want.sketch));
  }
}

// A huge but finite entry is valid ingest. Through a d <= 2l tenant (the
// column-Gram shrink) it used to overflow sigma^2 and abort the process in
// the next shrink's eigensolve; a d > 2l tenant now takes one block shrink
// per request through the same column shrink. Both tenants answer the
// request, serve the next one and answer queries with a finite sketch.
TEST(SketchService, HugeFiniteIngestEntryDoesNotAbort) {
  auto request = [](ServiceRequestKind kind, Matrix rows) {
    ServiceRequest req;
    req.kind = kind;
    req.tenant = "a";
    req.rows = std::move(rows);
    return req;
  };
  for (const size_t dim : {size_t{16}, size_t{32}}) {
    for (const double big : {1e160, 1e200, 1e300}) {
      SCOPED_TRACE(testing::Message() << "dim=" << dim << " big=" << big);
      const TenantOptions tenant{.dim = dim, .eps = 0.1, .epoch_rows = 96};
      auto service = SketchService::Create(
          {.tenant = tenant, .max_tenants = 4, .max_resident = 4});
      ASSERT_TRUE(service.ok());
      Matrix huge = GenerateGaussian(64, dim, 1.0, 51);
      huge(37, 5) = big;
      const ServiceResponse absorbed =
          service->Handle(request(ServiceRequestKind::kIngest, huge));
      EXPECT_EQ(absorbed.code, StatusCode::kOk);
      for (uint64_t seed = 52; seed < 54; ++seed) {
        const ServiceResponse next = service->Handle(request(
            ServiceRequestKind::kIngest, GenerateGaussian(64, dim, 1.0, seed)));
        EXPECT_EQ(next.code, StatusCode::kOk);
      }
      const ServiceResponse query =
          service->Handle(request(ServiceRequestKind::kQuery, Matrix(0, 0)));
      ASSERT_EQ(query.code, StatusCode::kOk);
      EXPECT_EQ(query.rows_ingested, 192u);
      EXPECT_EQ(query.epoch, 1u);
      ASSERT_GT(query.sketch.rows(), 0u);
      for (size_t k = 0; k < query.sketch.size(); ++k) {
        ASSERT_TRUE(std::isfinite(query.sketch.data()[k])) << k;
      }
    }
  }
}

TEST(SketchService, AdmissionControlShedsBeyondMaxTenants) {
  auto service = SketchService::Create(
      {.tenant = SmallTenant(), .max_tenants = 3, .max_resident = 3});
  ASSERT_TRUE(service.ok());
  for (int i = 0; i < 3; ++i) {
    ServiceResponse r = service->Handle({ServiceRequestKind::kIngest,
                                         "t" + std::to_string(i),
                                         Rows(2, i)});
    EXPECT_EQ(r.code, StatusCode::kOk);
  }
  ServiceResponse shed =
      service->Handle({ServiceRequestKind::kIngest, "t3", Rows(2, 9)});
  EXPECT_EQ(shed.code, StatusCode::kOverloaded);
  EXPECT_EQ(service->shed(), 1u);
  EXPECT_EQ(service->known_tenants(), 3u);
  // Existing tenants keep working while new ones shed.
  ServiceResponse ok =
      service->Handle({ServiceRequestKind::kIngest, "t0", Rows(2, 10)});
  EXPECT_EQ(ok.code, StatusCode::kOk);
}

TEST(SketchService, EvictionRestoreIsBitIdenticalToNeverEvicted) {
  StoreDir dir;
  auto store = SketchStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  auto evicting = SketchService::Create({.tenant = SmallTenant(),
                                         .max_tenants = 64,
                                         .max_resident = 2,
                                         .store = &*store});
  ASSERT_TRUE(evicting.ok());
  auto shadow = SketchService::Create(
      {.tenant = SmallTenant(), .max_tenants = 64, .max_resident = 64});
  ASSERT_TRUE(shadow.ok());

  // Interleave ingest over 6 tenants with only 2 resident slots: every
  // touch of a cold tenant forces an evict + restore cycle.
  constexpr int kTenants = 6;
  for (int round = 0; round < 5; ++round) {
    for (int t = 0; t < kTenants; ++t) {
      const std::string name = "tenant" + std::to_string(t);
      const Matrix rows = Rows(9, 1000 + round * kTenants + t);
      ServiceRequest req{ServiceRequestKind::kIngest, name, rows};
      EXPECT_EQ(evicting->Handle(req).code, StatusCode::kOk);
      EXPECT_EQ(shadow->Handle(req).code, StatusCode::kOk);
    }
  }
  EXPECT_GT(evicting->evictions(), 0u);
  EXPECT_GT(evicting->restores(), 0u);
  EXPECT_LE(evicting->resident_tenants(), 2u);
  EXPECT_EQ(shadow->evictions(), 0u);

  // Every tenant's query answer is bit-identical to the never-evicted
  // shadow copy — checkpoint/restore is exact, not approximate.
  for (int t = 0; t < kTenants; ++t) {
    const std::string name = "tenant" + std::to_string(t);
    ServiceRequest query{ServiceRequestKind::kQuery, name, Matrix(0, 0)};
    ServiceResponse a = evicting->Handle(query);
    ServiceResponse b = shadow->Handle(query);
    ASSERT_EQ(a.code, StatusCode::kOk) << name;
    ASSERT_EQ(b.code, StatusCode::kOk) << name;
    EXPECT_EQ(a.rows_ingested, b.rows_ingested) << name;
    EXPECT_EQ(a.epoch, b.epoch) << name;
    EXPECT_EQ(MatrixDigest(a.sketch), MatrixDigest(b.sketch)) << name;
  }
}

TEST(SketchService, ExplicitEvictThenTouchRestores) {
  StoreDir dir;
  auto store = SketchStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  auto service = SketchService::Create({.tenant = SmallTenant(),
                                        .max_tenants = 8,
                                        .max_resident = 8,
                                        .store = &*store});
  ASSERT_TRUE(service.ok());
  service->Handle({ServiceRequestKind::kIngest, "a", Rows(20, 1)});
  ServiceResponse before =
      service->Handle({ServiceRequestKind::kQuery, "a", Matrix(0, 0)});
  ASSERT_EQ(before.code, StatusCode::kOk);

  ASSERT_TRUE(service->EvictTenant("a").ok());
  EXPECT_EQ(service->resident_tenants(), 0u);
  EXPECT_EQ(service->known_tenants(), 1u);

  ServiceResponse after =
      service->Handle({ServiceRequestKind::kQuery, "a", Matrix(0, 0)});
  ASSERT_EQ(after.code, StatusCode::kOk);
  EXPECT_EQ(service->restores(), 1u);
  EXPECT_EQ(MatrixDigest(after.sketch), MatrixDigest(before.sketch));
}

// The eviction rule as it was first written: scan every resident tenant,
// skip the ones the in-flight batch pinned, evict the smallest
// last_touch. The service's touch-ordered list must pick the same
// victims.
struct LruModel {
  size_t max_resident = 0;
  std::map<std::string, uint64_t> last_touch;  // resident tenants
  std::set<std::string> known;
  uint64_t clock = 0;
  uint64_t evictions = 0;
  uint64_t restores = 0;

  /// Admits or touches `name` for a batch that pinned `pinned`; false
  /// when residency is full and every resident tenant is pinned.
  bool Touch(const std::string& name, std::set<std::string>& pinned,
             std::vector<std::string>& victims) {
    if (last_touch.count(name) == 0 && last_touch.size() >= max_resident) {
      const std::string* victim = nullptr;
      for (const auto& [tenant, touch] : last_touch) {
        if (pinned.count(tenant) > 0) continue;
        if (victim == nullptr || touch < last_touch.at(*victim)) {
          victim = &tenant;
        }
      }
      if (victim == nullptr) return false;
      victims.push_back(*victim);
      last_touch.erase(victims.back());
      ++evictions;
    }
    if (last_touch.count(name) == 0 && !known.insert(name).second) {
      ++restores;
    }
    last_touch[name] = ++clock;
    pinned.insert(name);
    return true;
  }
};

// A random admission script over 16 tenants with 5 resident slots: most
// steps are one request (at most one eviction, so the resident set names
// the victim), the rest batches of up to 7 requests (pins, including
// batches that pin every slot and shed). Every step checks the resident
// set, the eviction and restore counts and the response codes against
// the model; every query answer must match a never-evicting shadow fed
// the same accepted requests.
TEST(SketchService, LruIndexEvictsTheSameVictimsAsTheFullScan) {
  StoreDir dir;
  auto store = SketchStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  constexpr size_t kTenants = 16;
  constexpr size_t kResident = 5;
  auto service = SketchService::Create({.tenant = SmallTenant(),
                                        .max_tenants = 64,
                                        .max_resident = kResident,
                                        .store = &*store});
  auto shadow = SketchService::Create(
      {.tenant = SmallTenant(), .max_tenants = 64, .max_resident = 64});
  ASSERT_TRUE(service.ok() && shadow.ok());
  LruModel model;
  model.max_resident = kResident;

  std::mt19937_64 rng(2027);
  auto draw = [&rng](uint64_t n) { return rng() % n; };
  size_t victims_seen = 0;
  size_t sheds_seen = 0;
  size_t queries_seen = 0;
  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    const size_t requests = draw(3) == 0 ? 2 + draw(6) : 1;
    std::vector<ServiceRequest> batch;
    for (size_t r = 0; r < requests; ++r) {
      // Skewed draw: low-numbered tenants are hot, the rest cycle out.
      const uint64_t t = std::min(draw(kTenants), draw(kTenants));
      const std::string name = "t" + std::to_string(t);
      ServiceRequest req;
      req.tenant = name;
      if (draw(5) == 0) {
        req.kind = ServiceRequestKind::kQuery;
      } else {
        req.rows = Rows(5, 7000 + 10 * step + r);
      }
      batch.push_back(std::move(req));
    }

    std::set<std::string> pinned;
    std::vector<std::string> victims;
    std::vector<uint8_t> accepted(batch.size(), 0);
    std::vector<ServiceRequest> shadow_batch;
    for (size_t r = 0; r < batch.size(); ++r) {
      accepted[r] = model.Touch(batch[r].tenant, pinned, victims) ? 1 : 0;
      if (accepted[r]) shadow_batch.push_back(batch[r]);
    }
    const std::vector<ServiceResponse> got = service->HandleBatch(batch);
    const std::vector<ServiceResponse> want = shadow->HandleBatch(shadow_batch);

    size_t next_shadow = 0;
    for (size_t r = 0; r < batch.size(); ++r) {
      if (!accepted[r]) {
        EXPECT_EQ(got[r].code, StatusCode::kOverloaded) << "request " << r;
        ++sheds_seen;
        continue;
      }
      const ServiceResponse& expect = want[next_shadow++];
      ASSERT_EQ(got[r].code, StatusCode::kOk) << "request " << r;
      EXPECT_EQ(got[r].epoch, expect.epoch) << "request " << r;
      EXPECT_EQ(got[r].rows_ingested, expect.rows_ingested) << "request " << r;
      if (batch[r].kind == ServiceRequestKind::kQuery) {
        EXPECT_EQ(MatrixDigest(got[r].sketch), MatrixDigest(expect.sketch))
            << "request " << r;
        ++queries_seen;
      }
    }
    victims_seen += victims.size();
    for (size_t t = 0; t < kTenants; ++t) {
      const std::string name = "t" + std::to_string(t);
      EXPECT_EQ(service->IsResident(name), model.last_touch.count(name) > 0)
          << name;
    }
    ASSERT_EQ(service->evictions(), model.evictions);
    ASSERT_EQ(service->restores(), model.restores);
  }
  // The script must exercise what it checks.
  EXPECT_GT(victims_seen, 100u);
  EXPECT_GT(sheds_seen, 0u);
  EXPECT_GT(queries_seen, 50u);
}

TEST(SketchService, BatchResultsIdenticalAcrossThreadWidths) {
  const size_t saved_threads = ThreadPool::GlobalThreads();
  std::vector<uint64_t> digests;
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    ThreadPool::SetGlobalThreads(threads);
    auto service = SketchService::Create(
        {.tenant = SmallTenant(), .max_tenants = 32, .max_resident = 32});
    ASSERT_TRUE(service.ok());
    std::vector<ServiceRequest> batch;
    for (int i = 0; i < 24; ++i) {
      batch.push_back({ServiceRequestKind::kIngest,
                       "t" + std::to_string(i % 6), Rows(11, 40 + i)});
    }
    for (int t = 0; t < 6; ++t) {
      batch.push_back(
          {ServiceRequestKind::kQuery, "t" + std::to_string(t), Matrix(0, 0)});
    }
    std::vector<ServiceResponse> responses = service->HandleBatch(batch);
    uint64_t digest = 0xcbf29ce484222325ULL;
    for (const ServiceResponse& r : responses) {
      digest ^= MatrixDigest(r.sketch) + r.epoch + r.rows_ingested +
                static_cast<uint64_t>(r.code);
      digest *= 0x100000001b3ULL;
    }
    digests.push_back(digest);
  }
  ThreadPool::SetGlobalThreads(saved_threads);
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(SketchService, BatchMatchesRequestAtATime) {
  auto batched = SketchService::Create(
      {.tenant = SmallTenant(), .max_tenants = 16, .max_resident = 16});
  auto serial = SketchService::Create(
      {.tenant = SmallTenant(), .max_tenants = 16, .max_resident = 16});
  ASSERT_TRUE(batched.ok() && serial.ok());
  std::vector<ServiceRequest> batch;
  for (int i = 0; i < 18; ++i) {
    batch.push_back({ServiceRequestKind::kIngest, "t" + std::to_string(i % 4),
                     Rows(7, 300 + i)});
  }
  std::vector<ServiceResponse> from_batch = batched->HandleBatch(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    ServiceResponse one = serial->Handle(batch[i]);
    EXPECT_EQ(one.code, from_batch[i].code) << i;
    EXPECT_EQ(one.epoch, from_batch[i].epoch) << i;
    EXPECT_EQ(one.rows_ingested, from_batch[i].rows_ingested) << i;
  }
  for (int t = 0; t < 4; ++t) {
    ServiceRequest query{ServiceRequestKind::kQuery, "t" + std::to_string(t),
                         Matrix(0, 0)};
    EXPECT_EQ(MatrixDigest(batched->Handle(query).sketch),
              MatrixDigest(serial->Handle(query).sketch));
  }
}

TEST(SketchService, AggregateQueryCoversTheFleet) {
  auto service = SketchService::Create(
      {.tenant = SmallTenant(), .max_tenants = 8, .max_resident = 8});
  ASSERT_TRUE(service.ok());
  Matrix all(0, kDim);
  for (int t = 0; t < 5; ++t) {
    const Matrix rows = Rows(30, 500 + t);
    for (size_t r = 0; r < rows.rows(); ++r) all.AppendRow(rows.Row(r));
    ServiceResponse resp = service->Handle(
        {ServiceRequestKind::kIngest, "t" + std::to_string(t), rows});
    ASSERT_EQ(resp.code, StatusCode::kOk);
  }
  auto agg = service->AggregateQuery();
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->cols(), kDim);
  // Tenant sketches are eps-sketches of their own rows and the aggregate
  // tree shrink-merges them at the same eps; the compounded budget stays
  // within 3 eps of the fleet's rows (same constant the protocol-level
  // merge tests certify at).
  EXPECT_TRUE(IsEpsKSketch(all, *agg, 3.0 * SmallTenant().eps, 0));
  // Per-fanout results are all valid aggregates of the same fleet.
  for (const size_t fanout : {2u, 3u, 16u}) {
    auto other = service->AggregateQuery(fanout);
    ASSERT_TRUE(other.ok());
    EXPECT_TRUE(IsEpsKSketch(all, *other, 3.0 * SmallTenant().eps, 0))
        << "fanout=" << fanout;
  }
}

TEST(SketchService, AggregateQueryBitIdenticalAcrossThreadWidths) {
  const size_t saved_threads = ThreadPool::GlobalThreads();
  for (const size_t fanout : {2u, 8u}) {
    std::vector<uint64_t> digests;
    for (const size_t threads : {size_t{1}, size_t{8}}) {
      ThreadPool::SetGlobalThreads(threads);
      auto service = SketchService::Create(
          {.tenant = SmallTenant(), .max_tenants = 32, .max_resident = 32});
      ASSERT_TRUE(service.ok());
      for (int t = 0; t < 12; ++t) {
        service->Handle({ServiceRequestKind::kIngest,
                         "t" + std::to_string(t), Rows(9, 700 + t)});
      }
      auto agg = service->AggregateQuery(fanout);
      ASSERT_TRUE(agg.ok());
      digests.push_back(MatrixDigest(*agg));
    }
    EXPECT_EQ(digests[0], digests[1]) << "fanout=" << fanout;
  }
  ThreadPool::SetGlobalThreads(saved_threads);
}

TEST(SketchService, AggregateQueryLeavesTenantStateUntouched) {
  auto service = SketchService::Create(
      {.tenant = SmallTenant(), .max_tenants = 8, .max_resident = 8});
  ASSERT_TRUE(service.ok());
  for (int t = 0; t < 3; ++t) {
    service->Handle({ServiceRequestKind::kIngest, "t" + std::to_string(t),
                     Rows(13, 900 + t)});
  }
  const ServiceRequest query{ServiceRequestKind::kQuery, "t1", Matrix(0, 0)};
  const uint64_t before = MatrixDigest(service->Handle(query).sketch);
  auto first = service->AggregateQuery();
  ASSERT_TRUE(first.ok());
  auto second = service->AggregateQuery();
  ASSERT_TRUE(second.ok());
  // Read-only: repeated aggregates are identical and per-tenant queries
  // answer exactly as before.
  EXPECT_EQ(MatrixDigest(*first), MatrixDigest(*second));
  EXPECT_EQ(MatrixDigest(service->Handle(query).sketch), before);
}

TEST(SketchService, AggregateQueryValidation) {
  auto service = SketchService::Create(
      {.tenant = SmallTenant(), .max_tenants = 4, .max_resident = 4});
  ASSERT_TRUE(service.ok());
  auto empty = service->AggregateQuery();
  EXPECT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kFailedPrecondition);
  service->Handle({ServiceRequestKind::kIngest, "a", Rows(4, 1)});
  auto bad_fanout = service->AggregateQuery(1);
  EXPECT_FALSE(bad_fanout.ok());
  EXPECT_EQ(bad_fanout.status().code(), StatusCode::kInvalidArgument);
  auto ok = service->AggregateQuery(2);
  EXPECT_TRUE(ok.ok());
}

TEST(ServiceRunner, OverloadLadderAndResponseDelivery) {
  ServiceRunnerOptions options;
  options.service = {
      .tenant = SmallTenant(), .max_tenants = 2, .max_resident = 2};
  options.client_queue_capacity = 4;
  auto runner = ServiceRunner::Create(options);
  ASSERT_TRUE(runner.ok());

  std::vector<ServiceResponse> answers;
  auto collect = [&answers](const ServiceResponse& r) {
    answers.push_back(r);
  };

  // Client 0 fills its queue; the fifth submit sheds at the channel.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        (*runner)->SubmitIngest(0, "a", Rows(4, 10 + i), collect).ok());
  }
  Status shed = (*runner)->SubmitIngest(0, "a", Rows(4, 99), collect);
  EXPECT_EQ(shed.code(), StatusCode::kOverloaded);

  // A garbage frame is answered kInvalidArgument, not dropped.
  wire::Message garbage;
  garbage.tag = "svc/ingest";
  garbage.payload = {42, 42, 42};
  garbage.words = 1;
  ASSERT_TRUE((*runner)->Submit(1, garbage, collect).ok());

  // A third tenant beyond max_tenants gets a typed kOverloaded response.
  ASSERT_TRUE((*runner)->SubmitIngest(2, "b", Rows(2, 50), collect).ok());
  ASSERT_TRUE((*runner)->SubmitIngest(3, "c", Rows(2, 51), collect).ok());

  const size_t processed = (*runner)->Drain();
  EXPECT_EQ(processed, 7u);
  ASSERT_EQ(answers.size(), 7u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(answers[i].code, StatusCode::kOk) << i;
    EXPECT_EQ(answers[i].tenant, "a");
  }
  EXPECT_EQ(answers[4].code, StatusCode::kInvalidArgument);
  EXPECT_EQ(answers[5].code, StatusCode::kOk);
  EXPECT_EQ(answers[6].code, StatusCode::kOverloaded);
  EXPECT_EQ((*runner)->accepted(), 7u);
  EXPECT_EQ((*runner)->responded(), 7u);
  // Responses were metered on the runner's wire.
  EXPECT_GT((*runner)->log().Stats().total_wire_bytes, 0u);
}

TEST(ServiceRunner, WireLossAnswersUnavailableDeterministically) {
  auto run = [] {
    ServiceRunnerOptions options;
    options.service = {
        .tenant = SmallTenant(), .max_tenants = 64, .max_resident = 64};
    options.client_queue_capacity = 256;
    FaultConfig fc;
    fc.default_profile.drop_prob = 0.3;
    fc.max_retries = 1;
    fc.seed = 555;
    options.faults = fc;
    auto runner = ServiceRunner::Create(options);
    DS_CHECK(runner.ok());
    std::vector<StatusCode> codes;
    for (int i = 0; i < 40; ++i) {
      Status s = (*runner)->SubmitIngest(
          i % 8, "t" + std::to_string(i % 8), Rows(3, 600 + i),
          [&codes](const ServiceResponse& r) { codes.push_back(r.code); });
      DS_CHECK(s.ok());
    }
    (*runner)->Drain();
    return std::make_pair(codes, (*runner)->wire_lost());
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  EXPECT_GT(first.second, 0u);  // the plan actually lost requests
  size_t unavailable = 0;
  for (const StatusCode c : first.first) {
    if (c == StatusCode::kUnavailable) ++unavailable;
  }
  EXPECT_EQ(unavailable, first.second);
  EXPECT_EQ(first.first.size(), 40u);  // every accepted submit answered
}

// Only Drain executes submissions: a runner destroyed with a queue
// answers none of it and does not touch its state while being torn down.
TEST(ServiceRunner, DestroyedWithoutDrainFiresNoCallback) {
  ServiceRunnerOptions options;
  options.service = {
      .tenant = SmallTenant(), .max_tenants = 4, .max_resident = 4};
  int callbacks = 0;
  {
    auto runner = ServiceRunner::Create(options);
    ASSERT_TRUE(runner.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*runner)
                      ->SubmitIngest(i, "a", Rows(4, 70 + i),
                                     [&callbacks](const ServiceResponse&) {
                                       ++callbacks;
                                     })
                      .ok());
    }
    EXPECT_EQ((*runner)->accepted(), 3u);
  }
  EXPECT_EQ(callbacks, 0);
}

// Submit is safe from many threads at once. Nothing drains while they
// run, so each client accepts exactly its queue capacity whatever the
// interleaving; one Drain then answers every accepted request exactly
// once and no shed one.
TEST(ServiceRunner, ConcurrentSubmitThenOneDrainAnswersEachAcceptedOnce) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 24;
  constexpr int kClients = 3;
  constexpr size_t kCapacity = 16;
  ServiceRunnerOptions options;
  options.service = {
      .tenant = SmallTenant(), .max_tenants = 8, .max_resident = 8};
  options.client_queue_capacity = kCapacity;
  auto runner = ServiceRunner::Create(options);
  ASSERT_TRUE(runner.ok());
  ServiceRunner& r = **runner;

  std::vector<int> answered(kThreads * kPerThread, 0);
  std::vector<std::vector<uint8_t>> accepted(kThreads,
                                             std::vector<uint8_t>(kPerThread));
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int id = t * kPerThread + i;
        const int client = i % kClients;
        const Status s = r.SubmitIngest(
            client, "t" + std::to_string(client), Rows(2, 900 + id),
            [&answered, id](const ServiceResponse&) { ++answered[id]; });
        ASSERT_TRUE(s.ok() || s.code() == StatusCode::kOverloaded);
        accepted[t][i] = s.ok();
      }
    });
  }
  for (auto& p : producers) p.join();
  EXPECT_EQ(r.accepted(), kClients * kCapacity);

  EXPECT_EQ(r.Drain(), kClients * kCapacity);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_EQ(answered[t * kPerThread + i], accepted[t][i] ? 1 : 0)
          << "thread " << t << " request " << i;
    }
  }
  EXPECT_EQ(r.accepted(), r.responded());
}

}  // namespace
}  // namespace distsketch
