// Soak demo for the multi-tenant sketch service: drives >= 1000
// concurrent tenants through the request queue under a chaotic fault
// plan, with a residency cap far below the tenant count so eviction /
// checkpoint-restore churns continuously. A never-evicted shadow sketch
// per tenant pins bit-identical answers; every accepted submit must be
// answered (no stuck tenants); admission overflow and queue overload
// must surface as typed kOverloaded. Exits non-zero on any violation and
// writes a telemetry run report with per-tenant attribution.
//
// Usage: service_demo [--tenants N] [--rounds R] [--report PATH]
//                     [--store DIR]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dist/fault_injection.h"
#include "service/service_runner.h"
#include "service/sketch_service.h"
#include "service/tenant.h"
#include "store/sketch_store.h"
#include "telemetry/run_report.h"
#include "telemetry/telemetry.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

constexpr size_t kDim = 16;

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

struct DemoConfig {
  size_t tenants = 1200;
  size_t rounds = 4;
  size_t rows_per_batch = 8;
  size_t max_resident = 256;
  std::string report_path = "service_demo_report.json";
  std::string store_dir;
};

int Fail(const char* what) {
  std::fprintf(stderr, "VIOLATION: %s\n", what);
  return 1;
}

int RunDemo(const DemoConfig& cfg) {
  const std::string store_dir =
      cfg.store_dir.empty()
          ? (std::filesystem::temp_directory_path() / "service_demo_store")
                .string()
          : cfg.store_dir;
  std::filesystem::remove_all(store_dir);
  auto store = SketchStore::Open(store_dir);
  if (!store.ok()) return Fail("store open failed");

  const TenantOptions tenant_opts{.dim = kDim, .eps = 0.25, .epoch_rows = 16};
  ServiceRunnerOptions options;
  options.service = {.tenant = tenant_opts,
                     .max_tenants = cfg.tenants,
                     .max_resident = cfg.max_resident,
                     .store = &*store};
  options.client_queue_capacity = 32;
  FaultConfig faults;
  faults.default_profile.drop_prob = 0.01;
  faults.default_profile.duplicate_prob = 0.02;
  faults.default_profile.corrupt_prob = 0.02;
  faults.default_profile.transient_fail_prob = 0.01;
  faults.seed = 20260807;
  options.faults = faults;

  auto runner = ServiceRunner::Create(options);
  if (!runner.ok()) return Fail("runner create failed");
  ServiceRunner& svc = **runner;

  auto tenant_name = [](size_t i) { return "t" + std::to_string(i); };

  // Never-evicted shadows, fed exactly the rows the service accepted.
  std::map<std::string, TenantSketch> shadows;
  for (size_t i = 0; i < cfg.tenants; ++i) {
    auto shadow = TenantSketch::Create(tenant_name(i), tenant_opts);
    if (!shadow.ok()) return Fail("shadow create failed");
    shadows.emplace(tenant_name(i), std::move(*shadow));
  }

  uint64_t ok_responses = 0, unavailable = 0, overloaded_responses = 0;

  // Ingest rounds: every tenant submits one batch per round from its own
  // client id; the callback replays accepted rows into the shadow so the
  // shadow tracks exactly what the service absorbed (wire-lost requests
  // are answered kUnavailable and absorbed by neither).
  for (size_t round = 0; round < cfg.rounds; ++round) {
    for (size_t i = 0; i < cfg.tenants; ++i) {
      const std::string name = tenant_name(i);
      const Matrix rows = GenerateGaussian(
          cfg.rows_per_batch, kDim, 1.0,
          static_cast<uint64_t>(round * cfg.tenants + i + 1));
      TenantSketch& shadow = shadows.at(name);
      Status s = svc.SubmitIngest(
          static_cast<int>(i), name, rows,
          [&, rows](const ServiceResponse& resp) {
            if (resp.code == StatusCode::kOk) {
              ++ok_responses;
              DS_CHECK(shadow.AbsorbRows(rows).ok());
              while (shadow.EpochReady()) shadow.SealEpoch();
            } else if (resp.code == StatusCode::kUnavailable) {
              ++unavailable;
            } else {
              ++overloaded_responses;
            }
          });
      if (!s.ok()) return Fail("ingest submit unexpectedly rejected");
      // Drain in sub-batches so queues stay under the per-client cap.
      if (i % 256 == 255) svc.Drain();
    }
    svc.Drain();
  }

  // Overload the admission path: tenants beyond max_tenants must get a
  // typed kOverloaded response, not silence.
  uint64_t admission_shed = 0;
  for (size_t i = 0; i < 8; ++i) {
    Status s = svc.SubmitIngest(
        static_cast<int>(cfg.tenants + i), "extra" + std::to_string(i),
        GenerateGaussian(2, kDim, 1.0, 9000 + i),
        [&admission_shed](const ServiceResponse& resp) {
          if (resp.code == StatusCode::kOverloaded) ++admission_shed;
        });
    if (!s.ok()) return Fail("admission probe submit rejected");
  }
  svc.Drain();

  // Overload one client's queue: submits beyond its capacity
  // must shed with kOverloaded at the queue (callback never fires).
  // Tenant 0 leaves the bit-identity comparison after this (which flood
  // rows land depends on the fault schedule); it is checked for
  // liveness only.
  uint64_t queue_shed = 0;
  for (size_t i = 0; i < options.client_queue_capacity + 8; ++i) {
    Status s = svc.SubmitIngest(
        0, tenant_name(0), GenerateGaussian(1, kDim, 1.0, 7000 + i),
        [&](const ServiceResponse& resp) {
          if (resp.code == StatusCode::kOk) ++ok_responses;
        });
    if (!s.ok()) {
      if (s.code() != StatusCode::kOverloaded) {
        return Fail("queue shed was not typed kOverloaded");
      }
      ++queue_shed;
    }
  }
  if (queue_shed == 0) return Fail("queue never shed under flood");
  svc.Drain();

  // Final sweep: every tenant answers a query, and (except the flooded
  // tenant 0) matches its never-evicted shadow bit for bit. Queries run
  // from fresh client ids (a peer the injector declared permanently lost
  // stays lost), forcing restore churn across the whole registry; a
  // query the wire loses (kUnavailable) is retried from another fresh
  // client — a *stuck* tenant never answers, a lossy wire answers on
  // retry.
  std::vector<ServiceResponse> results(cfg.tenants);
  std::vector<uint8_t> answered(cfg.tenants, 0);
  int next_client = static_cast<int>(2 * cfg.tenants);
  auto submit_query = [&](size_t i) {
    return svc.Submit(next_client++, EncodeQueryRequest(tenant_name(i)),
                      [&results, &answered, i](const ServiceResponse& resp) {
                        results[i] = resp;
                        answered[i] = 1;
                      });
  };
  for (size_t i = 0; i < cfg.tenants; ++i) {
    if (!submit_query(i).ok()) return Fail("final query submit rejected");
    if (i % 128 == 127) svc.Drain();
  }
  svc.Drain();
  for (int attempt = 0; attempt < 4; ++attempt) {
    bool retried = false;
    for (size_t i = 0; i < cfg.tenants; ++i) {
      if (answered[i] && results[i].code != StatusCode::kUnavailable) continue;
      if (!submit_query(i).ok()) return Fail("retry query submit rejected");
      retried = true;
    }
    if (!retried) break;
    svc.Drain();
  }
  size_t mismatches = 0, unanswered = 0;
  for (size_t i = 0; i < cfg.tenants; ++i) {
    if (!answered[i] || results[i].code != StatusCode::kOk) {
      ++unanswered;
      continue;
    }
    if (i == 0) continue;  // flooded tenant: liveness only
    const std::string name = tenant_name(i);
    auto expect = shadows.at(name).Query();
    if (!expect.ok()) return Fail("shadow query failed");
    if (MatrixDigest(results[i].sketch) != MatrixDigest(*expect) ||
        results[i].rows_ingested != shadows.at(name).rows_ingested()) {
      std::fprintf(stderr, "tenant %s: sketch mismatch after %llu evictions\n",
                   name.c_str(),
                   static_cast<unsigned long long>(svc.service().evictions()));
      ++mismatches;
    }
  }

  const SketchService& service = svc.service();
  std::printf(
      "tenants=%zu resident=%zu evictions=%llu restores=%llu "
      "registry_shed=%llu queue_shed=%llu wire_lost=%llu\n"
      "accepted=%llu responded=%llu ok=%llu unavailable=%llu "
      "overloaded=%llu\n",
      service.known_tenants(), service.resident_tenants(),
      static_cast<unsigned long long>(service.evictions()),
      static_cast<unsigned long long>(service.restores()),
      static_cast<unsigned long long>(service.shed()),
      static_cast<unsigned long long>(queue_shed),
      static_cast<unsigned long long>(svc.wire_lost()),
      static_cast<unsigned long long>(svc.accepted()),
      static_cast<unsigned long long>(svc.responded()),
      static_cast<unsigned long long>(ok_responses),
      static_cast<unsigned long long>(unavailable),
      static_cast<unsigned long long>(overloaded_responses));

  int violations = 0;
  if (service.known_tenants() < 1000) {
    violations += Fail("fewer than 1000 tenants admitted");
  }
  if (mismatches > 0) violations += Fail("eviction/restore broke bit-identity");
  if (unanswered > 0) violations += Fail("stuck tenants: queries unanswered");
  if (svc.accepted() != svc.responded()) {
    violations += Fail("accepted submissions left unanswered");
  }
  if (service.evictions() == 0) violations += Fail("no eviction churn");
  if (service.restores() == 0) violations += Fail("no restore churn");
  if (admission_shed != 8) {
    violations += Fail("admission overflow not kOverloaded");
  }

  // Run report with per-tenant attribution.
  const CommStats stats = svc.log().Stats();
  telemetry::CommTotals totals;
  totals.words = stats.total_words;
  totals.bits = stats.total_bits;
  totals.wire_bytes = stats.total_wire_bytes;
  totals.control_wire_bytes = stats.control_wire_bytes;
  totals.num_messages = stats.num_messages;
  totals.num_retransmits = stats.num_retransmits;
  const telemetry::RunReport report = telemetry::BuildRunReport(
      *telemetry::Telemetry::Current(), "service_demo", totals);
  bool has_tenant_attribution = false;
  for (const auto& [name, value] : report.metrics.counters) {
    if (name.rfind("svc.tenant.", 0) == 0 && value > 0) {
      has_tenant_attribution = true;
      break;
    }
  }
  if (!has_tenant_attribution) {
    violations += Fail("run report lacks per-tenant attribution");
  }
  if (!telemetry::WriteRunReport(report, cfg.report_path)) {
    violations += Fail("run report write failed");
  } else {
    std::printf("run report: %s\n", cfg.report_path.c_str());
  }

  std::filesystem::remove_all(store_dir);
  if (violations > 0) return 1;
  std::printf("service_demo: all checks passed\n");
  return 0;
}

}  // namespace
}  // namespace distsketch

int main(int argc, char** argv) {
  distsketch::DemoConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--tenants") {
      if (const char* v = next()) cfg.tenants = std::strtoull(v, nullptr, 10);
    } else if (arg == "--rounds") {
      if (const char* v = next()) cfg.rounds = std::strtoull(v, nullptr, 10);
    } else if (arg == "--report") {
      if (const char* v = next()) cfg.report_path = v;
    } else if (arg == "--store") {
      if (const char* v = next()) cfg.store_dir = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  // The demo's acceptance checks need metrics regardless of DS_TELEMETRY.
  distsketch::telemetry::Telemetry telem;
  distsketch::telemetry::ScopedTelemetry scoped(telem);
  return distsketch::RunDemo(cfg);
}
