// E11: multi-tenant service ingest throughput. Sweeps tenant count x
// batch size through the full request path (encode -> queue -> wire
// frame -> decode -> per-tenant FD absorb -> epoch seal) and emits two
// BENCH_sketch.json rows per configuration:
//
//   op "service_ingest"      wall_ms of the whole run (n = total rows;
//                            rows/sec = n / wall_ms * 1000)
//   op "service_ingest_p99"  wall_ms = p99 latency of one submit+drain
//                            request cycle
//
// Columns: d = row dimension, s = tenants, l = rows per batch. `--smoke`
// runs one tiny configuration for the perf-smoke CTest label and writes no
// rows.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "service/service_runner.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

constexpr size_t kDim = 32;

struct Config {
  size_t tenants;
  size_t batch_rows;
  size_t rounds;
};

void BenchConfig(const Config& cfg, bench::BenchJsonWriter& writer) {
  ServiceRunnerOptions options;
  options.service = {
      .tenant = {.dim = kDim, .eps = 0.2, .epoch_rows = 4 * cfg.batch_rows},
      .max_tenants = cfg.tenants,
      .max_resident = cfg.tenants};
  options.client_queue_capacity = 2 * cfg.tenants + 16;
  auto runner = ServiceRunner::Create(options);
  DS_CHECK(runner.ok());
  ServiceRunner& svc = **runner;

  // Pre-generate one batch per tenant; every round re-submits it (the
  // bench measures the ingest path, not the generator).
  std::vector<Matrix> batches;
  batches.reserve(cfg.tenants);
  for (size_t t = 0; t < cfg.tenants; ++t) {
    batches.push_back(GenerateGaussian(cfg.batch_rows, kDim, 1.0, 1 + t));
  }
  std::vector<std::string> names;
  names.reserve(cfg.tenants);
  for (size_t t = 0; t < cfg.tenants; ++t) {
    names.push_back("t" + std::to_string(t));
  }

  // Warm-up round: admit every tenant so the measured rounds exercise
  // steady-state ingest, not registry setup.
  for (size_t t = 0; t < cfg.tenants; ++t) {
    DS_CHECK(svc.SubmitIngest(static_cast<int>(t), names[t], batches[t],
                              nullptr)
                 .ok());
  }
  svc.Drain();

  // Throughput: submit one batch per tenant per round, drain per round
  // (the service handles each round as one parallel batch).
  uint64_t ok = 0;
  bench::WallTimer total;
  for (size_t round = 0; round < cfg.rounds; ++round) {
    for (size_t t = 0; t < cfg.tenants; ++t) {
      Status s = svc.SubmitIngest(
          static_cast<int>(t), names[t], batches[t],
          [&ok](const ServiceResponse& r) {
            if (r.code == StatusCode::kOk) ++ok;
          });
      DS_CHECK(s.ok());
    }
    svc.Drain();
  }
  const double wall_ms = total.ElapsedMs();
  const uint64_t rows = cfg.rounds * cfg.tenants * cfg.batch_rows;
  DS_CHECK(ok == cfg.rounds * cfg.tenants);

  // Latency: p99 of single-request submit+drain cycles, round-robin
  // across tenants (each cycle is one framed request through the wire
  // and one batch of size 1 in the service).
  const size_t probes = std::min<size_t>(512, 4 * cfg.tenants);
  std::vector<double> lat_ms;
  lat_ms.reserve(probes);
  for (size_t p = 0; p < probes; ++p) {
    const size_t t = p % cfg.tenants;
    bench::WallTimer one;
    DS_CHECK(svc.SubmitIngest(static_cast<int>(t), names[t], batches[t],
                              nullptr)
                 .ok());
    svc.Drain();
    lat_ms.push_back(one.ElapsedMs());
  }
  std::sort(lat_ms.begin(), lat_ms.end());
  const double p99 = lat_ms[(lat_ms.size() * 99) / 100];

  const CommStats stats = svc.log().Stats();
  bench::BenchRecord rec;
  rec.op = "service_ingest";
  rec.n = rows;
  rec.d = kDim;
  rec.s = cfg.tenants;
  rec.l = cfg.batch_rows;
  rec.threads = ThreadPool::GlobalThreads();
  rec.wall_ms = wall_ms;
  rec.words = stats.total_words;
  rec.wire_bytes = stats.total_wire_bytes;
  writer.Add(rec);
  bench::BenchRecord p99_rec = rec;
  p99_rec.op = "service_ingest_p99";
  p99_rec.wall_ms = p99;
  writer.Add(p99_rec);

  std::printf(
      "service_ingest tenants=%5zu batch=%3zu rounds=%zu  "
      "rows/sec=%10.0f  p99=%.3f ms\n",
      cfg.tenants, cfg.batch_rows, cfg.rounds, rows / wall_ms * 1000.0, p99);
}

}  // namespace
}  // namespace distsketch

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  if (smoke) distsketch::bench::DisableBenchJson();
  distsketch::bench::BenchJsonWriter writer;
  std::vector<distsketch::Config> configs;
  if (smoke) {
    configs = {{8, 4, 2}};
  } else {
    configs = {{16, 8, 8},   {16, 64, 8},  {256, 8, 4},
               {256, 64, 4}, {1024, 8, 2}, {1024, 64, 2}};
  }
  for (const auto& cfg : configs) {
    distsketch::BenchConfig(cfg, writer);
  }
  return 0;
}
