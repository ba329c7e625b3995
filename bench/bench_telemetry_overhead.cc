// Telemetry overhead: what does the tracing layer cost? Two questions,
// answered per protocol and per instrument:
//
//  1. Enabled overhead — wall time of a protocol run recording into a
//     live Telemetry context vs the same run against the Disabled()
//     null sink. The acceptance budget is < 3% on the table-1 shape.
//  2. Null-sink overhead — ns/op of the TELEM instrumentation calls
//     when telemetry is disabled (one pointer load + one branch). CI
//     gates this against the null_*_ns_per_op_max ceilings:
//     `--check bench/gates.json` exits nonzero when an instrument costs
//     more than its ceiling.
//
// `--smoke` shrinks sizes/reps so CTest can keep the binary exercised
// under the perf-smoke label; it writes no BENCH_sketch.json rows.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "bench/bench_util.h"
#include "dist/adaptive_sketch_protocol.h"
#include "dist/exact_gram_protocol.h"
#include "dist/fd_merge_protocol.h"
#include "dist/row_sampling_protocol.h"
#include "dist/svs_protocol.h"
#include "telemetry/span.h"
#include "telemetry/telemetry.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

double RunMillis(SketchProtocol& protocol, Cluster& cluster, int reps,
                 SketchProtocolResult* last) {
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    auto result = protocol.Run(cluster);
    DS_CHECK(result.ok());
    *last = std::move(*result);
  }
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count() /
         reps;
}

void BenchProtocol(const char* name, SketchProtocol& protocol,
                   Cluster& cluster, int reps, bench::BenchJsonWriter& json,
                   size_t n, size_t d, size_t s) {
  SketchProtocolResult result;

  // Warm caches/pool once so neither arm pays first-run costs.
  RunMillis(protocol, cluster, 1, &result);

  const double ms_off = RunMillis(protocol, cluster, reps, &result);
  const uint64_t words = result.comm.total_words;
  const uint64_t wire_bytes = result.comm.total_wire_bytes;

  telemetry::Telemetry telem;
  double ms_on;
  {
    telemetry::ScopedTelemetry scope(telem);
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      telem.Reset();  // bound span storage: measure recording, not growth
      auto res = protocol.Run(cluster);
      DS_CHECK(res.ok());
      result = std::move(*res);
    }
    const auto end = std::chrono::steady_clock::now();
    ms_on =
        std::chrono::duration<double, std::milli>(end - start).count() /
        reps;
  }
  const size_t spans = telem.Spans().size();
  const double overhead = ms_off > 0.0 ? (ms_on / ms_off - 1.0) : 0.0;

  std::printf(
      "%-16s off %8.3f ms | on %8.3f ms (%+5.1f%%) | %4zu spans, %7llu "
      "words\n",
      name, ms_off, ms_on, 100.0 * overhead, spans,
      static_cast<unsigned long long>(words));

  json.Add({.op = std::string("telemetry_off_") + name,
            .n = n,
            .d = d,
            .s = s,
            .l = 0,
            .threads = 1,
            .wall_ms = ms_off,
            .words = words,
            .wire_bytes = wire_bytes});
  json.Add({.op = std::string("telemetry_on_") + name,
            .n = n,
            .d = d,
            .s = s,
            .l = 0,
            .threads = 1,
            .wall_ms = ms_on,
            .words = words,
            .wire_bytes = wire_bytes});
}

/// ns/op of `telemetry::Count` against the null sink.
double NullCountNsPerOp(size_t iters) {
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < iters; ++i) {
    telemetry::Count("bench.null_sink");
  }
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(end - start).count() /
         static_cast<double>(iters);
}

/// ns/op of constructing + destroying a Span against the null sink.
double NullSpanNsPerOp(size_t iters) {
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < iters; ++i) {
    telemetry::Span span("bench/null_sink", telemetry::Phase::kCompute);
    span.SetAttr("i", static_cast<uint64_t>(i));
  }
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(end - start).count() /
         static_cast<double>(iters);
}

}  // namespace
}  // namespace distsketch

int main(int argc, char** argv) {
  using namespace distsketch;
  bool smoke = false;
  const char* gates_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      gates_path = argv[++i];
    }
  }
  if (smoke || gates_path != nullptr) bench::DisableBenchJson();
  // The gates file is read before anything runs, so a wrong path or a
  // missing key exits 2 at once.
  std::optional<bench::Gates> gates;
  if (gates_path != nullptr) {
    gates = bench::Gates::Read(
        gates_path, {"null_count_ns_per_op_max", "null_span_ns_per_op_max"});
    if (!gates) return 2;
  }

  std::printf("Telemetry overhead: Disabled() null sink vs live context\n\n");

  const size_t rows = smoke ? 120 : 400;
  const size_t cols = smoke ? 12 : 24;
  const size_t servers = 8;
  const int reps = smoke ? 3 : 20;
  const Matrix a =
      GenerateLowRankPlusNoise({.rows = rows,
                                .cols = cols,
                                .rank = 5,
                                .decay = 0.7,
                                .top_singular_value = 40.0,
                                .noise_stddev = 0.4,
                                .seed = 1});
  Cluster cluster = bench::MakeCluster(a, servers, 0.3);
  bench::BenchJsonWriter json;

  FdMergeProtocol fd({.eps = 0.3, .k = 3});
  BenchProtocol("fd_merge", fd, cluster, reps, json, rows, cols, servers);

  SvsProtocol svs({.alpha = 0.15, .delta = 0.05, .seed = 13});
  BenchProtocol("svs", svs, cluster, reps, json, rows, cols, servers);

  AdaptiveSketchProtocol adaptive({.eps = 0.3, .k = 3, .seed = 19});
  BenchProtocol("adaptive_sketch", adaptive, cluster, reps, json, rows,
                cols, servers);

  ExactGramProtocol gram;
  BenchProtocol("exact_gram", gram, cluster, reps, json, rows, cols,
                servers);

  RowSamplingProtocol sampling({.eps = 0.5, .seed = 13});
  BenchProtocol("row_sampling", sampling, cluster, reps, json, rows, cols,
                servers);

  // Null-sink microcosts. These run with the default Disabled() context.
  DS_CHECK(!telemetry::Telemetry::Current()->enabled());
  const size_t iters = smoke ? 200'000 : 5'000'000;
  const double count_ns = NullCountNsPerOp(iters);
  const double span_ns = NullSpanNsPerOp(iters / 2);
  std::printf("\nnull sink: Count %.2f ns/op, Span %.2f ns/op (%zu iters)\n",
              count_ns, span_ns, iters);
  json.Add({.op = "telemetry_null_count",
            .n = iters,
            .d = 0,
            .s = 0,
            .l = 0,
            .threads = 1,
            .wall_ms = count_ns * 1e-6 * static_cast<double>(iters),
            .words = 0,
            .wire_bytes = 0});
  json.Add({.op = "telemetry_null_span",
            .n = iters / 2,
            .d = 0,
            .s = 0,
            .l = 0,
            .threads = 1,
            .wall_ms = span_ns * 1e-6 * static_cast<double>(iters / 2),
            .words = 0,
            .wire_bytes = 0});

  if (gates) {
    gates->Check("null_count_ns_per_op_max", count_ns,
                 "null-sink Count ns/op");
    gates->Check("null_span_ns_per_op_max", span_ns, "null-sink Span ns/op");
    return gates->exit_code();
  }
  std::printf(
      "\nEnabled overhead budget is <3%% on the table-1 shape; the "
      "null-sink gate runs in CI via --check.\n");
  return 0;
}
