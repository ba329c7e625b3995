// Experiment E7 — parallel scaling of the local-sketch hot path, and the
// FD row-Gram shrink timing (see EXPERIMENTS.md §E7).
//
// Part 1 sweeps the global thread pool over {1, 2, 4, 8} and times the
// fd_merge protocol end to end: the per-server FD compression dominates,
// so wall time should drop roughly linearly until threads exceed servers
// or cores. The sketches are asserted bit-identical across thread counts
// (the engine's core promise), so speedup is never bought with drift.
//
// Part 2 pins one thread and times FD on a tall d >> l instance, where
// every shrink eigensolves the 2l-by-2l row Gram in O(l^2 d + l^3).
//
// Every full-size measurement is appended to BENCH_sketch.json. `--smoke`
// shrinks the instance so the binary doubles as a CTest perf-smoke (label
// perf-smoke) and writes nothing: it verifies the machinery, not the
// speedup.

#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "dist/fd_merge_protocol.h"
#include "linalg/blas.h"
#include "sketch/error_metrics.h"
#include "sketch/frequent_directions.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

using bench::BenchJsonWriter;
using bench::BenchRecord;
using bench::MakeCluster;
using bench::Section;
using bench::WallTimer;

struct Sizes {
  size_t n, d, s;
  double eps;
  size_t shrink_n, shrink_d, shrink_l;
};

constexpr Sizes kFull = {.n = 50000,
                         .d = 512,
                         .s = 8,
                         .eps = 0.1,
                         .shrink_n = 20000,
                         .shrink_d = 2048,
                         .shrink_l = 64};
constexpr Sizes kSmoke = {.n = 800,
                          .d = 48,
                          .s = 4,
                          .eps = 0.2,
                          .shrink_n = 300,
                          .shrink_d = 96,
                          .shrink_l = 8};

void SweepThreads(const Sizes& sz, BenchJsonWriter& json) {
  Section("E7a: fd_merge wall time vs threads");
  std::printf("  n=%zu d=%zu s=%zu eps=%g\n", sz.n, sz.d, sz.s, sz.eps);
  const Matrix a = GenerateZipfSpectrum({.rows = sz.n,
                                         .cols = sz.d,
                                         .alpha = 0.8,
                                         .top_singular_value = 100.0,
                                         .seed = 1});
  Cluster cluster = MakeCluster(a, sz.s, sz.eps);
  FdMergeProtocol protocol({.eps = sz.eps, .k = 0});

  Matrix reference;
  double base_ms = 0.0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    WallTimer timer;
    auto result = protocol.Run(cluster);
    const double ms = timer.ElapsedMs();
    DS_CHECK(result.ok());
    if (threads == 1) {
      reference = result->sketch;
      base_ms = ms;
    } else {
      DS_CHECK(result->sketch == reference);  // speedup never buys drift
    }
    std::printf("  threads=%zu wall_ms=%9.2f speedup=%5.2fx words=%llu\n",
                threads, ms, base_ms / ms,
                static_cast<unsigned long long>(result->comm.total_words));
    json.Add(BenchRecord{.op = "fd_merge",
                         .n = sz.n,
                         .d = sz.d,
                         .s = sz.s,
                         .l = result->sketch_rows,
                         .threads = threads,
                         .wall_ms = ms,
                         .words = result->comm.total_words});
  }
  ThreadPool::SetGlobalThreads(1);
}

void ShrinkTiming(const Sizes& sz, BenchJsonWriter& json) {
  Section("E7b: FD shrink (row-Gram eigensolve)");
  std::printf("  n=%zu d=%zu l=%zu (d > 2l: the Gram regime)\n", sz.shrink_n,
              sz.shrink_d, sz.shrink_l);
  const Matrix a = GenerateZipfSpectrum({.rows = sz.shrink_n,
                                         .cols = sz.shrink_d,
                                         .alpha = 0.8,
                                         .top_singular_value = 100.0,
                                         .seed = 2});
  ThreadPool::SetGlobalThreads(1);
  WallTimer timer;
  FrequentDirections fd(sz.shrink_d, sz.shrink_l);
  fd.AppendRows(a);
  const Matrix b = fd.Sketch();
  const double ms = timer.ElapsedMs();
  std::printf("  %-18s wall_ms=%9.2f coverr/||A||_F^2=%.3e\n", "fd_shrink_gram",
              ms, CovarianceError(a, b) / SquaredFrobeniusNorm(a));
  json.Add(BenchRecord{.op = "fd_shrink_gram",
                       .n = sz.shrink_n,
                       .d = sz.shrink_d,
                       .s = 1,
                       .l = sz.shrink_l,
                       .threads = 1,
                       .wall_ms = ms,
                       .words = 0});
}

}  // namespace
}  // namespace distsketch

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const distsketch::Sizes& sz = smoke ? distsketch::kSmoke : distsketch::kFull;
  if (smoke) distsketch::bench::DisableBenchJson();
  std::printf("E7: parallel scaling of the local-sketch hot path%s\n",
              smoke ? " (smoke sizes)" : "");
  distsketch::bench::BenchJsonWriter json;
  distsketch::SweepThreads(sz, json);
  distsketch::ShrinkTiming(sz, json);
  json.Flush();
  if (!smoke) std::printf("\nwrote BENCH_sketch.json\n");
  return 0;
}
