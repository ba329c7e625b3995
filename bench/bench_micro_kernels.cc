// Experiment M1 — google-benchmark microbenchmarks of the computational
// kernels every protocol sits on: FD append/shrink throughput, SVD,
// symmetric eigensolve, spectral norm (power iteration), SVS, and Gram.
//
// Besides the google-benchmark tables, the binary appends svd-kernel rows
// (Jacobi vs Gram route vs threaded Jacobi), per-SIMD-backend kernel rows
// and the fd_block_absorb rows to BENCH_sketch.json so the dispatch
// policy's claims live next to the protocol measurements. `--smoke` runs
// only those rows at tiny sizes for the perf-smoke CTest; `--check
// bench/gates.json` runs them at full size and gates them. Neither writes
// BENCH_sketch.json.

#include <benchmark/benchmark.h>

#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "linalg/qr.h"
#include "linalg/simd_dispatch.h"
#include "linalg/spectral.h"
#include "linalg/spectral_kernel.h"
#include "linalg/svd.h"
#include "sketch/frequent_directions.h"
#include "sketch/quantizer.h"
#include "sketch/row_sampling.h"
#include "sketch/svs.h"
#include "wire/checksum.h"
#include "wire/codec.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

void BM_Gram(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Matrix a = GenerateGaussian(512, d, 1.0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Gram(a));
  }
  state.SetItemsProcessed(state.iterations() * 512 * d);
}
BENCHMARK(BM_Gram)->Arg(16)->Arg(64)->Arg(128);

void BM_HouseholderQr(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Matrix a = GenerateGaussian(4 * d, d, 1.0, 2);
  for (auto _ : state) {
    auto qr = HouseholderQr(a);
    benchmark::DoNotOptimize(qr);
  }
}
BENCHMARK(BM_HouseholderQr)->Arg(16)->Arg(32)->Arg(64);

void BM_JacobiSvd(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Matrix a = GenerateGaussian(2 * d, d, 1.0, 3);
  for (auto _ : state) {
    auto svd = ComputeSvd(a);
    benchmark::DoNotOptimize(svd);
  }
}
BENCHMARK(BM_JacobiSvd)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_SymmetricEigen(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Matrix a = GenerateGaussian(2 * d, d, 1.0, 4);
  const Matrix g = Gram(a);
  for (auto _ : state) {
    auto eig = ComputeSymmetricEigen(g);
    benchmark::DoNotOptimize(eig);
  }
}
BENCHMARK(BM_SymmetricEigen)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_SpectralNormPowerIteration(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Matrix a = GenerateGaussian(2 * d, d, 1.0, 5);
  const Matrix g = Gram(a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SymmetricSpectralNorm(g));
  }
}
BENCHMARK(BM_SpectralNormPowerIteration)->Arg(16)->Arg(64)->Arg(128);

void BM_FdStreamThroughput(benchmark::State& state) {
  const size_t d = 64;
  const size_t sketch_size = static_cast<size_t>(state.range(0));
  const Matrix a = GenerateGaussian(2048, d, 1.0, 6);
  for (auto _ : state) {
    FrequentDirections fd(d, sketch_size);
    fd.AppendRows(a);
    benchmark::DoNotOptimize(fd.Sketch());
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_FdStreamThroughput)->Arg(8)->Arg(16)->Arg(32);

void BM_SvsQuadratic(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Matrix a = GenerateZipfSpectrum(
      {.rows = 4 * d, .cols = d, .alpha = 0.8, .seed = 7});
  SamplingFunctionParams params;
  params.num_servers = 16;
  params.alpha = 0.1;
  params.total_frobenius = SquaredFrobeniusNorm(a);
  params.dim = d;
  params.delta = 0.1;
  const QuadraticSamplingFunction g(params);
  uint64_t seed = 0;
  for (auto _ : state) {
    auto r = Svs(a, g, ++seed);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SvsQuadratic)->Arg(16)->Arg(32)->Arg(64);

void BM_SpectralKernelGramRoute(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Matrix a = GenerateGaussian(8 * d, d, 1.0, 9);
  SpectralKernelOptions options;
  options.route = SpectralRoute::kGram;
  SvdWorkspace ws;
  for (auto _ : state) {
    auto spec = ComputeSigmaVt(a, options, &ws);
    benchmark::DoNotOptimize(spec);
  }
}
BENCHMARK(BM_SpectralKernelGramRoute)->Arg(16)->Arg(32)->Arg(64);

void BM_SpectralKernelJacobiRoute(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Matrix a = GenerateGaussian(8 * d, d, 1.0, 9);
  SpectralKernelOptions options;
  options.route = SpectralRoute::kJacobi;
  for (auto _ : state) {
    auto spec = ComputeSigmaVt(a, options);
    benchmark::DoNotOptimize(spec);
  }
}
BENCHMARK(BM_SpectralKernelJacobiRoute)->Arg(16)->Arg(32)->Arg(64);

void BM_RowStreamReservoir(benchmark::State& state) {
  const size_t d = 64;
  const Matrix a = GenerateGaussian(2048, d, 1.0, 8);
  for (auto _ : state) {
    RowSamplingSketch s(d, 64, 9);
    s.AppendRows(a);
    benchmark::DoNotOptimize(s.Sketch());
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_RowStreamReservoir);

// Times one (route, thread-count) configuration of the spectral kernel:
// min over `reps` timed runs after one warmup, so a background stall
// cannot inflate a row.
double TimeKernelMs(const Matrix& a, SpectralRoute route, size_t threads,
                    int reps) {
  ThreadPool::SetGlobalThreads(threads);
  SpectralKernelOptions options;
  options.route = route;
  SvdWorkspace ws;
  auto warmup = ComputeSigmaVt(a, options, &ws);
  DS_CHECK(warmup.ok());
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    bench::WallTimer timer;
    auto spec = ComputeSigmaVt(a, options, &ws);
    const double ms = timer.ElapsedMs();
    DS_CHECK(spec.ok());
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

// Appends the svd-kernel comparison rows to BENCH_sketch.json: serial
// Jacobi (the pre-dispatch baseline), the Gram route, and both again on
// the full global pool. Smoke mode shrinks the instance so the CTest
// perf-smoke exercises the machinery without measuring a real speedup.
void EmitSvdKernelRows(bool smoke) {
  const size_t n = smoke ? 512 : 4096;
  const size_t d = smoke ? 32 : 64;
  const int reps = smoke ? 1 : 5;
  const size_t saved_threads = ThreadPool::GlobalThreads();
  const size_t pool = saved_threads > 1 ? saved_threads : 8;
  const Matrix a = GenerateGaussian(n, d, 1.0, 101);

  struct Row {
    const char* op;
    SpectralRoute route;
    size_t threads;
  };
  const Row rows[] = {
      {"svd_jacobi", SpectralRoute::kJacobi, 1},
      {"svd_jacobi_threaded", SpectralRoute::kJacobi, pool},
      {"svd_gram_route", SpectralRoute::kGram, 1},
      {"svd_gram_threaded", SpectralRoute::kGram, pool},
  };
  bench::BenchJsonWriter writer;
  std::printf("svd-kernel rows (n=%zu d=%zu)%s\n", n, d,
              smoke ? " (smoke sizes)" : "");
  for (const Row& row : rows) {
    bench::BenchRecord rec;
    rec.op = row.op;
    rec.n = n;
    rec.d = d;
    rec.threads = row.threads;
    rec.wall_ms = TimeKernelMs(a, row.route, row.threads, reps);
    writer.Add(rec);
    std::printf("  %-20s threads=%zu  %8.3f ms\n", row.op, row.threads,
                rec.wall_ms);
  }
  ThreadPool::SetGlobalThreads(saved_threads);
}

// ---------------------------------------------------------------------------
// SIMD backend rows (E10): the four dispatched hot kernels timed under
// every backend this host supports, written with the `backend` field so
// the scalar/AVX2/AVX-512 rows coexist in BENCH_sketch.json.

// Restores the process-wide backend even if a timing lambda throws.
class BackendGuard {
 public:
  BackendGuard() : prev_(ActiveSimdBackend()) {}
  ~BackendGuard() { SetSimdBackendForTesting(prev_); }

 private:
  SimdBackend prev_;
};

std::vector<SimdBackend> SupportedBackends() {
  std::vector<SimdBackend> out = {SimdBackend::kScalar};
  for (const SimdBackend b : {SimdBackend::kAvx2, SimdBackend::kAvx512}) {
    if (SimdBackendSupported(b)) out.push_back(b);
  }
  return out;
}

template <typename Fn>
double MinWallMs(int reps, const Fn& fn) {
  fn();  // warmup
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    bench::WallTimer timer;
    fn();
    const double ms = timer.ElapsedMs();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

// Order of the FD-shaped row Gram the simd_eigen row solves: fd_local's
// 2l for l = 21.
constexpr size_t kEigenN = 42;
// Shape of the tenant request the simd_max_abs row scans (service_mixed's
// 64-row requests at d = 32).
constexpr size_t kScanRows = 64;
constexpr size_t kScanDim = 32;
// The buffer the simd_frame_checksum row checksums: one fanout_cs uplink,
// a 100 x 64 dense CountSketch bucket matrix (8 bytes per entry).
constexpr size_t kChecksumBytes = 51200;

int ChecksumsPerPass(bool smoke) { return smoke ? 10 : 2000; }

std::vector<uint8_t> ChecksumBuffer() {
  std::vector<uint8_t> buf(kChecksumBytes);
  Rng rng(207);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextUint64() >> 56);
  return buf;
}

double GigabytesPerSecond(double ms, bool smoke) {
  const double bytes =
      static_cast<double>(kChecksumBytes) * ChecksumsPerPass(smoke);
  return bytes / (ms * 1e6);
}

/// Times Gram / Multiply / Jacobi SVD / wire bit-packing / the FD
/// eigensolve / the tenant request scan under one backend. Keys of the
/// returned map are the row `op` names.
std::map<std::string, double> TimeSimdKernelsMs(bool smoke) {
  const size_t n = smoke ? 256 : 4096;
  const size_t d = smoke ? 16 : 64;
  const int reps = smoke ? 1 : 5;
  const Matrix a = GenerateGaussian(n, d, 1.0, 202);
  const Matrix b = GenerateGaussian(d, d, 1.0, 203);
  const Matrix jac = GenerateGaussian(2 * d, d, 1.0, 204);
  auto quant = QuantizeMatrix(a, /*precision=*/0.0078125);
  DS_CHECK(quant.ok());

  std::map<std::string, double> ms;
  ms["simd_gram"] = MinWallMs(reps, [&] {
    benchmark::DoNotOptimize(Gram(a));
  });
  ms["simd_multiply"] = MinWallMs(reps, [&] {
    benchmark::DoNotOptimize(Multiply(a, b));
  });
  ms["simd_jacobi_svd"] = MinWallMs(reps, [&] {
    auto svd = ComputeSvd(jac);
    DS_CHECK(svd.ok());
    benchmark::DoNotOptimize(svd);
  });
  ms["simd_bitpack"] = MinWallMs(reps, [&] {
    auto payload = wire::EncodeQuantizedPayload(*quant);
    DS_CHECK(payload.ok());
    auto decoded = wire::DecodeMatrixPayload(payload->data(), payload->size());
    DS_CHECK(decoded.ok());
    benchmark::DoNotOptimize(decoded);
  });
  // One FD shrink's eigensolve: the kEigenN x kEigenN row Gram of a
  // low-rank-plus-noise buffer at d = 64, workspace reused as FD does.
  LowRankPlusNoiseOptions lr;
  lr.rows = kEigenN;
  lr.cols = 64;
  lr.rank = 8;
  lr.seed = 205;
  const Matrix gram = RowGram(GenerateLowRankPlusNoise(lr));
  EigenSymWorkspace eig_ws;
  SymmetricEigenResult eig;
  const int solves = smoke ? 10 : 200;
  ms["simd_eigen"] = MinWallMs(reps, [&] {
    for (int t = 0; t < solves; ++t) {
      DS_CHECK(ComputeSymmetricEigenInto(gram, &eig, &eig_ws).ok());
    }
    benchmark::DoNotOptimize(eig);
  });
  // A tenant ingest's one scan of its request: max|a| and the finiteness
  // flag. The scalar backend's row is the plain fused loop.
  const Matrix request = GenerateGaussian(kScanRows, kScanDim, 1.0, 206);
  const int scans = smoke ? 100 : 20000;
  ms["simd_max_abs"] = MinWallMs(reps, [&] {
    bool finite = true;
    for (int t = 0; t < scans; ++t) {
      benchmark::DoNotOptimize(MaxAbs(request, &finite));
    }
  });
  // The frame checksum of one fanout_cs uplink, sent and verified once
  // per delivery.
  const std::vector<uint8_t> uplink = ChecksumBuffer();
  ms["simd_frame_checksum"] = MinWallMs(reps, [&] {
    for (int t = 0; t < ChecksumsPerPass(smoke); ++t) {
      benchmark::DoNotOptimize(
          wire::FrameChecksum(uplink.data(), uplink.size()));
    }
  });
  return ms;
}

/// XXH64 (Checksum64, the version-1 frame checksum) over the same uplink:
/// the undispatched baseline printed beside the simd_frame_checksum rows.
double TimeXxh64Ms(bool smoke) {
  const std::vector<uint8_t> uplink = ChecksumBuffer();
  return MinWallMs(smoke ? 1 : 5, [&] {
    for (int t = 0; t < ChecksumsPerPass(smoke); ++t) {
      benchmark::DoNotOptimize(Checksum64(uplink.data(), uplink.size()));
    }
  });
}

/// Per-backend rows for the dispatched kernels; returns
/// op -> backend -> wall ms for the regression gate.
std::map<std::string, std::map<std::string, double>> EmitSimdBackendRows(
    bool smoke) {
  BackendGuard guard;
  const size_t n = smoke ? 256 : 4096;
  const size_t d = smoke ? 16 : 64;
  bench::BenchJsonWriter writer;
  std::map<std::string, std::map<std::string, double>> all;
  std::printf("\nsimd backend rows (n=%zu d=%zu)%s\n", n, d,
              smoke ? " (smoke sizes)" : "");
  for (const SimdBackend backend : SupportedBackends()) {
    SetSimdBackendForTesting(backend);
    const std::string name(SimdBackendName(backend));
    for (const auto& [op, wall_ms] : TimeSimdKernelsMs(smoke)) {
      const bool eigen = op == "simd_eigen";
      const bool scan = op == "simd_max_abs";
      const bool checksum = op == "simd_frame_checksum";
      bench::BenchRecord rec;
      rec.op = op;
      rec.n = eigen      ? kEigenN
              : scan     ? kScanRows
              : checksum ? kChecksumBytes
                         : n;
      rec.d = eigen ? kEigenN : scan ? kScanDim : checksum ? 1 : d;
      rec.wall_ms = wall_ms;
      rec.backend = name;
      writer.Add(rec);
      all[op][name] = wall_ms;
      std::printf("  %-19s backend=%-7s %9.3f ms", op.c_str(), name.c_str(),
                  wall_ms);
      if (checksum) {
        std::printf("  (%.1f GB/s)", GigabytesPerSecond(wall_ms, smoke));
      }
      std::printf("\n");
    }
  }
  bench::BenchRecord xxh64;
  xxh64.op = "xxh64_frame_checksum";
  xxh64.n = kChecksumBytes;
  xxh64.d = 1;
  xxh64.wall_ms = TimeXxh64Ms(smoke);
  xxh64.backend = "scalar";
  writer.Add(xxh64);
  std::printf("  %-19s backend=%-7s %9.3f ms  (%.1f GB/s)\n",
              xxh64.op.c_str(), "scalar", xxh64.wall_ms,
              GigabytesPerSecond(xxh64.wall_ms, smoke));
  return all;
}

// ---------------------------------------------------------------------------
// fd_block_absorb (E17): a service tenant's ingest shape, 64-row blocks at
// d = 32 and l = 11, absorbed through AppendBlock (one column-Gram shrink
// per block) and through AppendRows (a 22x22 row-Gram shrink every 11
// rows). Each sketch keeps absorbing across passes, so its workspace is
// warm. The gate compares the two on the active backend: it fails if
// FdBlockShrinkFires stops firing on the service shape.

struct FdAbsorbMs {
  double rows = 0.0;   // one pass of AppendRows over every block
  double block = 0.0;  // one pass of AppendBlock over every block
};

FdAbsorbMs EmitFdBlockAbsorbRows(bool smoke) {
  constexpr size_t kDim = 32;
  constexpr size_t kSketch = 11;
  constexpr size_t kBlock = 64;
  const size_t blocks = smoke ? 16 : 512;
  const int reps = smoke ? 1 : 7;
  const Matrix a = GenerateLowRankPlusNoise(
      {.rows = blocks * kBlock, .cols = kDim, .rank = 8, .seed = 206});
  std::vector<Matrix> parts;
  for (size_t t = 0; t < blocks; ++t) {
    parts.push_back(a.RowRange(t * kBlock, (t + 1) * kBlock));
  }
  FrequentDirections by_rows(kDim, kSketch);
  FrequentDirections by_block(kDim, kSketch);
  FdAbsorbMs ms;
  ms.rows = MinWallMs(reps, [&] {
    for (const Matrix& p : parts) by_rows.AppendRows(p);
  });
  ms.block = MinWallMs(reps, [&] {
    for (const Matrix& p : parts) by_block.AppendBlock(p);
  });

  bench::BenchJsonWriter writer;
  const double per_block_us = 1000.0 / static_cast<double>(blocks);
  std::printf("\nfd block absorb (%zu blocks of %zux%zu, l=%zu)%s\n", blocks,
              kBlock, kDim, kSketch, smoke ? " (smoke sizes)" : "");
  for (const auto& [op, wall_ms] :
       {std::pair<const char*, double>{"fd_rows_absorb", ms.rows},
        std::pair<const char*, double>{"fd_block_absorb", ms.block}}) {
    bench::BenchRecord rec;
    rec.op = op;
    rec.n = blocks * kBlock;
    rec.d = kDim;
    rec.l = kSketch;
    rec.wall_ms = wall_ms;
    writer.Add(rec);
    std::printf("  %-16s %8.3f ms  (%.1f us per block)\n", op, wall_ms,
                wall_ms * per_block_us);
  }
  return ms;
}

/// Gate for CI: AppendBlock must beat AppendRows on the tenant shape, and
/// the best SIMD backend must beat scalar on each dispatched kernel that
/// has an `<op>_speedup_min` key. The SIMD part is skipped with a notice
/// when the host has no SIMD backend (nothing to compare).
void CheckKernelGates(
    bench::Gates& gates,
    const std::map<std::string, std::map<std::string, double>>& all,
    const FdAbsorbMs& fd) {
  gates.Check("fd_block_speedup_min", fd.rows / fd.block,
              "fd_block AppendBlock vs AppendRows");
  if (SupportedBackends().size() == 1) {
    std::printf("kernel gate: host supports only the scalar backend; "
                "no SIMD comparison — skipping\n");
    return;
  }
  for (const char* op : {"simd_gram", "simd_multiply", "simd_bitpack",
                         "simd_eigen", "simd_frame_checksum"}) {
    const std::map<std::string, double>& by_backend = all.at(op);
    const double scalar = by_backend.at("scalar");
    double best = scalar;
    std::string best_name = "scalar";
    for (const auto& [name, ms] : by_backend) {
      if (ms < best) {
        best = ms;
        best_name = name;
      }
    }
    gates.Check(std::string(op) + "_speedup_min", scalar / best,
                std::string(op) + " best " + best_name + " vs scalar");
  }
}

}  // namespace
}  // namespace distsketch

int main(int argc, char** argv) {
  bool smoke = false;
  const char* gates_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      gates_path = argv[++i];
    }
  }
  if (gates_path != nullptr || smoke) distsketch::bench::DisableBenchJson();
  if (gates_path != nullptr) {
    // CI kernel-regression gate: full-size backend rows, checked against
    // bench/gates.json. The file is read first, so a wrong path or a
    // missing key fails in milliseconds, not after the measurement.
    std::optional<distsketch::bench::Gates> gates =
        distsketch::bench::Gates::Read(
            gates_path,
            {"fd_block_speedup_min", "simd_gram_speedup_min",
             "simd_multiply_speedup_min", "simd_bitpack_speedup_min",
             "simd_eigen_speedup_min", "simd_frame_checksum_speedup_min"});
    if (!gates) return 2;
    const auto all = distsketch::EmitSimdBackendRows(/*smoke=*/false);
    const auto fd = distsketch::EmitFdBlockAbsorbRows(/*smoke=*/false);
    distsketch::CheckKernelGates(*gates, all, fd);
    return gates->exit_code();
  }
  if (smoke) {
    // CTest perf-smoke entry: only the kernel-row measurements, tiny.
    distsketch::EmitSvdKernelRows(/*smoke=*/true);
    distsketch::EmitSimdBackendRows(/*smoke=*/true);
    distsketch::EmitFdBlockAbsorbRows(/*smoke=*/true);
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  distsketch::EmitSvdKernelRows(/*smoke=*/false);
  distsketch::EmitSimdBackendRows(/*smoke=*/false);
  distsketch::EmitFdBlockAbsorbRows(/*smoke=*/false);
  return 0;
}
