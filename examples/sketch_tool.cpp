// sketch_tool — command-line front end for the library.
//
//   sketch_tool info   --input data.csv
//   sketch_tool sketch --input data.csv --output sketch.csv
//                      [--eps 0.2] [--k 4] [--servers 8]
//                      [--algo fd|sampling|adaptive] [--seed 42]
//   sketch_tool pca    --input data.csv --output pcs.csv
//                      [--eps 0.2] [--k 4] [--servers 8]
//
// With no --input, a synthetic low-rank demo matrix is used so the tool
// can be exercised immediately. CSV in, CSV out: one row per line.

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "dist/adaptive_sketch_protocol.h"
#include "io/matrix_io.h"
#include "linalg/blas.h"
#include "linalg/svd.h"
#include "pca/pca_quality.h"
#include "pca/sketch_and_solve.h"
#include "sketch/error_metrics.h"
#include "sketch/frequent_directions.h"
#include "sketch/row_sampling.h"
#include "workload/generators.h"
#include "workload/partition.h"

using namespace distsketch;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : std::stod(it->second);
  }
  size_t GetSize(const std::string& key, size_t fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback
                             : static_cast<size_t>(std::stoull(it->second));
  }
};

int Usage() {
  std::printf(
      "usage: sketch_tool <info|sketch|pca> [--input X.csv] [--output "
      "Y.csv]\n"
      "                   [--eps 0.2] [--k 4] [--servers 8]\n"
      "                   [--algo fd|sampling|adaptive] [--seed 42]\n");
  return 2;
}

StatusOr<Matrix> LoadInput(const Args& args) {
  const std::string path = args.Get("input", "");
  if (!path.empty()) return LoadCsv(path);
  std::printf("(no --input: using a synthetic 2000x32 low-rank matrix)\n");
  return GenerateLowRankPlusNoise({.rows = 2000,
                                   .cols = 32,
                                   .rank = 6,
                                   .decay = 0.7,
                                   .top_singular_value = 50.0,
                                   .noise_stddev = 0.3,
                                   .seed = 1});
}

int RunInfo(const Matrix& a) {
  std::printf("shape: %zu x %zu\n", a.rows(), a.cols());
  std::printf("||A||_F^2: %.6g\n", SquaredFrobeniusNorm(a));
  auto svals = SingularValues(a);
  if (!svals.ok()) {
    std::printf("SVD failed: %s\n", svals.status().ToString().c_str());
    return 1;
  }
  std::printf("top singular values:");
  for (size_t i = 0; i < std::min<size_t>(8, svals->size()); ++i) {
    std::printf(" %.4g", (*svals)[i]);
  }
  std::printf("\ntail energy ||A-[A]_k||_F^2 for k=1..6:");
  double tail = 0.0;
  for (double s : *svals) tail += s * s;
  for (size_t k = 1; k <= 6 && k <= svals->size(); ++k) {
    tail -= (*svals)[k - 1] * (*svals)[k - 1];
    std::printf(" %.4g", tail);
  }
  std::printf("\n");
  return 0;
}

int RunSketch(const Args& args, const Matrix& a) {
  const double eps = args.GetDouble("eps", 0.2);
  const size_t k = args.GetSize("k", 4);
  const uint64_t seed = args.GetSize("seed", 42);
  const std::string algo = args.Get("algo", "fd");
  Matrix b;
  if (algo == "fd") {
    auto fd = FrequentDirections::FromEpsK(a.cols(), eps, k);
    if (!fd.ok()) { std::printf("%s\n", fd.status().ToString().c_str()); return 1; }
    fd->AppendRows(a);
    b = fd->Sketch();
  } else if (algo == "sampling") {
    auto s = RowSamplingSketch::FromEps(a.cols(), eps, seed);
    if (!s.ok()) { std::printf("%s\n", s.status().ToString().c_str()); return 1; }
    s->AppendRows(a);
    b = s->Sketch();
  } else if (algo == "adaptive") {
    const size_t servers = args.GetSize("servers", 8);
    auto cluster = Cluster::Create(
        PartitionRows(a, servers, PartitionScheme::kRoundRobin), eps);
    if (!cluster.ok()) { std::printf("%s\n", cluster.status().ToString().c_str()); return 1; }
    AdaptiveSketchProtocol protocol({.eps = eps, .k = k, .seed = seed});
    auto result = protocol.Run(*cluster);
    if (!result.ok()) { std::printf("%s\n", result.status().ToString().c_str()); return 1; }
    b = result->sketch;
    std::printf("distributed run: %llu words over %d rounds\n",
                static_cast<unsigned long long>(result->comm.total_words),
                result->comm.num_rounds);
  } else {
    return Usage();
  }
  std::printf("sketch: %zu rows (input %zu), coverr = %.6g, budget = %.6g\n",
              b.rows(), a.rows(), CovarianceError(a, b),
              SketchErrorBudget(a, eps, k));
  const std::string out = args.Get("output", "");
  if (!out.empty()) {
    const Status st = SaveCsv(b, out);
    if (!st.ok()) { std::printf("%s\n", st.ToString().c_str()); return 1; }
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}

int RunPca(const Args& args, const Matrix& a) {
  const double eps = args.GetDouble("eps", 0.2);
  const size_t k = args.GetSize("k", 4);
  const size_t servers = args.GetSize("servers", 8);
  auto cluster = Cluster::Create(
      PartitionRows(a, servers, PartitionScheme::kRoundRobin), eps);
  if (!cluster.ok()) { std::printf("%s\n", cluster.status().ToString().c_str()); return 1; }
  SketchAndSolvePca protocol(
      {.k = k, .eps = eps, .seed = args.GetSize("seed", 42)});
  auto result = protocol.Run(*cluster);
  if (!result.ok()) { std::printf("%s\n", result.status().ToString().c_str()); return 1; }
  const PcaQualityReport q = EvaluatePcaQuality(a, result->components);
  std::printf(
      "top-%zu PCs via Theorem 9 over %zu servers: %llu words, "
      "proj_err/optimal = %.4f, captured variance = %.1f%%\n",
      k, servers,
      static_cast<unsigned long long>(result->comm.total_words), q.ratio,
      100.0 * (1.0 - q.projection_error / SquaredFrobeniusNorm(a)));
  const std::string out = args.Get("output", "");
  if (!out.empty()) {
    const Status st = SaveCsv(result->components, out);
    if (!st.ok()) { std::printf("%s\n", st.ToString().c_str()); return 1; }
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  args.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args.flags[argv[i] + 2] = argv[i + 1];
  }
  auto input = LoadInput(args);
  if (!input.ok()) {
    std::printf("failed to load input: %s\n",
                input.status().ToString().c_str());
    return 1;
  }
  if (args.command == "info") return RunInfo(*input);
  if (args.command == "sketch") return RunSketch(args, *input);
  if (args.command == "pca") return RunPca(args, *input);
  return Usage();
}
