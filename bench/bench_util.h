#ifndef DISTSKETCH_BENCH_BENCH_UTIL_H_
#define DISTSKETCH_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dist/cluster.h"
#include "linalg/simd_dispatch.h"
#include "workload/partition.h"

namespace distsketch {
namespace bench {

/// Wall-clock stopwatch for bench loops.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  /// Milliseconds since construction (or the last Reset).
  double ElapsedMs() const {
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(now - start_).count();
  }
  void Reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// One machine-readable measurement for BENCH_sketch.json.
struct BenchRecord {
  std::string op;      // e.g. "fd_merge", "gram_update", "parallel_sketch"
  size_t n = 0;        // total rows
  size_t d = 0;        // dimension
  size_t s = 0;        // servers
  size_t l = 0;        // sketch size / rows (0 when not applicable)
  size_t threads = 1;  // global pool size for the run
  double wall_ms = 0;  // wall-clock time of the measured region
  uint64_t words = 0;  // metered communication words (0 for local kernels)
  // Measured encoded frame bytes that crossed the simulated wire (the
  // byte-level counterpart of the analytic `words`; 0 for local kernels).
  uint64_t wire_bytes = 0;
  // SIMD backend the measured region ran under. Defaults to the
  // process-wide active backend so existing benches pick it up without
  // code changes; kernel benches that swap backends set it explicitly.
  std::string backend = std::string(SimdBackendName(ActiveSimdBackend()));
  // Aggregation topology of the measured run ("star", "tree8", ...).
  // Part of the row key: the same (op, shape) measured under different
  // topologies are different experiments.
  std::string topology = "star";
  // Encoded frame bytes received by the coordinator — the quantity
  // aggregation trees shrink while total wire_bytes stays put (0 for
  // local kernels).
  uint64_t coord_wire_bytes = 0;
};

namespace internal {
inline bool& BenchJsonDisabled() {
  static bool disabled = false;
  return disabled;
}
}  // namespace internal

/// Turns every BenchJsonWriter in this process into a no-op. Gate
/// (`--check`) and `--smoke` runs call it first: they measure on whatever
/// host runs CI, often at toy sizes, and started from the repo root they
/// would otherwise overwrite the committed BENCH_sketch.json rows. Only
/// full measurement runs write.
inline void DisableBenchJson() { internal::BenchJsonDisabled() = true; }

/// Accumulates BenchRecords and merges them into a JSON array on Flush
/// (and at destruction). Merging means: if the target file already holds
/// an array written by this class — possibly by another bench binary —
/// the new records are folded into it, so every experiment lands in one
/// BENCH_sketch.json. Rows are keyed by their configuration
/// (op, n, d, s, l, threads): re-running a bench updates its existing
/// rows in place instead of appending duplicates.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string path = "BENCH_sketch.json")
      : path_(std::move(path)) {}
  ~BenchJsonWriter() { Flush(); }

  void Add(const BenchRecord& r) { records_.push_back(r); }

  void Flush() {
    if (internal::BenchJsonDisabled()) records_.clear();
    if (records_.empty()) return;
    // Load the rows of any existing array, so records from earlier
    // runs/binaries survive (deduped against the new ones below).
    std::vector<std::string> rows;
    std::vector<std::string> keys;
    {
      std::ifstream in(path_);
      if (in) {
        std::stringstream ss;
        ss << in.rdbuf();
        const std::string text = ss.str();
        const size_t open = text.find('[');
        const size_t close = text.rfind(']');
        if (open != std::string::npos && close != std::string::npos &&
            close > open) {
          size_t pos = open + 1;
          while (true) {
            const size_t begin = text.find('{', pos);
            if (begin == std::string::npos || begin > close) break;
            const size_t end = text.find('}', begin);
            if (end == std::string::npos || end > close) break;
            std::string row = text.substr(begin, end - begin + 1);
            std::string key = KeyOfRow(row);
            // Collapse duplicates already in the file (written before
            // this class deduped): the last row for a config wins.
            const auto it = std::find(keys.begin(), keys.end(), key);
            if (it != keys.end()) {
              rows[static_cast<size_t>(it - keys.begin())] = std::move(row);
            } else {
              rows.push_back(std::move(row));
              keys.push_back(std::move(key));
            }
            pos = end + 1;
          }
        }
      }
    }
    for (const BenchRecord& r : records_) {
      std::string row = RowText(r);
      std::string key = KeyOfRow(row);
      const auto it = std::find(keys.begin(), keys.end(), key);
      if (it != keys.end()) {
        rows[static_cast<size_t>(it - keys.begin())] = std::move(row);
      } else {
        rows.push_back(std::move(row));
        keys.push_back(std::move(key));
      }
    }
    std::ofstream out(path_, std::ios::trunc);
    if (!out) return;
    out << "[";
    for (size_t i = 0; i < rows.size(); ++i) {
      out << (i == 0 ? "" : ",") << "\n  " << rows[i];
    }
    out << "\n]\n";
    records_.clear();
  }

 private:
  static std::string RowText(const BenchRecord& r) {
    std::ostringstream row;
    row << "{\"op\": \"" << r.op << "\", \"n\": " << r.n
        << ", \"d\": " << r.d << ", \"s\": " << r.s << ", \"l\": " << r.l
        << ", \"threads\": " << r.threads
        << ", \"backend\": \"" << r.backend << "\""
        << ", \"topology\": \"" << r.topology << "\""
        << ", \"wall_ms\": " << r.wall_ms << ", \"words\": " << r.words
        << ", \"wire_bytes\": " << r.wire_bytes
        << ", \"coord_wire_bytes\": " << r.coord_wire_bytes << "}";
    return row.str();
  }

  // Extracts the value of `name` from a serialized row; quoted strings
  // come back without the quotes.
  static std::string FieldOfRow(const std::string& row,
                                const std::string& name) {
    const std::string tag = "\"" + name + "\": ";
    size_t pos = row.find(tag);
    if (pos == std::string::npos) return "";
    pos += tag.size();
    size_t end;
    if (pos < row.size() && row[pos] == '"') {
      ++pos;
      end = row.find('"', pos);
    } else {
      end = row.find_first_of(",}", pos);
    }
    if (end == std::string::npos) return "";
    return row.substr(pos, end - pos);
  }

  // The configuration key of a row: everything except the measurements.
  // Rows written before the `backend` field existed were all measured on
  // the scalar kernels, so a missing field keys as "scalar" — re-running
  // on a scalar host updates those legacy rows instead of duplicating.
  static std::string KeyOfRow(const std::string& row) {
    std::string key;
    for (const char* name : {"op", "n", "d", "s", "l", "threads"}) {
      key += FieldOfRow(row, name);
      key += '|';
    }
    std::string backend = FieldOfRow(row, "backend");
    key += backend.empty() ? "scalar" : backend;
    key += '|';
    // Rows written before the `topology` field existed were all star
    // runs (the only aggregation shape then), so a missing field keys
    // as "star" — same migration the `backend` field got.
    std::string topology = FieldOfRow(row, "topology");
    key += topology.empty() ? "star" : topology;
    key += '|';
    return key;
  }

  std::string path_;
  std::vector<BenchRecord> records_;
};

/// The CI bounds of a bench's `--check`, read from bench/gates.json: one
/// flat object where a `<gate>_min` key is a floor and `<gate>_max` a
/// ceiling. A bench reads it before measuring and names every key it will
/// check, so a missing file or key exits 2 at once.
class Gates {
 public:
  /// Reads the bound under each of `keys` from `path`. Prints what is
  /// missing and returns nullopt (the bench then exits 2) if the file
  /// cannot be read or lacks a key.
  static std::optional<Gates> Read(const char* path,
                                   const std::vector<std::string>& keys) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot read gates file %s\n", path);
      return std::nullopt;
    }
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    Gates gates;
    for (const std::string& key : keys) {
      DS_CHECK(key.ends_with("_min") || key.ends_with("_max"));
      const std::string tag = "\"" + key + "\":";
      const size_t pos = text.find(tag);
      const char* begin =
          pos == std::string::npos ? "" : text.c_str() + pos + tag.size();
      char* end = nullptr;
      const double bound = std::strtod(begin, &end);
      if (end == begin) {
        std::fprintf(stderr, "gates file %s has no number under %s\n", path,
                     key.c_str());
        return std::nullopt;
      }
      gates.bounds_[key] = bound;
    }
    return gates;
  }

  /// Prints what was measured, its value and the bound under `key`. A
  /// value below a floor or above a ceiling fails the gate.
  void Check(const std::string& key, double value, const std::string& what) {
    const auto it = bounds_.find(key);
    DS_CHECK(it != bounds_.end());  // declared when the file was read
    const bool ok =
        key.ends_with("_min") ? value >= it->second : value <= it->second;
    std::printf("gate %-44s %8.2f (%s %g)%s\n", what.c_str(), value,
                key.c_str(), it->second, ok ? "" : "  FAIL");
    if (!ok) exit_code_ = 1;
  }

  /// The bench's exit status: 1 if any check failed, else 0.
  int exit_code() const { return exit_code_; }

 private:
  std::map<std::string, double> bounds_;
  int exit_code_ = 0;
};

/// Builds a cluster over a round-robin partition of `a`.
inline Cluster MakeCluster(const Matrix& a, size_t s, double eps) {
  auto cluster =
      Cluster::Create(PartitionRows(a, s, PartitionScheme::kRoundRobin), eps);
  DS_CHECK(cluster.ok());
  return std::move(*cluster);
}

/// Prints a section header.
inline void Section(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Least-squares slope of log(y) against log(x): the empirical scaling
/// exponent ("words grow like x^slope").
inline double LogLogSlope(const std::vector<double>& x,
                          const std::vector<double>& y) {
  DS_CHECK(x.size() == y.size() && x.size() >= 2);
  const size_t n = x.size();
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < n; ++i) {
    const double lx = std::log(x[i]);
    const double ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double denom = n * sxx - sx * sx;
  return (n * sxy - sx * sy) / denom;
}

}  // namespace bench
}  // namespace distsketch

#endif  // DISTSKETCH_BENCH_BENCH_UTIL_H_
