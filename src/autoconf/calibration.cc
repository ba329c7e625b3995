#include "autoconf/calibration.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>
#include <tuple>

#include "autoconf/protocol_factory.h"
#include "dist/cluster.h"
#include "dist/comm_log.h"
#include "dist/protocol.h"
#include "linalg/blas.h"
#include "sketch/error_metrics.h"
#include "workload/generators.h"
#include "workload/partition.h"

namespace distsketch {
namespace autoconf {
namespace {

// Floor for relative errors so log-space interpolation stays finite
// (exact_gram measures ~0; the power-iteration metric bottoms out around
// machine precision anyway).
constexpr double kRelErrFloor = 1e-16;

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Extracts the raw text of `"name": <value>` from `text` starting at
// `from`; quoted strings come back without the quotes, arrays with their
// brackets. Empty when absent (bench_util.h FieldOfRow idiom).
std::string FieldOf(const std::string& text, const std::string& name,
                    size_t from = 0) {
  const std::string tag = "\"" + name + "\":";
  size_t pos = text.find(tag, from);
  if (pos == std::string::npos) return "";
  pos += tag.size();
  while (pos < text.size() && text[pos] == ' ') ++pos;
  if (pos >= text.size()) return "";
  if (text[pos] == '"') {
    ++pos;
    const size_t end = text.find('"', pos);
    if (end == std::string::npos) return "";
    return text.substr(pos, end - pos);
  }
  if (text[pos] == '[') {
    const size_t end = text.find(']', pos);
    if (end == std::string::npos) return "";
    return text.substr(pos, end - pos + 1);
  }
  const size_t end = text.find_first_of(",}\n", pos);
  if (end == std::string::npos) return "";
  return text.substr(pos, end - pos);
}

std::vector<double> ParseNumberArray(const std::string& array_text) {
  std::vector<double> values;
  std::string body = array_text;
  std::replace(body.begin(), body.end(), '[', ' ');
  std::replace(body.begin(), body.end(), ']', ' ');
  std::replace(body.begin(), body.end(), ',', ' ');
  std::istringstream in(body);
  double v;
  while (in >> v) values.push_back(v);
  return values;
}

std::vector<std::string> ParseStringArray(const std::string& array_text) {
  std::vector<std::string> values;
  size_t pos = 0;
  while (true) {
    const size_t begin = array_text.find('"', pos);
    if (begin == std::string::npos) break;
    const size_t end = array_text.find('"', begin + 1);
    if (end == std::string::npos) break;
    values.push_back(array_text.substr(begin + 1, end - begin - 1));
    pos = end + 1;
  }
  return values;
}

}  // namespace

std::vector<std::string> CalibratedFamilyKeys() {
  std::vector<std::string> keys;
  for (ProtocolFamily family :
       {ProtocolFamily::kFdMerge, ProtocolFamily::kExactGram,
        ProtocolFamily::kRowSampling, ProtocolFamily::kSvs,
        ProtocolFamily::kCountSketch}) {
    SketchConfig config;
    config.family = family;
    keys.push_back(FamilyKey(config));
    // The variants whose measured behaviour differs get their own key.
    if (family == ProtocolFamily::kFdMerge) {
      config.quantize_bits = 1;
      keys.push_back(FamilyKey(config));
    } else if (family == ProtocolFamily::kSvs) {
      config.sampling = SamplingFunctionKind::kLinear;
      keys.push_back(FamilyKey(config));
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

CalibrationSpec DefaultCalibrationSpec() { return CalibrationSpec(); }

StatusOr<SketchConfig> ConfigForFamilyKey(const std::string& key, double eps) {
  SketchConfig config;
  config.working_eps = eps;
  std::string_view name = key;
  auto strip = [&name](std::string_view suffix) {
    if (!name.ends_with(suffix)) return false;
    name.remove_suffix(suffix.size());
    return true;
  };
  if (strip("_q")) {
    config.quantize_bits = 1;  // sentinel: quantized wire on; the protocol
                               // derives the §3.3 bit width itself.
  } else if (strip("_linear")) {
    config.sampling = SamplingFunctionKind::kLinear;
  } else {
    strip("_quadratic");
  }
  auto family = ParseProtocolFamily(name);
  if (family.ok()) {
    config.family = *family;
    // Only the forms FamilyKey produces are keys: a bare svs or an
    // exact_gram_q is not.
    if (FamilyKey(config) == key) return config;
  }
  return Status::InvalidArgument("unknown calibration family key: " + key);
}

StatusOr<CalibrationMeasurement> MeasureCalibrationPoint(
    const CalibrationSpec& spec, const std::string& family, double eps,
    size_t s, uint64_t seed) {
  LowRankPlusNoiseOptions workload;
  workload.rows = spec.rows;
  workload.cols = spec.dim;
  workload.rank = spec.rank;
  workload.decay = spec.decay;
  workload.top_singular_value = spec.top_singular_value;
  workload.noise_stddev = spec.noise_stddev;
  workload.seed = seed;
  const Matrix a = GenerateLowRankPlusNoise(workload);

  DS_ASSIGN_OR_RETURN(
      Cluster cluster,
      Cluster::Create(PartitionRows(a, s, PartitionScheme::kRoundRobin), eps));

  DS_ASSIGN_OR_RETURN(const SketchConfig config,
                      ConfigForFamilyKey(family, eps));
  DS_ASSIGN_OR_RETURN(auto protocol, BuildProtocol(config, seed));
  DS_ASSIGN_OR_RETURN(SketchProtocolResult result, protocol->Run(cluster));

  CalibrationMeasurement m;
  m.rel_err = std::max(
      kRelErrFloor, CovarianceError(a, result.sketch) / SquaredFrobeniusNorm(a));
  m.words = static_cast<double>(result.comm.total_words);
  m.bits = static_cast<double>(result.comm.total_bits);
  m.coord_words = static_cast<double>(cluster.log().WordsReceivedBy(kCoordinator));
  m.wire_bytes = static_cast<double>(result.comm.total_wire_bytes);
  return m;
}

StatusOr<CalibrationTable> RunCalibrationSweep(const CalibrationSpec& spec) {
  CalibrationTable table;
  table.spec = spec;
  // Sweep in measurement order (s outermost so each shape's workload
  // replicates stay together), then emit points in the documented
  // family x eps x s order.
  std::map<std::tuple<size_t, size_t, size_t>, std::vector<CalibrationMeasurement>>
      replicates;  // (family idx, eps idx, s idx) -> per-seed runs
  for (size_t si = 0; si < spec.servers_grid.size(); ++si) {
    for (uint64_t seed : spec.seeds) {
      for (size_t fi = 0; fi < spec.families.size(); ++fi) {
        for (size_t ei = 0; ei < spec.eps_grid.size(); ++ei) {
          DS_ASSIGN_OR_RETURN(
              CalibrationMeasurement m,
              MeasureCalibrationPoint(spec, spec.families[fi],
                                      spec.eps_grid[ei],
                                      spec.servers_grid[si], seed));
          replicates[{fi, ei, si}].push_back(m);
        }
      }
    }
  }
  for (size_t fi = 0; fi < spec.families.size(); ++fi) {
    for (size_t ei = 0; ei < spec.eps_grid.size(); ++ei) {
      for (size_t si = 0; si < spec.servers_grid.size(); ++si) {
        const auto& runs = replicates[{fi, ei, si}];
        CalibrationPoint p;
        p.family = spec.families[fi];
        p.eps = spec.eps_grid[ei];
        p.s = spec.servers_grid[si];
        double log_sum = 0.0;
        p.rel_err_min = runs.front().rel_err;
        p.rel_err_max = runs.front().rel_err;
        for (const CalibrationMeasurement& m : runs) {
          log_sum += std::log(m.rel_err);
          p.rel_err_min = std::min(p.rel_err_min, m.rel_err);
          p.rel_err_max = std::max(p.rel_err_max, m.rel_err);
          p.words += m.words;
          p.bits += m.bits;
          p.coord_words += m.coord_words;
          p.wire_bytes += m.wire_bytes;
        }
        const double n = static_cast<double>(runs.size());
        // Geometric mean: errors vary over orders of magnitude across
        // the grid, and the predictor interpolates in log space.
        p.rel_err_mean = std::exp(log_sum / n);
        p.words /= n;
        p.bits /= n;
        p.coord_words /= n;
        p.wire_bytes /= n;
        table.points.push_back(std::move(p));
      }
    }
  }
  return table;
}

std::string CalibrationTableToJson(const CalibrationTable& table) {
  std::ostringstream out;
  const CalibrationSpec& spec = table.spec;
  out << "{\n  \"version\": " << table.version << ",\n  \"spec\": {";
  out << "\"rows\": " << spec.rows << ", \"dim\": " << spec.dim
      << ", \"rank\": " << spec.rank
      << ", \"decay\": " << FormatDouble(spec.decay)
      << ", \"top_singular_value\": " << FormatDouble(spec.top_singular_value)
      << ", \"noise_stddev\": " << FormatDouble(spec.noise_stddev);
  out << ", \"eps_grid\": [";
  for (size_t i = 0; i < spec.eps_grid.size(); ++i) {
    out << (i ? ", " : "") << FormatDouble(spec.eps_grid[i]);
  }
  out << "], \"servers_grid\": [";
  for (size_t i = 0; i < spec.servers_grid.size(); ++i) {
    out << (i ? ", " : "") << spec.servers_grid[i];
  }
  out << "], \"families\": [";
  for (size_t i = 0; i < spec.families.size(); ++i) {
    out << (i ? ", " : "") << '"' << spec.families[i] << '"';
  }
  out << "], \"seeds\": [";
  for (size_t i = 0; i < spec.seeds.size(); ++i) {
    out << (i ? ", " : "") << spec.seeds[i];
  }
  out << "], \"band_margin\": " << FormatDouble(spec.band_margin) << "},\n";
  out << "  \"points\": [";
  for (size_t i = 0; i < table.points.size(); ++i) {
    const CalibrationPoint& p = table.points[i];
    out << (i ? ",\n    " : "\n    ");
    out << "{\"family\": \"" << p.family << "\", \"eps\": "
        << FormatDouble(p.eps) << ", \"s\": " << p.s
        << ", \"rel_err_mean\": " << FormatDouble(p.rel_err_mean)
        << ", \"rel_err_min\": " << FormatDouble(p.rel_err_min)
        << ", \"rel_err_max\": " << FormatDouble(p.rel_err_max)
        << ", \"words\": " << FormatDouble(p.words)
        << ", \"bits\": " << FormatDouble(p.bits)
        << ", \"coord_words\": " << FormatDouble(p.coord_words)
        << ", \"wire_bytes\": " << FormatDouble(p.wire_bytes) << "}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

StatusOr<CalibrationTable> ParseCalibrationJson(const std::string& json) {
  CalibrationTable table;
  const std::string version = FieldOf(json, "version");
  if (version.empty()) {
    return Status::InvalidArgument(
        "calibration JSON: missing \"version\" field");
  }
  table.version = std::atoi(version.c_str());
  if (table.version != 1) {
    return Status::InvalidArgument("calibration JSON: unsupported version " +
                                   version);
  }

  CalibrationSpec& spec = table.spec;
  const size_t spec_at = json.find("\"spec\":");
  if (spec_at == std::string::npos) {
    return Status::InvalidArgument("calibration JSON: missing \"spec\"");
  }
  auto spec_num = [&](const char* name) {
    return std::atof(FieldOf(json, name, spec_at).c_str());
  };
  spec.rows = static_cast<size_t>(spec_num("rows"));
  spec.dim = static_cast<size_t>(spec_num("dim"));
  spec.rank = static_cast<size_t>(spec_num("rank"));
  spec.decay = spec_num("decay");
  spec.top_singular_value = spec_num("top_singular_value");
  spec.noise_stddev = spec_num("noise_stddev");
  spec.band_margin = spec_num("band_margin");
  spec.eps_grid = ParseNumberArray(FieldOf(json, "eps_grid", spec_at));
  spec.servers_grid.clear();
  for (double v : ParseNumberArray(FieldOf(json, "servers_grid", spec_at))) {
    spec.servers_grid.push_back(static_cast<size_t>(v));
  }
  spec.families = ParseStringArray(FieldOf(json, "families", spec_at));
  spec.seeds.clear();
  for (double v : ParseNumberArray(FieldOf(json, "seeds", spec_at))) {
    spec.seeds.push_back(static_cast<uint64_t>(v));
  }
  if (spec.rows == 0 || spec.dim == 0 || spec.eps_grid.empty() ||
      spec.servers_grid.empty() || spec.families.empty()) {
    return Status::InvalidArgument("calibration JSON: incomplete spec");
  }
  for (const std::string& family : spec.families) {
    DS_RETURN_IF_ERROR(
        ConfigForFamilyKey(family, spec.eps_grid.front()).status());
  }

  const size_t points_at = json.find("\"points\":");
  if (points_at == std::string::npos) {
    return Status::InvalidArgument("calibration JSON: missing \"points\"");
  }
  size_t pos = points_at;
  while (true) {
    const size_t begin = json.find('{', pos);
    if (begin == std::string::npos) break;
    const size_t end = json.find('}', begin);
    if (end == std::string::npos) break;
    const std::string row = json.substr(begin, end - begin + 1);
    CalibrationPoint p;
    p.family = FieldOf(row, "family");
    p.eps = std::atof(FieldOf(row, "eps").c_str());
    p.s = static_cast<size_t>(std::atof(FieldOf(row, "s").c_str()));
    p.rel_err_mean = std::atof(FieldOf(row, "rel_err_mean").c_str());
    p.rel_err_min = std::atof(FieldOf(row, "rel_err_min").c_str());
    p.rel_err_max = std::atof(FieldOf(row, "rel_err_max").c_str());
    p.words = std::atof(FieldOf(row, "words").c_str());
    p.bits = std::atof(FieldOf(row, "bits").c_str());
    p.coord_words = std::atof(FieldOf(row, "coord_words").c_str());
    p.wire_bytes = std::atof(FieldOf(row, "wire_bytes").c_str());
    if (p.eps <= 0.0 || p.s == 0) {
      return Status::InvalidArgument("calibration JSON: malformed point: " +
                                     row);
    }
    DS_RETURN_IF_ERROR(ConfigForFamilyKey(p.family, p.eps).status());
    table.points.push_back(std::move(p));
    pos = end + 1;
  }
  const size_t expected =
      spec.families.size() * spec.eps_grid.size() * spec.servers_grid.size();
  if (table.points.size() != expected) {
    return Status::InvalidArgument(
        "calibration JSON: point count does not match the spec grid");
  }
  return table;
}

StatusOr<CalibrationTable> LoadCalibrationTable(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("calibration table not readable: " + path);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return ParseCalibrationJson(ss.str());
}

std::vector<std::string> DiffCalibrationTables(const CalibrationTable& committed,
                                               const CalibrationTable& fresh,
                                               double tolerance) {
  std::vector<std::string> drift;
  auto key = [](const CalibrationPoint& p) {
    return p.family + "|" + FormatDouble(p.eps) + "|" + std::to_string(p.s);
  };
  std::map<std::string, const CalibrationPoint*> fresh_by_key;
  for (const CalibrationPoint& p : fresh.points) fresh_by_key[key(p)] = &p;
  auto rel_gap = [](double a, double b) {
    const double denom = std::max({std::abs(a), std::abs(b), kRelErrFloor});
    return std::abs(a - b) / denom;
  };
  for (const CalibrationPoint& c : committed.points) {
    const auto it = fresh_by_key.find(key(c));
    if (it == fresh_by_key.end()) {
      drift.push_back("missing grid point " + key(c));
      continue;
    }
    const CalibrationPoint& f = *it->second;
    const double err_gap = rel_gap(c.rel_err_mean, f.rel_err_mean);
    if (err_gap > tolerance) {
      drift.push_back(key(c) + ": rel_err_mean drifted " +
                      FormatDouble(err_gap * 100.0) + "% (committed " +
                      FormatDouble(c.rel_err_mean) + ", fresh " +
                      FormatDouble(f.rel_err_mean) + ")");
    }
    const double bytes_gap = rel_gap(c.wire_bytes, f.wire_bytes);
    if (bytes_gap > tolerance) {
      drift.push_back(key(c) + ": wire_bytes drifted " +
                      FormatDouble(bytes_gap * 100.0) + "% (committed " +
                      FormatDouble(c.wire_bytes) + ", fresh " +
                      FormatDouble(f.wire_bytes) + ")");
    }
  }
  if (committed.points.size() != fresh.points.size()) {
    drift.push_back("grid size mismatch: committed " +
                    std::to_string(committed.points.size()) + " vs fresh " +
                    std::to_string(fresh.points.size()));
  }
  return drift;
}

}  // namespace autoconf
}  // namespace distsketch
