#ifndef DISTSKETCH_AUTOCONF_CALIBRATION_H_
#define DISTSKETCH_AUTOCONF_CALIBRATION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "autoconf/config_plan.h"
#include "common/status.h"

namespace distsketch {
namespace autoconf {

/// Family keys (protocol_factory FamilyKey vocabulary) of every (eps, 0)
/// variant the solver prices, sorted: countsketch, exact_gram, fd_merge,
/// its quantized wire, row_sampling and both svs sampling functions.
std::vector<std::string> CalibratedFamilyKeys();

/// The offline calibration experiment: a fixed low-rank-plus-noise
/// workload swept over (family x eps x s) with several replicate seeds.
/// Everything here is part of the committed calibration artifact
/// (bench/autoconf_calibration.json), so the honesty test and the CI
/// --check gate can re-run the *identical* experiment.
struct CalibrationSpec {
  /// Workload (GenerateLowRankPlusNoise): the canonical spectrum where
  /// (eps,k)-sketches pay off; the Desai–Ghashami–Phillips observation
  /// is that measured error is a stable function of l and this shape.
  size_t rows = 1024;
  size_t dim = 32;
  size_t rank = 6;
  double decay = 0.7;
  double top_singular_value = 100.0;
  double noise_stddev = 0.05;

  /// Sweep axes. eps ascending; servers ascending.
  std::vector<double> eps_grid = {0.05, 0.12, 0.25};
  std::vector<size_t> servers_grid = {4, 16};
  std::vector<std::string> families = CalibratedFamilyKeys();
  /// Replicate seeds: each drives both the workload draw and the
  /// protocol's RNG stream, so the band captures workload variation for
  /// the deterministic families and sampling variation for the
  /// randomized ones.
  std::vector<uint64_t> seeds = {11, 12, 13};
  /// Multiplicative slack applied to the observed [min, max] replicate
  /// range to form the stated confidence band.
  double band_margin = 1.5;
};

CalibrationSpec DefaultCalibrationSpec();

/// Measurements at one (family, eps, s) grid point, aggregated over the
/// spec's replicate seeds. Errors are relative to ||A||_F^2 (floored at
/// 1e-16 so log-space interpolation stays finite); communication
/// figures are replicate means.
struct CalibrationPoint {
  std::string family;
  double eps = 0.0;
  size_t s = 0;
  double rel_err_mean = 0.0;
  double rel_err_min = 0.0;
  double rel_err_max = 0.0;
  double words = 0.0;
  double bits = 0.0;
  double coord_words = 0.0;
  double wire_bytes = 0.0;
};

struct CalibrationTable {
  int version = 1;
  CalibrationSpec spec;
  /// Points in sweep order: family (spec order) x eps x s.
  std::vector<CalibrationPoint> points;
};

/// One live measurement (single replicate) — the exact experiment the
/// sweep aggregates, exposed so the predictor-honesty test can re-run
/// any grid point and compare against the stated band.
struct CalibrationMeasurement {
  double rel_err = 0.0;
  double words = 0.0;
  double bits = 0.0;
  double coord_words = 0.0;
  double wire_bytes = 0.0;
};

StatusOr<CalibrationMeasurement> MeasureCalibrationPoint(
    const CalibrationSpec& spec, const std::string& family, double eps,
    size_t s, uint64_t seed);

/// Runs the full sweep. Deterministic: protocols are bit-identical at
/// any DS_THREADS, so the table is a pure function of the spec.
StatusOr<CalibrationTable> RunCalibrationSweep(const CalibrationSpec& spec);

/// Committed-artifact serialization (stable key order, %.17g doubles —
/// byte-identical re-encoding of a parsed table).
std::string CalibrationTableToJson(const CalibrationTable& table);
/// Parsing refuses (InvalidArgument) any family key that
/// ConfigForFamilyKey does not map to a configuration, in the spec and in
/// the points alike: the file is outside input (DS_AUTOCONF_CALIBRATION).
StatusOr<CalibrationTable> ParseCalibrationJson(const std::string& json);
StatusOr<CalibrationTable> LoadCalibrationTable(const std::string& path);

/// Compares a freshly swept table against the committed one: every grid
/// point's rel_err_mean and wire_bytes must agree within `tolerance`
/// (relative). Returns the human-readable drift report lines for
/// offending points; empty means no drift.
std::vector<std::string> DiffCalibrationTables(const CalibrationTable& committed,
                                               const CalibrationTable& fresh,
                                               double tolerance);

/// Maps a calibration family key back to the SketchConfig the factory
/// runs (fd_merge_q -> quantized fd_merge, svs_linear -> svs with the
/// Thm 5 function, ...): the inverse of FamilyKey. Star topology; `eps`
/// is the working eps. InvalidArgument for any string FamilyKey cannot
/// produce.
StatusOr<SketchConfig> ConfigForFamilyKey(const std::string& key, double eps);

}  // namespace autoconf
}  // namespace distsketch

#endif  // DISTSKETCH_AUTOCONF_CALIBRATION_H_
