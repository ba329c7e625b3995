#include "autoconf/error_predictor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "../corruption_sweep.h"
#include "autoconf/calibration.h"
#include "autoconf/protocol_factory.h"

namespace distsketch {
namespace autoconf {
namespace {

// A tiny synthetic 2x2 grid (one family) with known values, so the
// interpolation math is checkable by hand.
CalibrationTable TinyTable() {
  CalibrationTable table;
  table.spec.eps_grid = {0.1, 0.4};
  table.spec.servers_grid = {4, 16};
  table.spec.families = {"fd_merge"};
  table.spec.seeds = {1, 2};
  table.spec.band_margin = 1.5;
  auto add = [&](double eps, size_t s, double err, double words,
                 double bytes) {
    CalibrationPoint p;
    p.family = "fd_merge";
    p.eps = eps;
    p.s = s;
    p.rel_err_mean = err;
    p.rel_err_min = err / 2.0;
    p.rel_err_max = err * 2.0;
    p.words = words;
    p.bits = words * 64.0;
    p.coord_words = words;
    p.wire_bytes = bytes;
    return table.points.push_back(p);
  };
  add(0.1, 4, 1e-3, 1000.0, 9000.0);
  add(0.1, 16, 1e-3, 4000.0, 36000.0);
  add(0.4, 4, 1e-2, 250.0, 2250.0);
  add(0.4, 16, 1e-2, 1000.0, 9000.0);
  return table;
}

TEST(ErrorPredictorTest, ExactGridPointReproducesMeasurement) {
  auto predictor = ErrorPredictor::FromTable(TinyTable());
  ASSERT_TRUE(predictor.ok());
  const ErrorPrediction pred = predictor->PredictError("fd_merge", 0.1, 4, 0.1);
  EXPECT_TRUE(pred.calibrated);
  EXPECT_DOUBLE_EQ(pred.predicted, 1e-3);
  // Band = observed [min, max] widened by the margin.
  EXPECT_DOUBLE_EQ(pred.lo, (1e-3 / 2.0) / 1.5);
  EXPECT_DOUBLE_EQ(pred.hi, (1e-3 * 2.0) * 1.5);
  EXPECT_DOUBLE_EQ(pred.analytic, 0.1);
}

TEST(ErrorPredictorTest, InterpolatesInLogSpaceBetweenEpsPoints) {
  auto predictor = ErrorPredictor::FromTable(TinyTable());
  ASSERT_TRUE(predictor.ok());
  // Geometric midpoint of the eps grid: sqrt(0.1 * 0.4) = 0.2; the
  // log-linear prediction is the geometric mean of the endpoint errors.
  const ErrorPrediction pred =
      predictor->PredictError("fd_merge", 0.2, 4, 0.2);
  EXPECT_TRUE(pred.calibrated);
  EXPECT_NEAR(pred.predicted, std::sqrt(1e-3 * 1e-2), 1e-12);
  // Between grid points the band is the corner envelope (only widens).
  EXPECT_DOUBLE_EQ(pred.lo, (1e-3 / 2.0) / 1.5);
  EXPECT_DOUBLE_EQ(pred.hi, (1e-2 * 2.0) * 1.5);
}

TEST(ErrorPredictorTest, OffGridQueriesClampAndWidenTheBand) {
  auto predictor = ErrorPredictor::FromTable(TinyTable());
  ASSERT_TRUE(predictor.ok());
  const ErrorPrediction on = predictor->PredictError("fd_merge", 0.1, 4, 0.1);
  const ErrorPrediction off =
      predictor->PredictError("fd_merge", 0.05, 4, 0.05);
  // Clamped to the eps = 0.1 edge: same central value, 2x wider band.
  EXPECT_DOUBLE_EQ(off.predicted, on.predicted);
  EXPECT_DOUBLE_EQ(off.hi, on.hi * 2.0);
  EXPECT_DOUBLE_EQ(off.lo, on.lo / 2.0);
}

TEST(ErrorPredictorTest, OffSpecShapesWidenTheBand) {
  auto predictor = ErrorPredictor::FromTable(TinyTable());
  ASSERT_TRUE(predictor.ok());
  const ErrorPrediction base = predictor->PredictError("fd_merge", 0.1, 4, 0.1);
  // The calibration workload shape itself (spec default 1024 x 32) and
  // anything within the 4x tolerance window predict the same band.
  const ErrorPrediction at_spec =
      predictor->PredictError("fd_merge", 0.1, 4, 0.1, 1024, 32);
  EXPECT_DOUBLE_EQ(at_spec.hi, base.hi);
  EXPECT_DOUBLE_EQ(at_spec.lo, base.lo);
  const ErrorPrediction near =
      predictor->PredictError("fd_merge", 0.1, 4, 0.1, 4096, 128);
  EXPECT_DOUBLE_EQ(near.hi, base.hi);
  // One axis far off the calibrated shape: band doubles. Both axes: 4x.
  const ErrorPrediction rows_off =
      predictor->PredictError("fd_merge", 0.1, 4, 0.1, 10000000, 32);
  EXPECT_DOUBLE_EQ(rows_off.predicted, base.predicted);
  EXPECT_DOUBLE_EQ(rows_off.hi, base.hi * 2.0);
  EXPECT_DOUBLE_EQ(rows_off.lo, base.lo / 2.0);
  const ErrorPrediction both_off =
      predictor->PredictError("fd_merge", 0.1, 4, 0.1, 10000000, 2048);
  EXPECT_DOUBLE_EQ(both_off.hi, base.hi * 4.0);
  // Departure counts in either direction (a tiny instance is just as far
  // from the calibration evidence as a huge one).
  const ErrorPrediction tiny =
      predictor->PredictError("fd_merge", 0.1, 4, 0.1, 64, 4);
  EXPECT_DOUBLE_EQ(tiny.hi, base.hi * 4.0);
}

TEST(ErrorPredictorTest, SingleEntryGridClampsOnBothSides) {
  // A one-entry servers grid must flag queries on *either* side of the
  // lone point as clamped (widened band), not just below it.
  CalibrationTable table = TinyTable();
  table.spec.servers_grid = {4};
  table.points.clear();
  auto add = [&](double eps, double err) {
    CalibrationPoint p;
    p.family = "fd_merge";
    p.eps = eps;
    p.s = 4;
    p.rel_err_mean = err;
    p.rel_err_min = err / 2.0;
    p.rel_err_max = err * 2.0;
    p.words = 1000.0;
    p.bits = 64000.0;
    p.coord_words = 1000.0;
    p.wire_bytes = 9000.0;
    table.points.push_back(p);
  };
  add(0.1, 1e-3);
  add(0.4, 1e-2);
  auto predictor = ErrorPredictor::FromTable(table);
  ASSERT_TRUE(predictor.ok());
  const ErrorPrediction on = predictor->PredictError("fd_merge", 0.1, 4, 0.1);
  const ErrorPrediction above =
      predictor->PredictError("fd_merge", 0.1, 16, 0.1);
  const ErrorPrediction below = predictor->PredictError("fd_merge", 0.1, 2, 0.1);
  EXPECT_DOUBLE_EQ(above.hi, on.hi * 2.0);
  EXPECT_DOUBLE_EQ(below.hi, on.hi * 2.0);
}

TEST(ErrorPredictorTest, UnknownFamilyFallsBackToAnalytic) {
  auto predictor = ErrorPredictor::FromTable(TinyTable());
  ASSERT_TRUE(predictor.ok());
  const ErrorPrediction pred =
      predictor->PredictError("no_such_family", 0.1, 4, 0.1);
  EXPECT_FALSE(pred.calibrated);
  EXPECT_DOUBLE_EQ(pred.predicted, 0.1);
  EXPECT_DOUBLE_EQ(pred.Certified(true), 0.1);
}

TEST(ErrorPredictorTest, CertifiedNeverExceedsTheAnalyticBound) {
  ErrorPrediction pred;
  pred.calibrated = true;
  pred.predicted = 0.3;
  pred.hi = 0.5;
  pred.analytic = 0.2;
  // Calibration claims worse than the guarantee: the guarantee wins.
  EXPECT_DOUBLE_EQ(pred.Certified(true), 0.2);
  pred.hi = 0.05;
  EXPECT_DOUBLE_EQ(pred.Certified(true), 0.05);
  // Distrusted calibration always falls back to the analytic bound.
  EXPECT_DOUBLE_EQ(pred.Certified(false), 0.2);
}

TEST(ErrorPredictorTest, BytesPerWordInterpolatesWireMeasurements) {
  auto predictor = ErrorPredictor::FromTable(TinyTable());
  ASSERT_TRUE(predictor.ok());
  // Every grid point in TinyTable has 9 bytes/word.
  EXPECT_NEAR(predictor->BytesPerWord("fd_merge", 0.2, 8), 9.0, 1e-9);
  EXPECT_DOUBLE_EQ(predictor->BytesPerWord("no_such_family", 0.2, 8), 0.0);
  EXPECT_NEAR(predictor->BitsPerWord("fd_merge", 0.1, 4), 64.0, 1e-9);
}

TEST(ErrorPredictorTest, RejectsEmptyOrNonPositiveTables) {
  EXPECT_FALSE(ErrorPredictor::FromTable(CalibrationTable{}).ok());
  CalibrationTable bad = TinyTable();
  bad.points[0].rel_err_mean = 0.0;
  EXPECT_FALSE(ErrorPredictor::FromTable(bad).ok());
}

TEST(CalibrationJsonTest, RoundTripsByteIdentically) {
  CalibrationTable table = TinyTable();
  const std::string json = CalibrationTableToJson(table);
  auto parsed = ParseCalibrationJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // %.17g round-trip: re-encoding the parsed table reproduces the bytes.
  EXPECT_EQ(CalibrationTableToJson(*parsed), json);
  EXPECT_EQ(parsed->points.size(), table.points.size());
  EXPECT_DOUBLE_EQ(parsed->points[0].rel_err_mean,
                   table.points[0].rel_err_mean);
  EXPECT_EQ(parsed->spec.families, table.spec.families);
}

TEST(CalibrationJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseCalibrationJson("").ok());
  EXPECT_FALSE(ParseCalibrationJson("{}").ok());
  EXPECT_FALSE(ParseCalibrationJson("{\"version\": 2}").ok());
  // Grid/point count mismatch.
  CalibrationTable table = TinyTable();
  table.points.pop_back();
  EXPECT_FALSE(ParseCalibrationJson(CalibrationTableToJson(table)).ok());
}

// Every truncation and every single-bit flip of a table's JSON is
// refused, or parses to a table that re-encodes and re-parses to the same
// bytes. Never a crash.
TEST(CalibrationJsonTest, CorruptionSweepNeverAborts) {
  const std::string json = CalibrationTableToJson(TinyTable());
  const std::vector<uint8_t> bytes(json.begin(), json.end());
  size_t refused = 0;
  auto check = [&](const std::vector<uint8_t>& text, const std::string& what) {
    auto parsed = ParseCalibrationJson(std::string(text.begin(), text.end()));
    if (!parsed.ok()) {
      ++refused;
      return;
    }
    const std::string again = CalibrationTableToJson(*parsed);
    auto reparsed = ParseCalibrationJson(again);
    ASSERT_TRUE(reparsed.ok()) << what;
    EXPECT_EQ(CalibrationTableToJson(*reparsed), again) << what;
  };
  testing::ForEachTruncation(bytes, check);
  testing::ForEachBitFlip(bytes, check);
  EXPECT_GT(refused, bytes.size());
}

TEST(CalibrationJsonTest, RejectsUnknownFamilyKeys) {
  // Every key must map to a configuration BuildProtocol can run, in the
  // spec's family list and in the points alike.
  for (const char* bad : {"fd_merge_x", "svs", "exact_gram_q", ""}) {
    CalibrationTable in_spec = TinyTable();
    in_spec.spec.families = {bad};
    EXPECT_EQ(ParseCalibrationJson(CalibrationTableToJson(in_spec))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << bad;
    CalibrationTable in_point = TinyTable();
    in_point.points[1].family = bad;
    EXPECT_EQ(ParseCalibrationJson(CalibrationTableToJson(in_point))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  for (const std::string& key : CalibratedFamilyKeys()) {
    auto config = ConfigForFamilyKey(key, 0.1);
    ASSERT_TRUE(config.ok()) << key;
    EXPECT_EQ(FamilyKey(*config), key);
  }
}

TEST(CalibrationDiffTest, FlagsDriftBeyondTolerance) {
  CalibrationTable committed = TinyTable();
  CalibrationTable fresh = TinyTable();
  EXPECT_TRUE(DiffCalibrationTables(committed, fresh, 0.10).empty());
  fresh.points[0].rel_err_mean *= 1.25;
  const auto drift = DiffCalibrationTables(committed, fresh, 0.10);
  ASSERT_EQ(drift.size(), 1u);
  EXPECT_NE(drift[0].find("rel_err_mean"), std::string::npos);
  EXPECT_TRUE(DiffCalibrationTables(committed, fresh, 0.30).empty());
}

}  // namespace
}  // namespace autoconf
}  // namespace distsketch
