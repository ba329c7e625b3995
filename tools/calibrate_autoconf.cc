// Offline calibration sweep for the autoconf error predictor. Usage:
//
//   calibrate_autoconf --out <path>      rerun the sweep, write the table
//   calibrate_autoconf --check <path>    rerun the sweep, compare against
//                                        the committed table; exits non-zero
//                                        on >10% drift at any grid point
//
// The sweep is deterministic (fixed spec, fixed seeds, protocols
// bit-identical at any DS_THREADS), so --check catches real behaviour
// changes — a protocol emitting different bytes or different errors —
// not environmental noise. CI runs the --check mode as the
// autoconf-smoke gate.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "autoconf/calibration.h"

using distsketch::autoconf::CalibrationTable;
using distsketch::autoconf::CalibrationTableToJson;
using distsketch::autoconf::DefaultCalibrationSpec;
using distsketch::autoconf::DiffCalibrationTables;
using distsketch::autoconf::LoadCalibrationTable;
using distsketch::autoconf::RunCalibrationSweep;

// Relative drift at any grid point that fails --check.
constexpr double kDriftTolerance = 0.10;

int main(int argc, char** argv) {
  std::string out_path;
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      check_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: calibrate_autoconf --out <path> | --check "
                   "<path>\n");
      return 2;
    }
  }
  if (out_path.empty() == check_path.empty()) {
    std::fprintf(stderr, "exactly one of --out / --check is required\n");
    return 2;
  }

  std::printf("running calibration sweep...\n");
  auto fresh = RunCalibrationSweep(DefaultCalibrationSpec());
  if (!fresh.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 fresh.status().ToString().c_str());
    return 1;
  }
  std::printf("swept %zu grid points\n", fresh->points.size());

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << CalibrationTableToJson(*fresh);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
  }

  auto committed = LoadCalibrationTable(check_path);
  if (!committed.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", check_path.c_str(),
                 committed.status().ToString().c_str());
    return 1;
  }
  const auto drift = DiffCalibrationTables(*committed, *fresh, kDriftTolerance);
  if (!drift.empty()) {
    std::fprintf(stderr,
                 "calibration drift beyond %.0f%% at %zu grid point(s):\n",
                 kDriftTolerance * 100.0, drift.size());
    for (const std::string& line : drift) {
      std::fprintf(stderr, "  %s\n", line.c_str());
    }
    std::fprintf(stderr,
                 "if the change is intentional, regenerate with --out and "
                 "commit the new table\n");
    return 1;
  }
  std::printf("calibration check passed: all %zu grid points within %.0f%%\n",
              committed->points.size(), kDriftTolerance * 100.0);
  return 0;
}
