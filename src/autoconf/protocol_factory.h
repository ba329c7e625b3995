#ifndef DISTSKETCH_AUTOCONF_PROTOCOL_FACTORY_H_
#define DISTSKETCH_AUTOCONF_PROTOCOL_FACTORY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "autoconf/config_plan.h"
#include "common/status.h"
#include "dist/protocol.h"

namespace distsketch {
namespace autoconf {

/// Turns a solved SketchConfig into a runnable protocol — the executable
/// half of the plan's machine-checkable rationale: tests and the
/// calibration sweep run exactly what the solver priced. Rejects
/// invalid combinations (working_eps outside (0,1), quantization off
/// the fd_merge star) with InvalidArgument.
StatusOr<std::unique_ptr<SketchProtocol>> BuildProtocol(
    const SketchConfig& config, uint64_t seed);

/// Rows (FD l / CountSketch buckets m / expected samples t) of the
/// family's uplink message at `eps` — the l knob of Table 1 the solver
/// reports in SketchConfig::sketch_rows.
size_t FamilySketchRows(ProtocolFamily family, double eps, size_t k,
                        size_t dim);

/// The calibration/predictor key of a configuration: the family name
/// plus the knobs that change its measured behaviour (a "_q" suffix for
/// the quantized fd_merge wire, "_linear" / "_quadratic" on svs for the
/// Thm 5 / Thm 6 sampling functions).
std::string FamilyKey(const SketchConfig& config);

}  // namespace autoconf
}  // namespace distsketch

#endif  // DISTSKETCH_AUTOCONF_PROTOCOL_FACTORY_H_
