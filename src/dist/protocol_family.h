#ifndef DISTSKETCH_DIST_PROTOCOL_FAMILY_H_
#define DISTSKETCH_DIST_PROTOCOL_FAMILY_H_

#include <cstdint>
#include <string_view>

#include "common/status.h"

namespace distsketch {

/// The six distributed covariance-sketch protocol families of the
/// paper's Table 1 (plus the linear CountSketch projection for the
/// arbitrary-partition model). The family is what the auto-configurer
/// selects and prices; each family's protocol reports its name through
/// SketchProtocol::Name().
enum class ProtocolFamily : uint8_t {
  kFdMerge,
  kExactGram,
  kRowSampling,
  kSvs,
  kAdaptiveSketch,
  kCountSketch,
};

/// The family's canonical name — the one string form, frozen in the
/// calibration JSON keys, the service wire's ConfigSummary, PlanSummary
/// text and the protocols' run-scope names.
std::string_view ProtocolFamilyName(ProtocolFamily family);
/// Inverse of ProtocolFamilyName; InvalidArgument for any other string.
StatusOr<ProtocolFamily> ParseProtocolFamily(std::string_view name);

}  // namespace distsketch

#endif  // DISTSKETCH_DIST_PROTOCOL_FAMILY_H_
