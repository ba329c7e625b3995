#include "autoconf/protocol_factory.h"

#include <cmath>

#include "dist/adaptive_sketch_protocol.h"
#include "dist/countsketch_protocol.h"
#include "dist/exact_gram_protocol.h"
#include "dist/fd_merge_protocol.h"
#include "dist/row_sampling_protocol.h"
#include "dist/svs_protocol.h"

namespace distsketch {
namespace autoconf {

StatusOr<std::unique_ptr<SketchProtocol>> BuildProtocol(
    const SketchConfig& config, uint64_t seed) {
  if (config.working_eps <= 0.0 || config.working_eps >= 1.0) {
    return Status::InvalidArgument(
        "BuildProtocol: working_eps not in (0,1) for family " + config.family);
  }
  if (config.family == "fd_merge") {
    FdMergeOptions options;
    options.eps = config.working_eps;
    options.k = config.k;
    options.quantize = config.quantize_bits > 0;
    options.topology = config.topology;
    if (options.quantize && !config.topology.is_star()) {
      return Status::InvalidArgument(
          "BuildProtocol: quantized fd_merge requires the star topology");
    }
    return {std::make_unique<FdMergeProtocol>(options)};
  }
  if (config.family == "exact_gram") {
    ExactGramOptions options;
    options.topology = config.topology;
    return {std::make_unique<ExactGramProtocol>(options)};
  }
  if (config.family == "row_sampling") {
    RowSamplingOptions options;
    options.eps = config.working_eps;
    options.oversample = 2.0;
    options.seed = seed;
    return {std::make_unique<RowSamplingProtocol>(options)};
  }
  if (config.family == "svs") {
    SvsProtocolOptions options;
    options.alpha = config.working_eps / 4.0;
    options.delta = config.delta;
    options.kind = config.sampling;
    options.seed = seed;
    return {std::make_unique<SvsProtocol>(options)};
  }
  if (config.family == "adaptive_sketch") {
    AdaptiveSketchOptions options;
    options.eps = config.working_eps;
    options.k = config.k;
    options.delta = config.delta;
    options.kind = config.sampling;
    options.seed = seed;
    return {std::make_unique<AdaptiveSketchProtocol>(options)};
  }
  if (config.family == "countsketch") {
    CountSketchProtocolOptions options;
    options.eps = config.working_eps;
    options.seed = seed;
    options.topology = config.topology;
    return {std::make_unique<CountSketchProtocol>(options)};
  }
  return Status::InvalidArgument("BuildProtocol: unknown family " +
                                 config.family);
}

size_t FamilySketchRows(const std::string& family, double eps, size_t k,
                        size_t dim) {
  if (family == "fd_merge") {
    return k == 0 ? static_cast<size_t>(std::ceil(1.0 / eps)) + 1
                  : k + static_cast<size_t>(std::ceil(k / eps));
  }
  if (family == "exact_gram") return dim;
  if (family == "countsketch") {
    return CountSketchBuckets(eps, kDefaultCountSketchOversample);
  }
  if (family == "row_sampling") {
    return static_cast<size_t>(std::ceil(2.0 / (eps * eps)));
  }
  // svs / adaptive_sketch: the expected number of sampled rows is
  // instance-dependent; report the FD-equivalent l for the table.
  return k == 0 ? static_cast<size_t>(std::ceil(1.0 / eps)) + 1
                : k + static_cast<size_t>(std::ceil(k / eps));
}

std::string FamilyKey(const SketchConfig& config) {
  if (config.family == "fd_merge" && config.quantize_bits > 0) {
    return "fd_merge_q";
  }
  if (config.family == "svs") {
    return config.sampling == SamplingFunctionKind::kLinear
               ? "svs_linear"
               : "svs_quadratic";
  }
  return config.family;
}

}  // namespace autoconf
}  // namespace distsketch
