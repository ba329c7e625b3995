#include "autoconf/protocol_factory.h"

#include <cmath>

#include "dist/adaptive_sketch_protocol.h"
#include "dist/countsketch_protocol.h"
#include "dist/exact_gram_protocol.h"
#include "dist/fd_merge_protocol.h"
#include "dist/row_sampling_protocol.h"
#include "dist/svs_protocol.h"
#include "sketch/frequent_directions.h"

namespace distsketch {
namespace autoconf {

StatusOr<std::unique_ptr<SketchProtocol>> BuildProtocol(
    const SketchConfig& config, uint64_t seed) {
  if (config.working_eps <= 0.0 || config.working_eps >= 1.0) {
    return Status::InvalidArgument(
        "BuildProtocol: working_eps not in (0,1) for family " +
        std::string(ProtocolFamilyName(config.family)));
  }
  switch (config.family) {
    case ProtocolFamily::kFdMerge: {
      FdMergeOptions options;
      options.eps = config.working_eps;
      options.k = config.k;
      options.quantize = config.quantize_bits > 0;
      options.topology = config.topology;
      return {std::make_unique<FdMergeProtocol>(options)};
    }
    case ProtocolFamily::kExactGram: {
      ExactGramOptions options;
      options.topology = config.topology;
      return {std::make_unique<ExactGramProtocol>(options)};
    }
    case ProtocolFamily::kRowSampling: {
      RowSamplingOptions options;
      options.eps = config.working_eps;
      options.oversample = 2.0;
      options.seed = seed;
      return {std::make_unique<RowSamplingProtocol>(options)};
    }
    case ProtocolFamily::kSvs: {
      SvsProtocolOptions options;
      options.alpha = config.working_eps / 4.0;
      options.delta = config.delta;
      options.kind = config.sampling;
      options.seed = seed;
      return {std::make_unique<SvsProtocol>(options)};
    }
    case ProtocolFamily::kAdaptiveSketch: {
      AdaptiveSketchOptions options;
      options.eps = config.working_eps;
      options.k = config.k;
      options.delta = config.delta;
      options.kind = config.sampling;
      options.seed = seed;
      return {std::make_unique<AdaptiveSketchProtocol>(options)};
    }
    case ProtocolFamily::kCountSketch: {
      CountSketchProtocolOptions options;
      options.eps = config.working_eps;
      options.seed = seed;
      options.topology = config.topology;
      return {std::make_unique<CountSketchProtocol>(options)};
    }
  }
  return Status::InvalidArgument("BuildProtocol: unknown family");
}

size_t FamilySketchRows(ProtocolFamily family, double eps, size_t k,
                        size_t dim) {
  switch (family) {
    case ProtocolFamily::kExactGram:
      return dim;
    case ProtocolFamily::kCountSketch:
      return CountSketchBuckets(eps, kDefaultCountSketchOversample);
    case ProtocolFamily::kRowSampling:
      return static_cast<size_t>(std::ceil(2.0 / (eps * eps)));
    case ProtocolFamily::kFdMerge:
    case ProtocolFamily::kSvs:
    case ProtocolFamily::kAdaptiveSketch:
      // svs / adaptive_sketch: the expected number of sampled rows is
      // instance-dependent; report the FD-equivalent l for the table.
      break;
  }
  return FdSketchSize(eps, k);
}

std::string FamilyKey(const SketchConfig& config) {
  std::string key(ProtocolFamilyName(config.family));
  if (config.family == ProtocolFamily::kFdMerge && config.quantize_bits > 0) {
    key += "_q";
  }
  if (config.family == ProtocolFamily::kSvs) {
    key += config.sampling == SamplingFunctionKind::kLinear ? "_linear"
                                                            : "_quadratic";
  }
  return key;
}

}  // namespace autoconf
}  // namespace distsketch
