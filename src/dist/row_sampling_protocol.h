#ifndef DISTSKETCH_DIST_ROW_SAMPLING_PROTOCOL_H_
#define DISTSKETCH_DIST_ROW_SAMPLING_PROTOCOL_H_

#include <cstdint>

#include "dist/protocol.h"
#include "dist/protocol_family.h"

namespace distsketch {

/// Options for the distributed row-sampling protocol.
struct RowSamplingOptions {
  /// Target coverr <= eps * ||A||_F^2 (constant probability).
  double eps = 0.1;
  /// Total samples t = ceil(oversample / eps^2).
  double oversample = 1.0;
  uint64_t seed = 42;
};

/// Distributed squared-norm row sampling [10] (the "Sampling" row of
/// Table 1), implemented in the distributed streaming model:
///
///   pass:     every server runs t one-row weighted reservoirs over its
///             local stream and tracks its local mass ||A^(i)||_F^2.
///   round 1:  servers report local masses (s words).
///   round 2:  the coordinator draws the multinomial split of the t
///             global samples across servers by mass, and replies with
///             each server's count and the global mass (2 words/server).
///   round 3:  server i sends its first m_i reservoir rows rescaled by
///             1/sqrt(t * p_row) with p_row = ||row||^2/||A||_F^2
///             (sum_i m_i * d = t*d words).
///
/// Total O(s + d/eps^2) words: cheap in s, but quadratic in 1/eps and
/// only the weak eps*||A||_F^2 error — the trade-off Table 1 isolates.
class RowSamplingProtocol : public SketchProtocol {
 public:
  explicit RowSamplingProtocol(RowSamplingOptions options)
      : options_(options) {}

  std::string_view Name() const override {
    return ProtocolFamilyName(ProtocolFamily::kRowSampling);
  }
  StatusOr<SketchProtocolResult> Run(Cluster& cluster) override;

  const RowSamplingOptions& options() const { return options_; }

 private:
  RowSamplingOptions options_;
};

}  // namespace distsketch

#endif  // DISTSKETCH_DIST_ROW_SAMPLING_PROTOCOL_H_
