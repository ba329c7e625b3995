#ifndef DISTSKETCH_AUTOCONF_CONFIG_PLAN_H_
#define DISTSKETCH_AUTOCONF_CONFIG_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "dist/merge_topology.h"
#include "dist/protocol_family.h"
#include "dist/sketch_goal.h"
#include "sketch/sampling_function.h"

namespace distsketch {
namespace autoconf {

/// Communication / latency budget the solver treats as first-class
/// constraints (not outputs). 0 means unconstrained. Units follow the
/// solver's cost model: words are 64-bit machine words of payload,
/// wire bytes are encoded frame bytes, the critical path is the
/// serialized-receive word count of the reduction (solver.h).
struct Budget {
  /// Payload words received by the coordinator — the quantity
  /// aggregation trees shrink while total words stay put.
  uint64_t max_coordinator_words = 0;
  /// Total encoded bytes across every link — the quantity §3.3
  /// quantization shrinks while word counts stay put.
  uint64_t max_total_wire_bytes = 0;
  /// Serialized-receive critical path in words — the latency proxy that
  /// trades star round-trips against tree depth.
  uint64_t max_critical_path_words = 0;

  bool Unconstrained() const {
    return max_coordinator_words == 0 && max_total_wire_bytes == 0 &&
           max_critical_path_words == 0;
  }
};

/// The instance the configuration will run against.
struct InstanceShape {
  /// Number of servers s holding the row partition.
  size_t num_servers = 1;
  /// Row dimension d.
  size_t dim = 0;
  /// Expected total rows n (enters the §3.3 rounding precision and the
  /// predictor's workload key; an estimate is fine).
  size_t total_rows = 0;
};

/// A fully resolved sketch configuration: everything a caller previously
/// had to hand-pick. BuildProtocol (protocol_factory.h) turns one of
/// these into a runnable SketchProtocol.
struct SketchConfig {
  ProtocolFamily family = ProtocolFamily::kFdMerge;
  /// The eps parameter the protocol actually runs at. The solver may
  /// relax it above the goal's eps when the calibrated predictor
  /// certifies the measured error still meets the goal.
  double working_eps = 0.1;
  /// Rank parameter forwarded from the goal.
  size_t k = 0;
  /// Sketch size the family's uplink message carries: FD rows l,
  /// CountSketch buckets m, expected sample count for the sampling
  /// families, d for exact_gram.
  size_t sketch_rows = 0;
  /// Thm 5 (linear) vs Thm 6 (quadratic) sampling function; meaningful
  /// for the svs family only.
  SamplingFunctionKind sampling = SamplingFunctionKind::kQuadratic;
  /// §3.3 fixed-point quantization bits per entry on the uplink payload
  /// (0 = dense 64-bit entries). Only fd_merge under a star supports the
  /// quantized wire format.
  uint64_t quantize_bits = 0;
  /// Aggregation topology the run uses.
  MergeTopologyOptions topology;
  double delta = 0.1;
};

/// Predicted *measured* covariance error, relative to ||A||_F^2, with a
/// confidence band, plus the paper's analytic bound for cross-checking.
struct ErrorPrediction {
  /// Central prediction (geometric mean over calibration replicates).
  double predicted = 0.0;
  /// Confidence band: every calibration replicate fell inside
  /// [lo, hi] with the calibration margin applied (predictor honesty is
  /// tested against live runs at every grid point).
  double lo = 0.0;
  double hi = 0.0;
  /// The paper's analytic bound for this family at working_eps (relative
  /// to ||A||_F^2): the guarantee that holds for any input.
  double analytic = 0.0;
  /// True when the prediction interpolates calibration measurements;
  /// false when it fell back to the analytic bound alone.
  bool calibrated = false;

  /// The error level the solver certifies: the calibrated band ceiling
  /// when available (and trusted), never above the analytic guarantee.
  double Certified(bool trust_calibration) const {
    if (calibrated && trust_calibration && hi < analytic) return hi;
    return analytic;
  }
};

/// Predicted communication cost of one configuration.
struct CostPrediction {
  double total_words = 0.0;
  double coordinator_words = 0.0;
  double critical_path_words = 0.0;
  /// Encoded bytes across every link. Interpolated from calibration
  /// measurements when available (exact frame overheads, quantized
  /// payload bits), analytic words*8 plus per-message framing otherwise.
  double total_wire_bytes = 0.0;
  /// True when total_wire_bytes comes from calibration measurements.
  bool wire_bytes_calibrated = false;
};

/// Which constraint decided a candidate's fate: the one it violates
/// (infeasible) or the one with the least headroom (feasible).
enum class BindingConstraint : uint8_t {
  /// No budget set — the error goal alone shaped the config.
  kErrorGoal = 0,
  kCoordinatorWords = 1,
  kWireBytes = 2,
  kCriticalPath = 3,
};

std::string_view BindingConstraintName(BindingConstraint binding);

/// One ranked configuration with its machine-checkable rationale: the
/// predicted error, the predicted cost, and the binding constraint.
struct ConfigCandidate {
  SketchConfig config;
  ErrorPrediction error;
  CostPrediction cost;
  /// True iff every set budget limit is respected by `cost`.
  bool feasible = true;
  BindingConstraint binding = BindingConstraint::kErrorGoal;
  /// min over set budget limits of (limit / predicted usage); >= 1 iff
  /// feasible, < 1 quantifies the violation. +inf when no budget is set.
  double headroom = 0.0;
  /// Human-readable one-liner ("fd_merge @ eps 0.12, tree(8): ...").
  std::string rationale;
};

/// The solver's answer: every evaluated configuration, ranked — feasible
/// candidates first by the budgeted cost dimension, then infeasible ones
/// by violation. ranked[0] is the chosen plan when feasible() holds.
struct ConfigPlan {
  std::vector<ConfigCandidate> ranked;
  /// The goal and shape the plan answers (echoed for auditability).
  SketchGoal goal;
  InstanceShape shape;
  Budget budget;

  bool feasible() const { return !ranked.empty() && ranked.front().feasible; }
  const ConfigCandidate& best() const { return ranked.front(); }
};

/// Canonical text form of a plan (sorted, fixed formatting): the
/// determinism contract is that equal inputs produce byte-identical
/// summaries at any DS_THREADS, which tests pin with this string.
std::string PlanSummary(const ConfigPlan& plan);

}  // namespace autoconf
}  // namespace distsketch

#endif  // DISTSKETCH_AUTOCONF_CONFIG_PLAN_H_
