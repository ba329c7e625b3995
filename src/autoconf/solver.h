#ifndef DISTSKETCH_AUTOCONF_SOLVER_H_
#define DISTSKETCH_AUTOCONF_SOLVER_H_

#include <cstdint>

#include "autoconf/config_plan.h"
#include "autoconf/error_predictor.h"
#include "common/status.h"
#include "dist/sketch_goal.h"

namespace distsketch {
namespace autoconf {

/// Input to the constraint solver: what the caller wants (goal), what
/// they can afford (budget), and the instance it runs against (shape).
struct AutoConfRequest {
  SketchGoal goal;
  Budget budget;
  InstanceShape shape;
  uint64_t seed = 42;
  /// When true the solver may relax working_eps above goal.eps wherever
  /// the calibrated predictor certifies the measured error still meets
  /// the goal (the SketchConf trade: cheaper configs on benign spectra).
  /// When false — or with no predictor — only analytic bounds count.
  bool trust_calibration = true;
};

/// Solves goal x budget -> ranked sketch configurations.
///
/// The one protocol selector. The search space is protocol family x
/// working_eps x sampling function x quantization x merge topology,
/// priced by the paper's Table 1 word formulas, a topology model
/// (coordinator inbound = top_width messages; critical path = per stage,
/// the busiest receiver's serialized receives plus one round charge) and
/// the calibrated error predictor. With no predictor and no budget the
/// best candidate is the Table 1 cheapest family, and among its
/// equal-word topologies the one with the shortest critical path.
/// BuildProtocol (protocol_factory.h) turns any candidate into a
/// runnable protocol. A pure single-threaded function of its inputs: the
/// returned plan (and PlanSummary) is byte-identical at any DS_THREADS.
///
/// Errors: InvalidArgument for malformed inputs; FailedPrecondition when
/// the goal itself is unsatisfiable by any family (e.g. a deterministic
/// guarantee over an arbitrary partition). An *infeasible budget* is not
/// an error: the plan comes back with feasible() == false and the ranked
/// candidates show how far each config overshoots (headroom < 1).
StatusOr<ConfigPlan> SolveSketchConfig(const AutoConfRequest& request,
                                       const ErrorPredictor* predictor);

}  // namespace autoconf
}  // namespace distsketch

#endif  // DISTSKETCH_AUTOCONF_SOLVER_H_
