#include "autoconf/config_plan.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace distsketch {
namespace autoconf {
namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string_view BindingConstraintName(BindingConstraint binding) {
  switch (binding) {
    case BindingConstraint::kErrorGoal:
      return "error_goal";
    case BindingConstraint::kCoordinatorWords:
      return "coordinator_words";
    case BindingConstraint::kWireBytes:
      return "wire_bytes";
    case BindingConstraint::kCriticalPath:
      return "critical_path";
  }
  return "unknown";
}

std::string PlanSummary(const ConfigPlan& plan) {
  std::ostringstream out;
  out << "goal eps=" << Num(plan.goal.eps) << " k=" << plan.goal.k
      << " delta=" << Num(plan.goal.delta)
      << " randomized=" << (plan.goal.allow_randomized ? 1 : 0)
      << " arbitrary_partition=" << (plan.goal.arbitrary_partition ? 1 : 0)
      << "\n";
  out << "shape s=" << plan.shape.num_servers << " d=" << plan.shape.dim
      << " n=" << plan.shape.total_rows << "\n";
  out << "budget coord_words=" << plan.budget.max_coordinator_words
      << " wire_bytes=" << plan.budget.max_total_wire_bytes
      << " critical_path=" << plan.budget.max_critical_path_words << "\n";
  out << "feasible=" << (plan.feasible() ? 1 : 0) << "\n";
  for (size_t i = 0; i < plan.ranked.size(); ++i) {
    const ConfigCandidate& c = plan.ranked[i];
    out << i << ". " << ProtocolFamilyName(c.config.family);
    if (c.config.family == ProtocolFamily::kSvs) {
      out << "/"
          << (c.config.sampling == SamplingFunctionKind::kLinear
                  ? "linear"
                  : "quadratic");
    }
    out << " eps=" << Num(c.config.working_eps)
        << " rows=" << c.config.sketch_rows
        << " qbits=" << c.config.quantize_bits << " topo="
        << TopologyKindName(c.config.topology.kind);
    if (c.config.topology.kind == TopologyKind::kTree) {
      out << c.config.topology.fanout;
    }
    out << " | err=" << Num(c.error.predicted) << " band=[" << Num(c.error.lo)
        << "," << Num(c.error.hi) << "] analytic=" << Num(c.error.analytic)
        << " calibrated=" << (c.error.calibrated ? 1 : 0);
    out << " | words=" << Num(c.cost.total_words)
        << " coord=" << Num(c.cost.coordinator_words)
        << " critical=" << Num(c.cost.critical_path_words)
        << " bytes=" << Num(c.cost.total_wire_bytes);
    out << " | feasible=" << (c.feasible ? 1 : 0) << " binding="
        << BindingConstraintName(c.binding) << "\n";
  }
  return out.str();
}

}  // namespace autoconf
}  // namespace distsketch
