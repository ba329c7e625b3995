#include "autoconf/solver.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "autoconf/protocol_factory.h"
#include "sketch/quantizer.h"

namespace distsketch {
namespace autoconf {
namespace {

// Frame header charged per message, in encoded bytes and in words at
// the default 64-bit word.
constexpr double kFrameBytes = 40.0;
constexpr double kPerMessageOverheadWords = kFrameBytes / 8.0;

// One synchronization round expressed in words. This is the
// latency/bandwidth knob of the topology model: without it a binary
// chain always wins on serialized receives; with it deep trees stop
// paying once messages are small relative to a round trip.
constexpr double kRoundOverheadWords = 128.0;

std::string FormatEps(double eps) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", eps);
  return buf;
}

double LogTerm(size_t d, double delta) {
  return std::max(1.0, std::log(static_cast<double>(d) / delta));
}

// Families whose merge is associative: the uplink payload size is fixed
// per hop, so non-star aggregation topologies apply.
bool Associative(ProtocolFamily family) {
  return family == ProtocolFamily::kFdMerge ||
         family == ProtocolFamily::kExactGram ||
         family == ProtocolFamily::kCountSketch;
}

// The analytic covariance-error bound of `family` at working_eps,
// relative to ||A||_F^2 (k >= 1 bounds are eps * tail / k <= eps, so
// working_eps is the honest relative ceiling there too).
double AnalyticRelativeBound(ProtocolFamily family, double working_eps) {
  if (family == ProtocolFamily::kExactGram) return 0.0;
  return working_eps;
}

// Uplink message size in words for the associative families (what each
// hop of a reduction carries): the packed d x d Gram, the l x d FD
// sketch, the m x d CountSketch buckets.
double MessageWords(const SketchConfig& config, size_t d) {
  if (config.family == ProtocolFamily::kExactGram) {
    return static_cast<double>(d) * static_cast<double>(d + 1) / 2.0;
  }
  return static_cast<double>(config.sketch_rows) * static_cast<double>(d);
}

// Total words per the paper's Table 1 (constants calibrated to this
// implementation).
double TotalWords(const SketchConfig& config, size_t s, size_t d) {
  const double sd = static_cast<double>(s);
  const double dd = static_cast<double>(d);
  switch (config.family) {
    case ProtocolFamily::kExactGram:
    case ProtocolFamily::kFdMerge:
      // Every server ships one message (Thm 2 for FD: s * l * d).
      return sd * MessageWords(config, d);
    case ProtocolFamily::kCountSketch:
      // Every server uplinks its bucket matrix and receives the 1-word
      // seed.
      return sd * MessageWords(config, d) + sd;
    case ProtocolFamily::kRowSampling: {
      // Only provides the (eps, 0) guarantee; t = 2/eps^2 samples (the
      // oversample BuildProtocol runs).
      const double t = 2.0 / (config.working_eps * config.working_eps);
      return t * dd + 3.0 * sd;
    }
    case ProtocolFamily::kSvs: {
      // Thm 6 at alpha = eps/4 (the calibration the protocols use); the
      // linear sampling function of Thm 5 pays log(d/delta) where the
      // quadratic one pays its square root.
      const double alpha = config.working_eps / 4.0;
      const double log_term = LogTerm(d, config.delta);
      return std::sqrt(sd) * dd / alpha *
                 (config.sampling == SamplingFunctionKind::kLinear
                      ? log_term
                      : std::sqrt(log_term)) +
             2.0 * sd;
    }
    case ProtocolFamily::kAdaptiveSketch: {
      // Thm 7: s*k*d for the adaptive sketches plus the SVS round.
      const double k = static_cast<double>(config.k);
      return sd * k * dd +
             std::sqrt(sd) * k * dd / config.working_eps *
                 std::sqrt(LogTerm(d, config.delta)) +
             2.0 * sd;
    }
  }
  return 0.0;
}

// Coordinator inbound and critical path of an s-server reduction of
// `message_words`-word uplinks under `topology`. Inbound: every interior
// merge keeps the per-hop payload fixed, so the coordinator receives
// top_width messages. Critical path: per stage the busiest receiver
// takes its inbound messages back to back (message plus frame header
// each) and each stage adds one round charge — star pays s serialized
// receives in one round, a k-ary tree fewer receives over more rounds.
void PriceReduction(size_t s, const MergeTopologyOptions& topology,
                    double message_words, CostPrediction& cost) {
  auto topo = MergeTopology::Build(s, topology);
  DS_CHECK(topo.ok());
  cost.coordinator_words =
      static_cast<double>(topo->top_width()) * message_words;
  const double per_message = message_words + kPerMessageOverheadWords;
  cost.critical_path_words = 0.0;
  for (const auto& stage : topo->stages()) {
    std::map<int, size_t> inbound;
    size_t busiest = 0;
    for (int node : stage) {
      const size_t count =
          ++inbound[topo->node(static_cast<size_t>(node)).parent];
      busiest = std::max(busiest, count);
    }
    cost.critical_path_words +=
        static_cast<double>(busiest) * per_message + kRoundOverheadWords;
  }
}

// §3.3 bit width of the quantized fd_merge uplink (analytic fallback
// when the calibration table lacks fd_merge_q): entries rounded to the
// SketchRoundingPrecision lattice need log2(range/precision) bits.
uint64_t AnalyticQuantizeBits(const InstanceShape& shape, double eps) {
  const uint64_t n = std::max<uint64_t>(shape.total_rows, 1);
  const double precision =
      SketchRoundingPrecision(n, static_cast<uint64_t>(shape.dim), eps);
  const double bits = std::ceil(std::log2(2.0 / precision)) + 1.0;
  return static_cast<uint64_t>(std::clamp(bits, 1.0, 64.0));
}

CostPrediction PriceConfig(const SketchConfig& config,
                           const InstanceShape& shape,
                           const ErrorPredictor* predictor) {
  const size_t s = shape.num_servers;
  const size_t d = shape.dim;
  CostPrediction cost;
  cost.total_words = TotalWords(config, s, d);
  if (Associative(config.family)) {
    PriceReduction(s, config.topology, MessageWords(config, d), cost);
  } else {
    // Star-only families: everything lands at the coordinator; the
    // critical path serializes the s uplinks of the (averaged) size.
    PriceReduction(s, MergeTopologyOptions::Star(),
                   cost.total_words / static_cast<double>(s), cost);
    cost.coordinator_words = cost.total_words;
  }
  const double bytes_per_word =
      predictor ? predictor->BytesPerWord(FamilyKey(config),
                                          config.working_eps, s)
                : 0.0;
  if (bytes_per_word > 0.0) {
    cost.total_wire_bytes = cost.total_words * bytes_per_word;
    cost.wire_bytes_calibrated = true;
  } else if (config.quantize_bits > 0) {
    cost.total_wire_bytes =
        cost.total_words * static_cast<double>(config.quantize_bits) / 8.0 +
        static_cast<double>(s) * kFrameBytes;
  } else {
    cost.total_wire_bytes =
        cost.total_words * 8.0 + static_cast<double>(s) * kFrameBytes;
  }
  return cost;
}

// Feasibility, binding constraint and headroom against the set budgets.
void JudgeCandidate(const Budget& budget, ConfigCandidate& c) {
  struct Check {
    BindingConstraint which;
    double usage;
    double limit;
  };
  std::vector<Check> checks;
  if (budget.max_coordinator_words > 0) {
    checks.push_back({BindingConstraint::kCoordinatorWords,
                      c.cost.coordinator_words,
                      static_cast<double>(budget.max_coordinator_words)});
  }
  if (budget.max_total_wire_bytes > 0) {
    checks.push_back({BindingConstraint::kWireBytes, c.cost.total_wire_bytes,
                      static_cast<double>(budget.max_total_wire_bytes)});
  }
  if (budget.max_critical_path_words > 0) {
    checks.push_back({BindingConstraint::kCriticalPath,
                      c.cost.critical_path_words,
                      static_cast<double>(budget.max_critical_path_words)});
  }
  if (checks.empty()) {
    c.feasible = true;
    c.binding = BindingConstraint::kErrorGoal;
    c.headroom = std::numeric_limits<double>::infinity();
    return;
  }
  c.feasible = true;
  c.headroom = std::numeric_limits<double>::infinity();
  double worst_ratio = -1.0;
  for (const Check& check : checks) {
    const double usage = std::max(check.usage, 1e-12);
    const double ratio = usage / check.limit;
    if (usage > check.limit) c.feasible = false;
    c.headroom = std::min(c.headroom, check.limit / usage);
    if (ratio > worst_ratio) {
      worst_ratio = ratio;
      c.binding = check.which;
    }
  }
}

// The cost dimension candidates are ranked by: the budgeted one, with
// coordinator words taking priority when several budgets are set (it is
// the paper's headline quantity), total words when none are.
double RankCost(const Budget& budget, const CostPrediction& cost) {
  if (budget.max_coordinator_words > 0) return cost.coordinator_words;
  if (budget.max_total_wire_bytes > 0) return cost.total_wire_bytes;
  if (budget.max_critical_path_words > 0) return cost.critical_path_words;
  return cost.total_words;
}

// Deterministic candidate identity for tie-breaking and summaries.
std::string CandidateKey(const SketchConfig& config) {
  std::string key = FamilyKey(config);
  key += "@";
  key += FormatEps(config.working_eps);
  key += "/";
  key += TopologyKindName(config.topology.kind);
  if (config.topology.kind == TopologyKind::kTree) {
    key += std::to_string(config.topology.fanout);
  }
  return key;
}

std::string Rationale(const ConfigCandidate& c, const SketchGoal& goal) {
  std::ostringstream out;
  out << CandidateKey(c.config);
  if (c.config.working_eps > goal.eps) {
    out << " (relaxed from goal eps " << FormatEps(goal.eps)
        << "; calibration certifies measured error <= "
        << FormatEps(c.error.Certified(true)) << ")";
  }
  out << ": err<=" << FormatEps(c.error.Certified(true)) << " ("
      << (c.error.calibrated ? "calibrated" : "analytic") << "), "
      << static_cast<uint64_t>(c.cost.coordinator_words) << " coord words, "
      << static_cast<uint64_t>(c.cost.total_wire_bytes) << " wire bytes, "
      << static_cast<uint64_t>(c.cost.critical_path_words)
      << " critical-path words; "
      << (c.feasible ? "binding: " : "violates: ")
      << BindingConstraintName(c.binding);
  return out.str();
}

}  // namespace

StatusOr<ConfigPlan> SolveSketchConfig(const AutoConfRequest& request,
                                       const ErrorPredictor* predictor) {
  const SketchGoal& goal = request.goal;
  const InstanceShape& shape = request.shape;
  if (shape.num_servers < 1 || shape.dim < 1) {
    return Status::InvalidArgument("SolveSketchConfig: bad instance shape");
  }
  if (goal.eps <= 0.0 || goal.eps >= 1.0) {
    return Status::InvalidArgument("SolveSketchConfig: eps not in (0,1)");
  }
  if (goal.delta <= 0.0 || goal.delta >= 1.0) {
    return Status::InvalidArgument("SolveSketchConfig: delta not in (0,1)");
  }

  // Family variants the goal admits (family, sampling kind, quantized).
  struct Variant {
    ProtocolFamily family;
    SamplingFunctionKind sampling = SamplingFunctionKind::kQuadratic;
    bool quantized = false;
  };
  std::vector<Variant> variants;
  if (goal.arbitrary_partition) {
    // A = sum of per-server contributions entry-wise: only a sketch
    // linear in A merges correctly, which is CountSketch alone.
    if (!goal.allow_randomized || goal.k != 0) {
      return Status::FailedPrecondition(
          "SolveSketchConfig: no family provides a deterministic or "
          "(eps,k>0) guarantee over arbitrary partitions; only the "
          "randomized (eps,0) CountSketch projection is linear in A");
    }
    variants.push_back({ProtocolFamily::kCountSketch});
  } else if (goal.k == 0) {
    variants.push_back({ProtocolFamily::kFdMerge});
    variants.push_back(
        {ProtocolFamily::kFdMerge, SamplingFunctionKind::kQuadratic, true});
    variants.push_back({ProtocolFamily::kExactGram});
    if (goal.allow_randomized) {
      variants.push_back({ProtocolFamily::kRowSampling});
      variants.push_back({ProtocolFamily::kSvs, SamplingFunctionKind::kLinear});
      variants.push_back(
          {ProtocolFamily::kSvs, SamplingFunctionKind::kQuadratic});
      variants.push_back({ProtocolFamily::kCountSketch});
    }
  } else {
    variants.push_back({ProtocolFamily::kFdMerge});
    variants.push_back({ProtocolFamily::kExactGram});
    if (goal.allow_randomized) {
      variants.push_back({ProtocolFamily::kAdaptiveSketch});
    }
  }

  // working_eps ladder, cheapest (largest) first: the goal eps always
  // qualifies analytically; coarser grid values qualify only when the
  // calibrated band certifies the measured error under the goal.
  std::vector<double> ladder;
  if (predictor != nullptr && request.trust_calibration && goal.k == 0) {
    for (double eps : predictor->table().spec.eps_grid) {
      if (eps > goal.eps) ladder.push_back(eps);
    }
    std::sort(ladder.begin(), ladder.end(), std::greater<double>());
  }
  ladder.push_back(goal.eps);

  ConfigPlan plan;
  plan.goal = goal;
  plan.shape = shape;
  plan.budget = request.budget;

  for (const Variant& variant : variants) {
    // Resolve the variant's working_eps: first ladder entry whose
    // certified error meets the goal.
    SketchConfig base;
    base.family = variant.family;
    base.k = goal.k;
    base.delta = goal.delta;
    base.sampling = variant.sampling;
    // 1 marks the quantized wire (its FamilyKey) until the bit width is
    // resolved below.
    base.quantize_bits = variant.quantized ? 1 : 0;
    bool resolved = false;
    ErrorPrediction resolved_error;
    for (double eps : ladder) {
      base.working_eps = eps;
      base.sketch_rows =
          FamilySketchRows(variant.family, eps, goal.k, shape.dim);
      const std::string key = FamilyKey(base);
      const double analytic = AnalyticRelativeBound(variant.family, eps);
      // The shape enters the prediction: off-spec rows/dim widen the
      // calibrated band (kClampWiden per axis), so relaxation is only
      // certified for instances the calibration workload resembles.
      ErrorPrediction pred =
          predictor ? predictor->PredictError(key, eps, shape.num_servers,
                                              analytic, shape.total_rows,
                                              shape.dim)
                    : ErrorPrediction{analytic, 0.0, analytic, analytic,
                                      false};
      if (pred.Certified(request.trust_calibration) <= goal.eps) {
        resolved = true;
        resolved_error = pred;
        break;
      }
    }
    if (!resolved) continue;

    if (variant.quantized) {
      const double bits_per_word =
          predictor ? predictor->BitsPerWord(FamilyKey(base), base.working_eps,
                                             shape.num_servers)
                    : 0.0;
      base.quantize_bits =
          bits_per_word > 0.0
              ? static_cast<uint64_t>(std::lround(bits_per_word))
              : AnalyticQuantizeBits(shape, base.working_eps);
    }

    // Topology variants: associative families may reduce through
    // interior servers; FdMergeProtocol quantizes on the star only.
    std::vector<MergeTopologyOptions> topologies;
    if (Associative(variant.family) && !variant.quantized &&
        shape.num_servers > 2) {
      topologies = {MergeTopologyOptions::Star(), MergeTopologyOptions::Tree(8),
                    MergeTopologyOptions::Pipeline()};
    } else {
      topologies = {MergeTopologyOptions::Star()};
    }

    for (const MergeTopologyOptions& topology : topologies) {
      ConfigCandidate c;
      c.config = base;
      c.config.topology = topology;
      c.error = resolved_error;
      c.cost = PriceConfig(c.config, shape, predictor);
      JudgeCandidate(request.budget, c);
      c.rationale = Rationale(c, goal);
      plan.ranked.push_back(std::move(c));
    }
  }

  if (plan.ranked.empty()) {
    return Status::FailedPrecondition(
        "SolveSketchConfig: no protocol family satisfies the goal");
  }

  // Rank: feasible before infeasible; feasible by the budgeted cost
  // dimension, infeasible by how close they come (largest headroom
  // first). Ties break on total words, then on the critical path (so
  // equal-word topologies resolve to the shortest one), then on the
  // deterministic candidate key.
  const Budget& budget = request.budget;
  std::stable_sort(
      plan.ranked.begin(), plan.ranked.end(),
      [&budget](const ConfigCandidate& a, const ConfigCandidate& b) {
        if (a.feasible != b.feasible) return a.feasible;
        if (a.feasible) {
          const double ca = RankCost(budget, a.cost);
          const double cb = RankCost(budget, b.cost);
          if (ca != cb) return ca < cb;
        } else if (a.headroom != b.headroom) {
          return a.headroom > b.headroom;
        }
        if (a.cost.total_words != b.cost.total_words) {
          return a.cost.total_words < b.cost.total_words;
        }
        if (a.cost.critical_path_words != b.cost.critical_path_words) {
          return a.cost.critical_path_words < b.cost.critical_path_words;
        }
        return CandidateKey(a.config) < CandidateKey(b.config);
      });
  return plan;
}

}  // namespace autoconf
}  // namespace distsketch
