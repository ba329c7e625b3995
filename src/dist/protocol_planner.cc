#include "dist/protocol_planner.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "common/logging.h"
#include "dist/adaptive_sketch_protocol.h"
#include "dist/countsketch_protocol.h"
#include "dist/exact_gram_protocol.h"
#include "dist/fd_merge_protocol.h"
#include "dist/row_sampling_protocol.h"
#include "dist/svs_protocol.h"
#include "telemetry/span.h"

namespace distsketch {
namespace {

double LogTerm(size_t d, double delta) {
  return std::max(1.0, std::log(static_cast<double>(d) / delta));
}

/// Words of one CountSketch uplink: the m-by-d bucket matrix at the
/// protocol's default oversample.
double CountSketchMessageWords(size_t d, double eps) {
  return static_cast<double>(
             CountSketchBuckets(eps, kDefaultCountSketchOversample)) *
         static_cast<double>(d);
}

/// Sketch rows l of the FD protocol the request would run (the uplink
/// message is l x d).
double FdSketchRows(const SketchRequest& req) {
  return req.k == 0 ? std::ceil(1.0 / req.eps) + 1.0
                    : req.k + std::ceil(req.k / req.eps);
}

/// Frame header charged per message on the critical path (40 encoded
/// bytes = 5 words at the default 64-bit word).
constexpr double kPerMessageOverheadWords = 5.0;

/// One synchronization round expressed in words. This is the
/// latency/bandwidth knob of the topology model: without it a binary
/// chain always wins on serialized receives; with it deep trees stop
/// paying once messages are small relative to a round trip.
constexpr double kRoundOverheadWords = 128.0;

}  // namespace

double PredictExactGramWords(size_t s, size_t d) {
  return static_cast<double>(s) * static_cast<double>(d) *
         static_cast<double>(d + 1) / 2.0;
}

double PredictFdMergeWords(size_t s, size_t d, const SketchRequest& req) {
  const double l = req.k == 0
                       ? std::ceil(1.0 / req.eps) + 1.0
                       : req.k + std::ceil(req.k / req.eps);
  return static_cast<double>(s) * l * static_cast<double>(d);
}

double PredictRowSamplingWords(size_t s, size_t d,
                               const SketchRequest& req) {
  // Only provides the (eps, 0) guarantee; t = 2/eps^2 samples (the
  // oversample this library defaults to in benches).
  const double t = 2.0 / (req.eps * req.eps);
  return t * static_cast<double>(d) + 3.0 * static_cast<double>(s);
}

double PredictSvsWords(size_t s, size_t d, const SketchRequest& req) {
  // Theorem 6 at alpha = eps/4 (the calibration the protocols use).
  const double alpha = req.eps / 4.0;
  return std::sqrt(static_cast<double>(s)) * static_cast<double>(d) /
             alpha * std::sqrt(LogTerm(d, req.delta)) +
         2.0 * static_cast<double>(s);
}

double PredictAdaptiveWords(size_t s, size_t d, const SketchRequest& req) {
  const double k = static_cast<double>(req.k);
  return static_cast<double>(s) * k * static_cast<double>(d) +
         std::sqrt(static_cast<double>(s)) * k * static_cast<double>(d) /
             req.eps * std::sqrt(LogTerm(d, req.delta)) +
         2.0 * static_cast<double>(s);
}

double PredictCountSketchWords(size_t s, size_t d,
                               const SketchRequest& req) {
  // Every server uplinks its bucket matrix and receives the 1-word seed.
  return static_cast<double>(s) * CountSketchMessageWords(d, req.eps) +
         static_cast<double>(s);
}

double PredictCoordinatorInboundWords(size_t s,
                                      const MergeTopologyOptions& topology,
                                      double message_words) {
  auto topo = MergeTopology::Build(s, topology);
  DS_CHECK(topo.ok());
  return static_cast<double>(topo->top_width()) * message_words;
}

double PredictCriticalPathWords(size_t s, const MergeTopologyOptions& topology,
                                double message_words) {
  auto topo = MergeTopology::Build(s, topology);
  DS_CHECK(topo.ok());
  const double per_message = message_words + kPerMessageOverheadWords;
  double total = 0.0;
  for (const auto& stage : topo->stages()) {
    // The busiest receiver of the stage takes its inbound messages back
    // to back; everything else overlaps with it.
    std::map<int, size_t> inbound;
    size_t busiest = 0;
    for (int node : stage) {
      const size_t count = ++inbound[topo->node(static_cast<size_t>(node))
                                         .parent];
      busiest = std::max(busiest, count);
    }
    total += static_cast<double>(busiest) * per_message + kRoundOverheadWords;
  }
  return total;
}

MergeTopologyOptions ChooseMergeTopology(size_t s, double message_words) {
  // Star first, then trees shallowest first, so ties keep the simpler
  // schedule (small s stays a star: a degenerate tree costs the same
  // receives plus extra rounds).
  const MergeTopologyOptions candidates[] = {
      MergeTopologyOptions::Star(),    MergeTopologyOptions::Tree(32),
      MergeTopologyOptions::Tree(16),  MergeTopologyOptions::Tree(8),
      MergeTopologyOptions::Tree(4),   MergeTopologyOptions::Tree(2),
  };
  MergeTopologyOptions best = candidates[0];
  double best_cost = PredictCriticalPathWords(s, best, message_words);
  for (size_t i = 1; i < sizeof(candidates) / sizeof(candidates[0]); ++i) {
    const double cost =
        PredictCriticalPathWords(s, candidates[i], message_words);
    if (cost < best_cost) {
      best = candidates[i];
      best_cost = cost;
    }
  }
  return best;
}

StatusOr<ProtocolPlan> PlanSketchProtocol(size_t num_servers, size_t dim,
                                          const SketchRequest& request) {
  if (num_servers < 1 || dim < 1) {
    return Status::InvalidArgument("PlanSketchProtocol: bad instance");
  }
  if (request.eps <= 0.0 || request.eps >= 1.0) {
    return Status::InvalidArgument("PlanSketchProtocol: eps not in (0,1)");
  }
  const size_t s = num_servers;
  const size_t d = dim;

  // Arbitrary-partition regime: A = sum_i A^(i) entry-wise, so only a
  // sketch linear in A is mergeable — the CountSketch family. FD merges,
  // per-shard Grams and row sampling all assume whole rows and are out.
  if (request.arbitrary_partition) {
    if (!request.allow_randomized || request.k != 0) {
      return Status::FailedPrecondition(
          "PlanSketchProtocol: no protocol family provides a deterministic "
          "or (eps,k>0) guarantee over arbitrary partitions; only the "
          "randomized (eps,0) CountSketch projection is linear in A");
    }
    ProtocolPlan plan;
    CountSketchProtocolOptions options;
    options.eps = request.eps;
    options.seed = request.seed;
    const double message_words = CountSketchMessageWords(d, request.eps);
    plan.topology = request.auto_topology
                        ? ChooseMergeTopology(s, message_words)
                        : request.topology;
    options.topology = plan.topology;
    plan.protocol = std::make_unique<CountSketchProtocol>(options);
    plan.predicted_words = PredictCountSketchWords(s, d, request);
    plan.predicted_coordinator_words =
        PredictCoordinatorInboundWords(s, plan.topology, message_words);
    plan.rationale =
        "countsketch: only family linear in A, survives arbitrary partition";
    telemetry::Count("planner.plans");
    telemetry::Count("planner.pick.countsketch");
    return plan;
  }

  // The span records the full decision: instance shape, every candidate
  // cost, and the winner with its rationale.
  telemetry::Span span("planner/plan", telemetry::Phase::kCompute);
  if (span.active()) {
    span.SetAttr("s", static_cast<uint64_t>(s));
    span.SetAttr("d", static_cast<uint64_t>(d));
    span.SetAttr("eps", request.eps);
    span.SetAttr("k", static_cast<uint64_t>(request.k));
    span.SetAttr("allow_randomized", request.allow_randomized ? "true"
                                                              : "false");
  }
  std::string chosen = "exact_gram";

  ProtocolPlan best;
  best.predicted_words = PredictExactGramWords(s, d);
  best.protocol = std::make_unique<ExactGramProtocol>();
  best.rationale = "exact_gram: O(sd^2) baseline";

  const double fd_words = PredictFdMergeWords(s, d, request);
  if (fd_words < best.predicted_words) {
    FdMergeOptions options;
    options.eps = request.eps;
    options.k = request.k;
    best.predicted_words = fd_words;
    best.protocol = std::make_unique<FdMergeProtocol>(options);
    best.rationale = "fd_merge: deterministic O(s*l*d) beats sd^2";
    chosen = "fd_merge";
  }
  if (span.active()) {
    span.SetAttr("words.exact_gram", PredictExactGramWords(s, d));
    span.SetAttr("words.fd_merge", fd_words);
  }

  if (request.allow_randomized) {
    if (request.k == 0) {
      const double sampling_words = PredictRowSamplingWords(s, d, request);
      if (sampling_words < best.predicted_words) {
        RowSamplingOptions options;
        options.eps = request.eps;
        options.oversample = 2.0;
        options.seed = request.seed;
        best.predicted_words = sampling_words;
        best.protocol = std::make_unique<RowSamplingProtocol>(options);
        best.rationale =
            "row_sampling: large eps makes O(s + d/eps^2) cheapest";
        chosen = "row_sampling";
      }
      if (span.active()) span.SetAttr("words.row_sampling", sampling_words);
      const double svs_words = PredictSvsWords(s, d, request);
      if (svs_words < best.predicted_words) {
        SvsProtocolOptions options;
        options.alpha = request.eps / 4.0;
        options.delta = request.delta;
        options.seed = request.seed;
        best.predicted_words = svs_words;
        best.protocol = std::make_unique<SvsProtocol>(options);
        best.rationale = "svs: sqrt(s) scaling wins at this (s, d, eps)";
        chosen = "svs";
      }
      if (span.active()) span.SetAttr("words.svs", svs_words);
      const double countsketch_words = PredictCountSketchWords(s, d, request);
      if (countsketch_words < best.predicted_words) {
        CountSketchProtocolOptions options;
        options.eps = request.eps;
        options.seed = request.seed;
        best.predicted_words = countsketch_words;
        best.protocol = std::make_unique<CountSketchProtocol>(options);
        best.rationale =
            "countsketch: s*d/eps^2 linear projection beats the row-based "
            "families at this (s, d, eps)";
        chosen = "countsketch";
      }
      if (span.active()) span.SetAttr("words.countsketch", countsketch_words);
    } else {
      const double adaptive_words = PredictAdaptiveWords(s, d, request);
      if (adaptive_words < best.predicted_words) {
        AdaptiveSketchOptions options;
        options.eps = request.eps;
        options.k = request.k;
        options.delta = request.delta;
        options.seed = request.seed;
        best.predicted_words = adaptive_words;
        best.protocol = std::make_unique<AdaptiveSketchProtocol>(options);
        best.rationale =
            "adaptive_sketch: sdk + sqrt(s)kd/eps beats s*k*d/eps";
        chosen = "adaptive_sketch";
      }
      if (span.active()) span.SetAttr("words.adaptive", adaptive_words);
    }
  }
  // Topology resolution for the protocols whose merges are associative.
  // Star-only protocols keep the default star plan fields.
  best.predicted_coordinator_words = best.predicted_words;
  if (chosen == "fd_merge" || chosen == "exact_gram" ||
      chosen == "countsketch") {
    const double message_words =
        chosen == "fd_merge"
            ? FdSketchRows(request) * static_cast<double>(d)
        : chosen == "countsketch"
            ? CountSketchMessageWords(d, request.eps)
            : static_cast<double>(d) * static_cast<double>(d + 1) / 2.0;
    const MergeTopologyOptions topology =
        request.auto_topology ? ChooseMergeTopology(s, message_words)
                              : request.topology;
    best.topology = topology;
    best.predicted_coordinator_words =
        PredictCoordinatorInboundWords(s, topology, message_words);
    if (chosen == "fd_merge") {
      FdMergeOptions options;
      options.eps = request.eps;
      options.k = request.k;
      options.topology = topology;
      best.protocol = std::make_unique<FdMergeProtocol>(options);
    } else if (chosen == "countsketch") {
      CountSketchProtocolOptions options;
      options.eps = request.eps;
      options.seed = request.seed;
      options.topology = topology;
      best.protocol = std::make_unique<CountSketchProtocol>(options);
    } else {
      ExactGramOptions options;
      options.topology = topology;
      best.protocol = std::make_unique<ExactGramProtocol>(options);
    }
    if (!topology.is_star()) {
      best.rationale += "; " + std::string(TopologyKindName(topology.kind)) +
                        "(fanout " + std::to_string(topology.fanout) +
                        ") cuts coordinator inbound to " +
                        std::to_string(static_cast<uint64_t>(
                            best.predicted_coordinator_words)) +
                        " words";
    }
  }
  if (span.active()) {
    span.SetAttr("chosen", chosen);
    span.SetAttr("predicted_words", best.predicted_words);
    span.SetAttr("topology", TopologyKindName(best.topology.kind));
    span.SetAttr("coordinator_words", best.predicted_coordinator_words);
    span.SetAttr("rationale", best.rationale);
    telemetry::Count("planner.plans");
    telemetry::Count("planner.pick." + chosen);
  }
  return best;
}

}  // namespace distsketch
