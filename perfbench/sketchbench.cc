// One benchmark binary for the sketching stack. Three workloads:
//
//   fd_local       FdMergeProtocol, star, 32768 x 64 over 16 servers,
//                  eps 0.05. Per-server FD streaming and its shrinks
//                  (sketch + linalg) dominate; 16 small uplinks cross the
//                  wire, so a wire or transport change should show nothing.
//   fanout_cs      CountSketchProtocol, tree(8), 16384 x 64 over 1024
//                  servers, eps 0.2, under a fixed-seed fault plan (2% drop,
//                  1% corrupt, 1% truncate). Wire encode/checksum/decode,
//                  send/retry and tree sums dominate; FD is never called.
//   service_mixed  Closed loop through ServiceRunner: 4 client ids x 16
//                  requests per round, 64-row ingests into 1024 Zipf(1.1)
//                  tenants, 896 resident, SketchStore-backed eviction. Every
//                  tenth round is all kQuery, so reads hit the same FD tenant
//                  state as writes.
//
// Untraced (--trace 0) prints the end-to-end metrics, timed in process CPU
// time (see ReportTimes). Traced (--trace 1) re-enacts each operation
// through the layers' public functions, in the order the program calls
// them, timing each call from here, and prints the per-layer metrics. Inputs come from --seed and are generated before any
// timing. Every run checks its outputs; a violated check is counted in
// `failed`, named on stderr, and makes the exit code non-zero.
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"};
// the line before it is a record carrying the seed, DS_THREADS, SIMD
// backend, nproc and commit next to every metric.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "dist/cluster.h"
#include "dist/countsketch_protocol.h"
#include "dist/fault_injection.h"
#include "dist/fd_merge_protocol.h"
#include "dist/merge_topology.h"
#include "dist/protocol.h"
#include "dist/tree_reduce.h"
#include "linalg/blas.h"
#include "linalg/simd_dispatch.h"
#include "linalg/spectral.h"
#include "service/service_runner.h"
#include "service/service_wire.h"
#include "service/sketch_service.h"
#include "service/tenant.h"
#include "sketch/countsketch.h"
#include "sketch/error_metrics.h"
#include "sketch/frequent_directions.h"
#include "store/sketch_store.h"
#include "wire/checksum.h"
#include "wire/message.h"
#include "workload/generators.h"
#include "workload/partition.h"

namespace distsketch::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kCsHashSeeds = 128;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// CPU time of the whole process (all threads), in milliseconds.
double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec * 1e-6;
}

/// Nearest-rank quantile of an unsorted sample (0 for an empty one).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

uint64_t MatrixDigest(const Matrix& m) {
  uint64_t shape[2] = {m.rows(), m.cols()};
  const uint64_t h = Checksum64(reinterpret_cast<const uint8_t*>(shape),
                                sizeof(shape));
  return Checksum64(reinterpret_cast<const uint8_t*>(m.data()),
                    m.size() * sizeof(double), h);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt_sketch = false;
  std::string commit = "unknown";
  std::string tmp_dir;
};

/// Ordered metric set with units, printed as the contract JSON object.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[128];
    for (size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                    i ? ", " : "", items_[i].name.c_str(), items_[i].value);
      out += buf;
      out += "\"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Operation and check accounting: every violation counts as one failed
/// operation and is named on stderr.
class Checks {
 public:
  explicit Checks(std::string workload) : workload_(std::move(workload)) {}
  void Attempt() { ++attempted_; }
  bool Expect(bool ok, const std::string& check) {
    if (!ok) {
      ++failed_;
      if (named_.insert(check).second) {
        std::fprintf(stderr, "sketchbench: %s: check failed: %s\n",
                     workload_.c_str(), check.c_str());
      }
    }
    return ok;
  }
  uint64_t attempted() const { return std::max<uint64_t>(attempted_, 1); }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0; }

 private:
  std::string workload_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::set<std::string> named_;
};

/// Wall timer that adds into a layer accumulator when it goes out of
/// scope.
class LayerTimer {
 public:
  explicit LayerTimer(double& acc_ms) : acc_(acc_ms), t0_(Clock::now()) {}
  ~LayerTimer() { acc_ += MsSince(t0_); }

 private:
  double& acc_;
  Clock::time_point t0_;
};

/// Timing metrics of the untraced loop. The bounded ones are process CPU
/// time: on a shared VM the wall clock of the same run moves by up to 2x
/// with vCPU steal and disk contention from other guests, while CPU time
/// (steal excluded) moves by a few percent. Wall-clock figures go to the
/// record line for reference.
void ReportTimes(const std::vector<double>& wall_ms,
                 const std::vector<double>& cpu_ms, double rows, Metrics& out,
                 Metrics& wall) {
  out.Set("run_cpu_ms.p50", Median(cpu_ms), "ms");
  out.Set("run_cpu_ms.p90", Quantile(cpu_ms, 0.9), "ms");
  out.Set("ingest_rows_per_cpu_s", rows / Sum(cpu_ms) * 1e3, "rows/s");
  wall.Set("run_ms.p50", Median(wall_ms), "ms");
  wall.Set("run_ms.p90", Quantile(wall_ms, 0.9), "ms");
  wall.Set("ingest_rows_per_s", rows / Sum(wall_ms) * 1e3, "rows/s");
  wall.Set("samples", static_cast<double>(wall_ms.size()), "count");
}

/// Per-layer values of one traced operation; the reported metric is the
/// median over operations.
using LayerSample = std::map<std::string, double>;

void ReportLayers(const std::vector<LayerSample>& samples, Metrics& out,
                  const std::vector<std::pair<std::string, std::string>>&
                      names_units) {
  for (const auto& [name, unit] : names_units) {
    std::vector<double> v;
    for (const LayerSample& s : samples) {
      auto it = s.find(name);
      v.push_back(it == s.end() ? 0.0 : it->second);
    }
    out.Set(name, Median(v), unit);
  }
}

/// The per-layer metric names every traced run prints, with units.
const std::vector<std::pair<std::string, std::string>>& LayerNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"sketch.fd_local_ms", "ms"},      {"sketch.fd_local_max_ms", "ms"},
      {"sketch.local_wall_ms", "ms"},    {"sketch.fd_shrinks", "count"},
      {"linalg.shrink_us", "us"},        {"linalg.shrink_share", "frac"},
      {"sketch.coord_merge_ms", "ms"},   {"sketch.cs_local_ms", "ms"},
      {"wire.encode_ms", "ms"},          {"wire.decode_ms", "ms"},
      {"wire.frames", "count"},          {"wire.checksum_rejects", "count"},
      {"dist.send_ms", "ms"},            {"dist.attempts", "count"},
      {"dist.delivered", "count"},       {"dist.useful_frac", "frac"},
      {"dist.tree_merge_ms", "ms"},      {"service.request_codec_ms", "ms"},
      {"service.handle_batch_ms", "ms"}, {"service.channel_ms", "ms"},
      {"service.absorb_ms", "ms"},       {"service.seal_ms", "ms"},
      {"service.query_ms", "ms"},        {"service.evictions", "count"},
      {"service.restores", "count"},     {"service.shed", "count"},
      {"store.checkpoint_ms", "ms"},     {"store.restore_ms", "ms"},
      {"trace.unaccounted_frac", "frac"}, {"trace.overhead_frac", "frac"},
  };
  return kNames;
}

/// Median wall time of one FdGramShrink on a 2l x d buffer cut from the
/// workload's own rows, in microseconds.
double ShrinkMicros(const Matrix& rows, size_t sketch_size) {
  const size_t m = std::min(2 * sketch_size, rows.rows());
  const Matrix buffer = rows.RowRange(0, m);
  SvdWorkspace ws;
  std::vector<double> us;
  // Inside a pool body, as the protocols and the service shrink, so the
  // spectral kernel takes the same serial schedule.
  ParallelMap<int>(1, [&](size_t) {
    for (int rep = 0; rep < 201; ++rep) {
      Matrix b = buffer;
      const auto t0 = Clock::now();
      FdGramShrink(b, sketch_size, &ws);
      us.push_back(MsSince(t0) * 1e3);
    }
    return 0;
  });
  return Median(us);
}

/// Delivery counts of the last protocol run, from the fault injector's
/// event log when a plan is installed, else from the metered transcript.
struct DeliveryCounts {
  double frames = 0, attempts = 0, delivered = 0, checksum_rejects = 0;
};

DeliveryCounts CountDeliveries(const Cluster& cluster) {
  DeliveryCounts c;
  c.frames = static_cast<double>(cluster.log().messages().size());
  if (const FaultInjector* f = cluster.faults()) {
    for (const FaultEvent& e : f->events()) {
      switch (e.kind) {
        case FaultEventKind::kDelivered:
          ++c.delivered;
          ++c.attempts;
          break;
        case FaultEventKind::kCorrupted:
          ++c.checksum_rejects;
          ++c.attempts;
          break;
        case FaultEventKind::kDropped:
        case FaultEventKind::kTruncated:
        case FaultEventKind::kStalled:
        case FaultEventKind::kDead:
          ++c.attempts;
          break;
        default:
          break;
      }
    }
  } else {
    for (const MessageRecord& m : cluster.log().messages()) {
      if (m.control || m.duplicate) continue;
      ++c.attempts;
      ++c.delivered;
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// Protocol workloads (fd_local, fanout_cs).

struct ProtocolSpec {
  bool countsketch = false;
  size_t n = 0, d = 0, s = 0;
  double eps = 0.0;
  MergeTopologyOptions topology;
  bool faults = false;
};

ProtocolSpec SpecFor(const std::string& workload, bool tiny) {
  ProtocolSpec p;
  if (workload == "fd_local") {
    p.n = tiny ? 2048 : 32768;
    p.d = tiny ? 16 : 64;
    p.s = tiny ? 4 : 16;
    p.eps = 0.05;
    p.topology = MergeTopologyOptions::Star();
  } else {
    p.countsketch = true;
    p.n = tiny ? 1024 : 16384;
    p.d = tiny ? 16 : 64;
    p.s = tiny ? 64 : 1024;
    p.eps = 0.2;
    p.topology = MergeTopologyOptions::Tree(8);
    p.faults = true;
  }
  return p;
}

/// Identity of one protocol run's output; must repeat exactly.
struct RunFingerprint {
  uint64_t digest = 0, words = 0, wire_bytes = 0, coord_inbound_bytes = 0;
  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint Fingerprint(const Cluster& cluster, const Matrix& sketch,
                           const CommStats& comm) {
  return {MatrixDigest(sketch), comm.total_words, comm.total_wire_bytes,
          cluster.log().WireBytesReceivedBy(kCoordinator)};
}

class ProtocolWorkload {
 public:
  ProtocolWorkload(const std::string& name, const Args& args)
      : args_(args), spec_(SpecFor(name, args.tiny)) {}

  /// Input generation, cluster build and one warm-up run.
  void Setup() {
    LowRankPlusNoiseOptions gen;
    gen.rows = spec_.n;
    gen.cols = spec_.d;
    gen.rank = 8;
    gen.decay = 0.8;
    gen.noise_stddev = 0.1;
    gen.seed = args_.seed;
    input_ = GenerateLowRankPlusNoise(gen);
    auto cluster = Cluster::Create(
        PartitionRows(input_, spec_.s, PartitionScheme::kRoundRobin),
        spec_.eps);
    DS_CHECK(cluster.ok());
    cluster_.emplace(std::move(cluster).value());
    if (spec_.faults) {
      FaultConfig plan;
      plan.default_profile.drop_prob = 0.02;
      plan.default_profile.corrupt_prob = 0.01;
      plan.default_profile.truncate_prob = 0.01;
      plan.seed = 0xC5FA17;
      cluster_->InstallFaultPlan(plan);
    }
    if (spec_.countsketch) {
      // A CountSketch's error moves with its hash seed as much as with the
      // data, so runs cycle through fixed hash seeds and coverr_frac is
      // their mean: the metric then follows the protocol, not one draw.
      for (uint64_t slot = 0; slot < kCsHashSeeds; ++slot) {
        CountSketchProtocolOptions opt;
        opt.eps = spec_.eps;
        opt.seed += slot;
        opt.topology = spec_.topology;
        cs_options_.push_back(opt);
        protocols_.push_back(std::make_unique<CountSketchProtocol>(opt));
      }
    } else {
      FdMergeOptions opt;
      opt.eps = spec_.eps;
      opt.k = 0;
      opt.topology = spec_.topology;
      protocols_.push_back(std::make_unique<FdMergeProtocol>(opt));
    }
    references_.assign(protocols_.size(), std::nullopt);
    coverr_frac_.assign(protocols_.size(), -1.0);
    auto warm = protocols_[0]->Run(*cluster_);
    DS_CHECK(warm.ok());
  }

  void Untraced(Checks& checks, Metrics& out, Metrics& wall) {
    std::vector<double> run_ms;
    const auto t_loop = Clock::now();
    // Every configuration runs at least once, so coverr_frac always
    // averages the same set.
    while (runs_ < protocols_.size() ||
           MsSince(t_loop) < args_.seconds * 1e3) {
      std::optional<SketchProtocolResult> r = TimedRun(checks, run_ms);
      if (r.has_value()) Verify(*r, checks);
    }
    ReportTimes(run_ms, run_cpu_ms_,
                static_cast<double>(spec_.n) * run_ms.size(), out, wall);
    const RunFingerprint ref = references_[0].value_or(RunFingerprint{});
    out.Set("words", static_cast<double>(ref.words), "words");
    out.Set("wire_bytes", static_cast<double>(ref.wire_bytes), "B");
    out.Set("coord_inbound_bytes",
            static_cast<double>(ref.coord_inbound_bytes), "B");
    double coverr_sum = 0.0, slots = 0.0;
    for (double c : coverr_frac_) {
      if (c < 0.0) continue;
      coverr_sum += c;
      ++slots;
    }
    out.Set("coverr_frac", coverr_sum / std::max(slots, 1.0), "frac");
  }

  /// Alternates one untraced Run with one traced re-enactment, so both
  /// see the same machine state.
  void Traced(Checks& checks, Metrics& out) {
    std::vector<double> run_ms, traced_ms;
    std::vector<LayerSample> layers;
    const double shrink_us =
        spec_.countsketch ? 0.0 : ShrinkMicros(input_, FdSketchSize());
    const auto t_loop = Clock::now();
    while (layers.empty() || MsSince(t_loop) < args_.seconds * 1e3) {
      std::optional<SketchProtocolResult> r = TimedRun(checks, run_ms);
      if (r.has_value()) Verify(*r, checks);
      LayerSample layer;
      checks.Attempt();
      const auto t0 = Clock::now();
      auto traced = spec_.countsketch ? TracedCountSketch(layer)
                                      : TracedFdStar(layer);
      traced_ms.push_back(MsSince(t0));
      if (!checks.Expect(traced.ok(), "traced re-enactment returned OK")) {
        continue;
      }
      checks.Expect(Fingerprint(*cluster_, traced->sketch, traced->comm) ==
                        references_[slot_],
                    "traced re-enactment matches the untraced run "
                    "(sketch digest, words, wire bytes)");
      const DeliveryCounts dc = CountDeliveries(*cluster_);
      layer["wire.frames"] = dc.frames;
      layer["wire.checksum_rejects"] = dc.checksum_rejects;
      layer["dist.attempts"] = dc.attempts;
      layer["dist.delivered"] = dc.delivered;
      layer["dist.useful_frac"] =
          dc.attempts > 0 ? dc.delivered / dc.attempts : 0.0;
      if (!spec_.countsketch) {
        layer["linalg.shrink_us"] = shrink_us;
        layer["linalg.shrink_share"] = layer["sketch.fd_shrinks"] *
                                       shrink_us * 1e-3 /
                                       layer["sketch.fd_local_ms"];
      }
      layers.push_back(std::move(layer));
    }
    const double untraced = Median(run_ms);
    std::vector<double> covered;
    for (LayerSample& l : layers) {
      covered.push_back(l["sketch.local_wall_ms"] + l["wire.encode_ms"] +
                        l["wire.decode_ms"] + l["dist.send_ms"] +
                        l["sketch.coord_merge_ms"] + l["dist.tree_merge_ms"]);
    }
    ReportLayers(layers, out, LayerNames());
    out.Set("trace.unaccounted_frac", 1.0 - Median(covered) / untraced,
            "frac");
    out.Set("trace.overhead_frac", Median(traced_ms) / untraced - 1.0,
            "frac");
  }

 private:
  size_t FdSketchSize() const {
    auto fd = FrequentDirections::FromEps(spec_.d, spec_.eps);
    DS_CHECK(fd.ok());
    return fd->sketch_size();
  }

  std::optional<SketchProtocolResult> TimedRun(Checks& checks,
                                               std::vector<double>& run_ms) {
    checks.Attempt();
    slot_ = runs_++ % protocols_.size();
    const double cpu0 = CpuMs();
    const auto t0 = Clock::now();
    auto r = protocols_[slot_]->Run(*cluster_);
    run_ms.push_back(MsSince(t0));
    run_cpu_ms_.push_back(CpuMs() - cpu0);
    if (!checks.Expect(r.ok(), "SketchProtocol::Run returned OK")) {
      return std::nullopt;
    }
    return std::move(r).value();
  }

  /// First run of a configuration: certify coverr <= eps ||A||_F^2 +
  /// degraded widening and pin the fingerprint. Later runs: the fingerprint
  /// must repeat exactly.
  void Verify(SketchProtocolResult& r, Checks& checks) {
    if (runs_ == 1 && args_.corrupt_sketch) r.sketch.Scale(1.5);
    const RunFingerprint fp = Fingerprint(*cluster_, r.sketch, r.comm);
    std::optional<RunFingerprint>& reference = references_[slot_];
    if (reference.has_value()) {
      checks.Expect(fp == *reference,
                    "words, wire_bytes, coord_inbound_bytes and sketch digest "
                    "repeat across runs");
      return;
    }
    reference = fp;
    if (input_gram_.empty()) input_gram_ = Gram(input_);
    const double mass = SquaredFrobeniusNorm(input_);
    const double coverr =
        SymmetricSpectralNormExact(Subtract(input_gram_, Gram(r.sketch)));
    coverr_frac_[slot_] = coverr / mass;
    checks.Expect(!r.halted && !r.degraded.degraded(),
                  "run completes without losing a server");
    checks.Expect(coverr <= spec_.eps * mass + r.degraded.BoundWidening(),
                  "coverr <= eps * ||A||_F^2 + degraded widening");
  }

  /// FdMergeProtocol::Run (star, no checkpoint, no quantization), call for
  /// call.
  StatusOr<SketchProtocolResult> TracedFdStar(LayerSample& layer) {
    Cluster& cluster = *cluster_;
    cluster.ResetLog();
    cluster.log().BeginRound();
    const size_t d = cluster.dim(), s = cluster.num_servers();
    const bool ft = cluster.fault_mode();
    DS_ASSIGN_OR_RETURN(FrequentDirections merged,
                        FrequentDirections::FromEps(d, spec_.eps));
    struct Local {
      Matrix sketch;
      double mass = 0.0, ms = 0.0;
      uint64_t shrinks = 0;
    };
    const auto t_local = Clock::now();
    std::vector<Local> locals = ParallelMap<Local>(s, [&](size_t i) {
      Local w;
      const auto t0 = Clock::now();
      auto fd = FrequentDirections::FromEps(d, spec_.eps);
      DS_CHECK(fd.ok());
      RowStream stream = cluster.server(i).OpenStream();
      while (stream.HasNext()) fd->Append(stream.Next());
      w.sketch = fd->Sketch();
      w.shrinks = fd->shrink_count();
      if (ft) w.mass = SquaredFrobeniusNorm(cluster.server(i).local_rows());
      w.ms = MsSince(t0);
      return w;
    });
    layer["sketch.local_wall_ms"] = MsSince(t_local);
    for (const Local& w : locals) {
      layer["sketch.fd_local_ms"] += w.ms;
      layer["sketch.fd_local_max_ms"] =
          std::max(layer["sketch.fd_local_max_ms"], w.ms);
      layer["sketch.fd_shrinks"] += static_cast<double>(w.shrinks);
    }
    SketchProtocolResult result;
    for (size_t i = 0; i < s; ++i) {
      wire::Message msg;
      {
        LayerTimer t(layer["wire.encode_ms"]);
        msg = wire::DenseMessage("local_sketch", locals[i].sketch);
      }
      ServerSendResult sent;
      {
        LayerTimer t(layer["dist.send_ms"]);
        sent = SendWithMassAccounting(cluster, static_cast<int>(i),
                                      kCoordinator, msg, result.degraded,
                                      locals[i].mass, false, ft);
      }
      if (!sent.delivered) continue;
      wire::DecodedMatrix received;
      {
        LayerTimer t(layer["wire.decode_ms"]);
        DS_ASSIGN_OR_RETURN(received,
                            wire::DecodeMessagePayload(sent.payload));
      }
      LayerTimer t(layer["sketch.coord_merge_ms"]);
      merged.AppendRows(received.matrix);
    }
    {
      LayerTimer t(layer["sketch.coord_merge_ms"]);
      result.sketch = merged.Sketch();
    }
    result.comm = cluster.log().Stats();
    result.sketch_rows = result.sketch.rows();
    return result;
  }

  /// CountSketchProtocol::Run (dense rows), call for call.
  StatusOr<SketchProtocolResult> TracedCountSketch(LayerSample& layer) {
    Cluster& cluster = *cluster_;
    cluster.ResetLog();
    cluster.log().BeginRound();
    const size_t d = cluster.dim(), s = cluster.num_servers();
    const bool ft = cluster.fault_mode();
    const CountSketchProtocolOptions& opt = cs_options_[slot_];
    const size_t m = std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(opt.oversample / (opt.eps * opt.eps))));
    DS_ASSIGN_OR_RETURN(MergeTopology topo,
                        MergeTopology::Build(s, opt.topology));
    SketchProtocolResult result;

    std::vector<uint64_t> seeds(s, 0);
    std::vector<uint8_t> seeded(s, 0);
    wire::Message seed_msg;
    {
      LayerTimer t(layer["wire.encode_ms"]);
      seed_msg = wire::SeedMessage("cs_seed", opt.seed);
    }
    const auto& stages = topo.stages();
    for (size_t r = stages.size(); r-- > 0;) {
      for (int node : stages[r]) {
        if (cluster.ServerLost(node)) continue;
        int src = topo.node(static_cast<size_t>(node)).parent;
        while (src != kCoordinator &&
               (cluster.ServerLost(src) ||
                !seeded[static_cast<size_t>(src)])) {
          src = topo.node(static_cast<size_t>(src)).parent;
        }
        SendOutcome sent;
        {
          LayerTimer t(layer["dist.send_ms"]);
          sent = cluster.Send(src, node, seed_msg);
        }
        if (!sent.delivered) continue;
        LayerTimer t(layer["wire.decode_ms"]);
        DS_ASSIGN_OR_RETURN(seeds[static_cast<size_t>(node)],
                            wire::DecodeSeedPayload(sent.payload));
        seeded[static_cast<size_t>(node)] = 1;
      }
    }

    struct Local {
      Matrix compressed;
      double mass = 0.0, ms = 0.0;
    };
    const auto t_local = Clock::now();
    std::vector<Local> locals = ParallelMap<Local>(s, [&](size_t i) {
      Local w;
      if (!seeded[i]) {
        w.compressed.SetZero(m, d);
        return w;
      }
      const auto t0 = Clock::now();
      const Server& server = cluster.server(i);
      CountSketchCompressor compressor(m, d, seeds[i]);
      RowStream stream = server.OpenStream();
      for (size_t row = 0; stream.HasNext(); ++row) {
        compressor.Absorb((static_cast<uint64_t>(i) << 32) | row,
                          stream.Next());
      }
      w.compressed = std::move(compressor.ExportState().compressed);
      if (ft) w.mass = SquaredFrobeniusNorm(server.local_rows());
      w.ms = MsSince(t0);
      return w;
    });
    layer["sketch.local_wall_ms"] = MsSince(t_local);
    for (const Local& w : locals) layer["sketch.cs_local_ms"] += w.ms;

    Matrix total;
    total.SetZero(m, d);
    double hook_ms = 0.0;
    TreeReduceHooks hooks;
    hooks.absorb = [&](int node, const std::vector<uint8_t>& payload) -> Status {
      LayerTimer hook(hook_ms);
      wire::DecodedMatrix received;
      {
        LayerTimer t(layer["wire.decode_ms"]);
        DS_ASSIGN_OR_RETURN(received, wire::DecodeMessagePayload(payload));
      }
      const bool coord = node == kCoordinator;
      LayerTimer t(layer[coord ? "sketch.coord_merge_ms"
                               : "dist.tree_merge_ms"]);
      Matrix& dst =
          coord ? total : locals[static_cast<size_t>(node)].compressed;
      dst = Add(dst, received.matrix);
      return Status::OK();
    };
    hooks.make_message = [&](int node) -> StatusOr<wire::Message> {
      LayerTimer hook(hook_ms);
      LayerTimer t(layer["wire.encode_ms"]);
      return wire::DenseMessage("local_cs",
                                locals[static_cast<size_t>(node)].compressed);
    };
    hooks.local_mass = [&](int node) {
      return locals[static_cast<size_t>(node)].mass;
    };
    const auto t_reduce = Clock::now();
    DS_ASSIGN_OR_RETURN(TreeReduceStats tree_stats,
                        RunTreeReduce(cluster, topo, hooks, result.degraded));
    (void)tree_stats;
    // The driver's own time (sends, retries, re-parenting) is the reduce
    // span minus the hook calls it made.
    layer["dist.send_ms"] += MsSince(t_reduce) - hook_ms;
    result.sketch = std::move(total);
    result.comm = cluster.log().Stats();
    result.sketch_rows = result.sketch.rows();
    return result;
  }

  const Args& args_;
  ProtocolSpec spec_;
  Matrix input_;
  Matrix input_gram_;  // A^T A, for coverr
  std::optional<Cluster> cluster_;
  std::vector<CountSketchProtocolOptions> cs_options_;
  std::vector<std::unique_ptr<SketchProtocol>> protocols_;
  // Per configuration: the pinned fingerprint and coverr/||A||_F^2 (-1
  // until its first run).
  std::vector<std::optional<RunFingerprint>> references_;
  std::vector<double> coverr_frac_;
  size_t runs_ = 0;
  size_t slot_ = 0;  // configuration of the latest run
  std::vector<double> run_cpu_ms_;
};

// ---------------------------------------------------------------------------
// Service workload (service_mixed).

struct ServiceSpec {
  size_t dim = 32;
  double eps = 0.1;
  size_t epoch_rows = 16384;
  size_t tenants = 1024;
  size_t max_resident = 896;
  double zipf_alpha = 1.1;
  int clients = 4;
  size_t per_client = 16;
  size_t batch_rows = 64;
  size_t query_every = 10;  // every tenth round is all kQuery
  size_t rounds = 200;      // timed rounds per episode
  size_t sampled = 32;      // tenants checked against a shadow
  size_t blocks = 1024;     // distinct row blocks the ingests cycle through
};

ServiceSpec ServiceSpecFor(bool tiny) {
  ServiceSpec s;
  if (tiny) {
    s.tenants = 128;  // a round touches up to 64 tenants, all pinned
    s.max_resident = 96;
    s.epoch_rows = 512;
    s.rounds = 40;
    s.sampled = 8;
    s.blocks = 64;
  }
  return s;
}

struct Request {
  int client = 0;
  bool query = false;
  std::string tenant;
  const Matrix* rows = nullptr;  // a block of the workload's pool
};

using Round = std::vector<Request>;

/// Totals of one episode; must repeat exactly across episodes.
struct EpisodeFingerprint {
  uint64_t words = 0, wire_bytes = 0, coord_inbound_bytes = 0;
  uint64_t response_digest = 0, evictions = 0, restores = 0;
  bool operator==(const EpisodeFingerprint&) const = default;
};

/// Creates (or empties) a store directory, so every episode's store sees
/// the same sequence of file operations.
StatusOr<SketchStore> FreshStore(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return SketchStore::Open(dir);
}

/// A fresh service (runner + store in its own directory) for one episode.
class Episode {
 public:
  Episode(const ServiceSpec& spec, const std::string& dir) {
    auto store = FreshStore(dir);
    DS_CHECK(store.ok());
    store_ = std::make_unique<SketchStore>(std::move(store).value());
    ServiceRunnerOptions opt;
    opt.service.tenant = {spec.dim, spec.eps, spec.epoch_rows};
    opt.service.max_resident = spec.max_resident;
    opt.service.store = store_.get();
    auto runner = ServiceRunner::Create(opt);
    DS_CHECK(runner.ok());
    runner_ = std::move(runner).value();
  }
  ServiceRunner& runner() { return *runner_; }

 private:
  std::unique_ptr<SketchStore> store_;
  std::unique_ptr<ServiceRunner> runner_;
};

/// The SketchService admission / LRU / durability policy re-enacted over
/// TenantSketch and SketchStore, so each tenant and store call is timed on
/// its own. Its answers must match the runner's bit for bit.
class TenantModel {
 public:
  TenantModel(const ServiceSpec& spec, const std::string& dir)
      : spec_(spec) {
    auto store = FreshStore(dir);
    DS_CHECK(store.ok());
    store_ = std::make_unique<SketchStore>(std::move(store).value());
  }

  /// Handles one round; returns each request's query sketch (empty for
  /// ingests) or an error.
  StatusOr<std::vector<Matrix>> HandleRound(const Round& round,
                                            LayerSample& layer) {
    const TenantOptions opt{spec_.dim, spec_.eps, spec_.epoch_rows};
    std::set<std::string> pinned;
    std::vector<TenantSketch*> tenants;
    std::vector<std::string> first_touch;
    for (const Request& req : round) {
      auto it = resident_.find(req.tenant);
      if (it == resident_.end()) {
        if (resident_.size() >= spec_.max_resident) {
          auto victim = resident_.end();
          for (auto r = resident_.begin(); r != resident_.end(); ++r) {
            if (pinned.count(r->first)) continue;
            if (victim == resident_.end() ||
                r->second.last_touch < victim->second.last_touch) {
              victim = r;
            }
          }
          if (victim == resident_.end()) {
            return Status::Overloaded("model: every resident tenant pinned");
          }
          {
            LayerTimer t(layer["store.checkpoint_ms"]);
            DS_RETURN_IF_ERROR(store_->Put(
                SketchService::StoreKey(victim->first),
                victim->second.sketch->Checkpoint()));
          }
          resident_.erase(victim);
          layer["service.evictions"] += 1;
        }
        std::unique_ptr<TenantSketch> sketch;
        if (known_.count(req.tenant)) {
          LayerTimer t(layer["store.restore_ms"]);
          DS_ASSIGN_OR_RETURN(std::vector<uint8_t> blob,
                              store_->Get(SketchService::StoreKey(req.tenant)));
          DS_ASSIGN_OR_RETURN(TenantSketch restored,
                              TenantSketch::Restore(req.tenant, opt, blob));
          sketch = std::make_unique<TenantSketch>(std::move(restored));
          layer["service.restores"] += 1;
        } else {
          DS_ASSIGN_OR_RETURN(TenantSketch created,
                              TenantSketch::Create(req.tenant, opt));
          sketch = std::make_unique<TenantSketch>(std::move(created));
          known_.insert(req.tenant);
        }
        it = resident_.emplace(req.tenant, Resident{std::move(sketch), 0})
                 .first;
      }
      it->second.last_touch = ++touch_;
      if (pinned.insert(req.tenant).second) first_touch.push_back(req.tenant);
      tenants.push_back(it->second.sketch.get());
    }
    std::vector<Matrix> answers(round.size());
    std::set<std::string> sealed;
    for (size_t i = 0; i < round.size(); ++i) {
      TenantSketch* tenant = tenants[i];
      if (round[i].query) {
        LayerTimer t(layer["service.query_ms"]);
        DS_ASSIGN_OR_RETURN(answers[i], tenant->Query());
        continue;
      }
      {
        LayerTimer t(layer["service.absorb_ms"]);
        DS_RETURN_IF_ERROR(tenant->AbsorbRows(*round[i].rows));
      }
      LayerTimer t(layer["service.seal_ms"]);
      while (tenant->EpochReady()) {
        tenant->SealEpoch();
        sealed.insert(round[i].tenant);
      }
    }
    for (const std::string& name : first_touch) {
      if (!sealed.count(name)) continue;
      LayerTimer t(layer["store.checkpoint_ms"]);
      DS_RETURN_IF_ERROR(store_->Put(SketchService::StoreKey(name),
                                     resident_.at(name).sketch->Checkpoint()));
    }
    return answers;
  }

 private:
  struct Resident {
    std::unique_ptr<TenantSketch> sketch;
    uint64_t last_touch = 0;
  };
  ServiceSpec spec_;
  std::unique_ptr<SketchStore> store_;
  std::map<std::string, Resident> resident_;
  std::set<std::string> known_;
  uint64_t touch_ = 0;
};

class ServiceWorkload {
 public:
  ServiceWorkload(const Args& args)
      : args_(args), spec_(ServiceSpecFor(args.tiny)) {}

  /// Script generation, one service build and a warm-up pass over the
  /// first rounds of the script on a throwaway service.
  void Setup() {
    Rng rng(args_.seed);
    const size_t per_round = spec_.clients * spec_.per_client;
    // Ingests cycle through a pool of row blocks cut from one low-rank +
    // noise matrix, which keeps the script's memory independent of its
    // length.
    LowRankPlusNoiseOptions gen;
    gen.rows = spec_.blocks * spec_.batch_rows;
    gen.cols = spec_.dim;
    gen.rank = 8;
    gen.decay = 0.8;
    gen.noise_stddev = 0.1;
    gen.seed = args_.seed;
    const Matrix rows = GenerateLowRankPlusNoise(gen);
    blocks_.clear();
    for (size_t b = 0; b < spec_.blocks; ++b) {
      blocks_.push_back(
          rows.RowRange(b * spec_.batch_rows, (b + 1) * spec_.batch_rows));
    }
    size_t next_block = 0;
    // Prefill, untimed: one batch into every tenant, coldest first, so the
    // timed rounds start from the service's steady state — residency full,
    // hot tenants most recently used.
    prefill_.assign((spec_.tenants + per_round - 1) / per_round, {});
    for (size_t t = 0; t < spec_.tenants; ++t) {
      Request req;
      req.client = static_cast<int>(t % per_round / spec_.per_client);
      req.tenant = TenantName(spec_.tenants - 1 - t);
      req.rows = &blocks_[next_block++ % spec_.blocks];
      prefill_[t / per_round].push_back(std::move(req));
    }
    script_.assign(spec_.rounds, {});
    for (size_t r = 0; r < spec_.rounds; ++r) {
      for (int c = 0; c < spec_.clients; ++c) {
        for (size_t j = 0; j < spec_.per_client; ++j) {
          Request req;
          req.client = c;
          req.query = IsQueryRound(r);
          req.tenant = TenantName(rng.NextZipf(spec_.tenants,
                                               spec_.zipf_alpha) - 1);
          if (!req.query) {
            req.rows = &blocks_[next_block++ % spec_.blocks];
          }
          script_[r].push_back(std::move(req));
        }
      }
    }
    Episode warm(spec_, Dir("warm"));
    for (const Round& round : prefill_) RunRound(warm.runner(), round, nullptr);
    for (size_t r = 0; r < std::min<size_t>(20, spec_.rounds); ++r) {
      RunRound(warm.runner(), script_[r], nullptr);
    }
  }

  void Untraced(Checks& checks, Metrics& out, Metrics& wall) {
    std::vector<double> cycle_ms, cycle_cpu_ms, ingest_ms, query_ms;
    uint64_t ingest_rows = 0;
    std::unique_ptr<Episode> last;
    const auto t_loop = Clock::now();
    for (size_t ep = 0; ep == 0 || MsSince(t_loop) < args_.seconds * 1e3;
         ++ep) {
      last.reset();
      last = std::make_unique<Episode>(spec_, Dir("ep"));
      ServiceRunner& runner = last->runner();
      for (const Round& round : prefill_) RunRound(runner, round, &checks);
      const EpisodeFingerprint base = Counters(runner, 0);
      uint64_t digest = 0;
      double cycle = 0.0;
      double cpu0 = CpuMs();
      for (size_t r = 0; r < spec_.rounds; ++r) {
        const double ms = RunRound(runner, script_[r], &checks, &digest);
        cycle += ms;
        if (IsQueryRound(r)) {
          query_ms.push_back(ms);
          cycle_ms.push_back(cycle);
          cycle_cpu_ms.push_back(CpuMs() - cpu0);
          cpu0 = CpuMs();
          cycle = 0.0;
        } else {
          ingest_ms.push_back(ms);
          ingest_rows += script_[r].size() * spec_.batch_rows;
        }
      }
      CheckEpisode(runner, base, digest, checks);
    }
    CheckShadows(last->runner(), checks);
    const double cycles = static_cast<double>(spec_.rounds / spec_.query_every);
    ReportTimes(cycle_ms, cycle_cpu_ms, static_cast<double>(ingest_rows), out,
                wall);
    out.Set("words", reference_.words / cycles, "words");
    out.Set("wire_bytes", reference_.wire_bytes / cycles, "B");
    out.Set("coord_inbound_bytes", reference_.coord_inbound_bytes / cycles,
            "B");
    out.Set("coverr_frac", coverr_frac_, "frac");
    wall.Set("ingest_ms.p50", Median(ingest_ms), "ms");
    wall.Set("ingest_ms.p99", Quantile(ingest_ms, 0.99), "ms");
    wall.Set("query_ms.p50", Median(query_ms), "ms");
    wall.Set("query_ms.p90", Quantile(query_ms, 0.9), "ms");
    wall.Set("ingest_rounds", static_cast<double>(ingest_ms.size()), "count");
    wall.Set("query_rounds", static_cast<double>(query_ms.size()), "count");
  }

  /// Alternates an untraced episode with a traced one. A traced round
  /// encodes and decodes its requests, drives the runner, replays the
  /// decoded round through SketchService::HandleBatch on a mirror service,
  /// and re-enacts it over TenantSketch/SketchStore; all three must agree.
  void Traced(Checks& checks, Metrics& out) {
    std::vector<double> untraced_cycles, traced_cycles;
    std::vector<LayerSample> layers;
    const double shrink_us = ShrinkMicros(ShrinkRows(), TenantSketchSize());
    const auto t_loop = Clock::now();
    for (size_t ep = 0; ep == 0 || MsSince(t_loop) < args_.seconds * 1e3;
         ++ep) {
      {
        Episode plain(spec_, Dir("ep"));
        for (const Round& round : prefill_) {
          RunRound(plain.runner(), round, &checks);
        }
        double cycle = 0.0;
        for (size_t r = 0; r < spec_.rounds; ++r) {
          cycle += RunRound(plain.runner(), script_[r], &checks);
          if (IsQueryRound(r)) {
            untraced_cycles.push_back(cycle);
            cycle = 0.0;
          }
        }
      }
      Episode traced(spec_, Dir("ep"));
      auto mirror_store = FreshStore(Dir("mirror"));
      DS_CHECK(mirror_store.ok());
      SketchServiceOptions mopt = traced.runner().service().options();
      mopt.store = &*mirror_store;
      auto mirror = SketchService::Create(mopt);
      DS_CHECK(mirror.ok());
      TenantModel model(spec_, Dir("model"));
      LayerSample layer;
      for (const Round& round : prefill_) {
        TracedRound(traced.runner(), *mirror, model, round, layer, checks);
      }
      layer.clear();
      double cycle = 0.0;
      for (size_t r = 0; r < spec_.rounds; ++r) {
        const auto t0 = Clock::now();
        TracedRound(traced.runner(), *mirror, model, script_[r], layer,
                    checks);
        cycle += MsSince(t0);
        if (IsQueryRound(r)) {
          traced_cycles.push_back(cycle);
          cycle = 0.0;
          layers.push_back(std::move(layer));
          layer.clear();
        }
      }
      const SketchService& svc = traced.runner().service();
      checks.Expect(mirror->evictions() == svc.evictions() &&
                        mirror->restores() == svc.restores(),
                    "mirror service evicts and restores like the runner");
    }
    const double untraced = Median(untraced_cycles);
    std::vector<double> covered;
    for (LayerSample& l : layers) {
      l["linalg.shrink_us"] = shrink_us;
      covered.push_back(l["service.request_codec_ms"] +
                        l["service.handle_batch_ms"] +
                        l["service.channel_ms"]);
    }
    ReportLayers(layers, out, LayerNames());
    out.Set("trace.unaccounted_frac", 1.0 - Median(covered) / untraced,
            "frac");
    out.Set("trace.overhead_frac", Median(traced_cycles) / untraced - 1.0,
            "frac");
  }

 private:
  bool IsQueryRound(size_t r) const {
    return r % spec_.query_every == spec_.query_every - 1;
  }
  static std::string TenantName(uint64_t t) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "t%04llu",
                  static_cast<unsigned long long>(t));
    return buf;
  }
  std::string Dir(const char* what) const {
    return args_.tmp_dir + "/" + what;
  }
  size_t TenantSketchSize() const {
    auto fd = FrequentDirections::FromEps(spec_.dim, spec_.eps);
    DS_CHECK(fd.ok());
    return fd->sketch_size();
  }
  /// The first rows the script ingests, enough for a 2l x d shrink buffer.
  Matrix ShrinkRows() const {
    const size_t want = 2 * TenantSketchSize();
    Matrix m(0, spec_.dim);
    for (const Round& round : script_) {
      for (const Request& req : round) {
        if (!req.query) m.AppendRows(*req.rows);
        if (m.rows() >= want) return m;
      }
    }
    return m;
  }

  wire::Message Encode(const Request& req) const {
    return req.query ? EncodeQueryRequest(req.tenant)
                     : EncodeIngestRequest(req.tenant, *req.rows);
  }

  /// Submits one round and drains it; returns submit-to-last-callback ms.
  /// Folds every query sketch into *digest when given.
  double RunRound(ServiceRunner& runner, const Round& round, Checks* checks,
                  uint64_t* digest = nullptr) {
    std::vector<ServiceResponse> responses(round.size());
    std::vector<uint8_t> answered(round.size(), 0);
    const auto t0 = Clock::now();
    for (size_t i = 0; i < round.size(); ++i) {
      const Request& req = round[i];
      auto cb = [&responses, &answered, i](const ServiceResponse& resp) {
        responses[i] = resp;
        answered[i] = 1;
      };
      const Status st = req.query
                            ? runner.Submit(req.client,
                                            EncodeQueryRequest(req.tenant), cb)
                            : runner.SubmitIngest(req.client, req.tenant,
                                                  *req.rows, cb);
      if (checks != nullptr) {
        checks->Attempt();
        checks->Expect(st.ok(), "every submit is accepted");
      }
    }
    runner.Drain();
    const double ms = MsSince(t0);
    if (checks == nullptr) return ms;
    for (size_t i = 0; i < round.size(); ++i) {
      checks->Expect(answered[i] && responses[i].code == StatusCode::kOk,
                     "every request is answered kOk");
      if (digest != nullptr && round[i].query) {
        *digest = Checksum64(reinterpret_cast<const uint8_t*>(
                                 responses[i].sketch.data()),
                             responses[i].sketch.size() * sizeof(double),
                             *digest + responses[i].sketch.rows());
      }
    }
    return ms;
  }

  static EpisodeFingerprint Counters(ServiceRunner& runner, uint64_t digest) {
    const CommStats comm = runner.log().Stats();
    return {comm.total_words,
            comm.total_wire_bytes,
            runner.log().WireBytesReceivedBy(kCoordinator),
            digest,
            runner.service().evictions(),
            runner.service().restores()};
  }

  /// Pins the timed rounds' counts (totals since `base`, the state after
  /// prefill) on the first episode; later episodes must repeat them.
  void CheckEpisode(ServiceRunner& runner, const EpisodeFingerprint& base,
                    uint64_t digest, Checks& checks) {
    EpisodeFingerprint fp = Counters(runner, digest);
    fp.words -= base.words;
    fp.wire_bytes -= base.wire_bytes;
    fp.coord_inbound_bytes -= base.coord_inbound_bytes;
    fp.evictions -= base.evictions;
    fp.restores -= base.restores;
    checks.Expect(runner.accepted() == runner.responded(),
                  "every accepted request gets exactly one response");
    if (!have_reference_) {
      have_reference_ = true;
      reference_ = fp;
      return;
    }
    checks.Expect(fp == reference_,
                  "words, wire_bytes, coord_inbound_bytes, query digest and "
                  "eviction counts repeat across episodes");
  }

  /// kQuery each sampled tenant through the runner and compare with a
  /// never-evicted shadow TenantSketch fed the same rows; certify coverr.
  void CheckShadows(ServiceRunner& runner, Checks& checks) {
    std::vector<const Round*> rounds;
    for (const Round& round : prefill_) rounds.push_back(&round);
    for (const Round& round : script_) rounds.push_back(&round);
    std::map<std::string, size_t> hits;
    std::vector<std::string> order;
    for (const Round* round : rounds) {
      for (const Request& req : *round) {
        if (req.query) continue;
        if (hits[req.tenant]++ == 0) order.push_back(req.tenant);
      }
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](const std::string& a, const std::string& b) {
                       return hits[a] > hits[b];
                     });
    // The hottest tenants (never evicted) plus an even spread over the
    // rest (evicted and restored along the way).
    std::vector<std::string> sample;
    const size_t hot = std::min(spec_.sampled / 2, order.size());
    for (size_t i = 0; i < hot; ++i) sample.push_back(order[i]);
    const size_t rest = order.size() - hot;
    const size_t spread = std::min(spec_.sampled - hot, rest);
    for (size_t i = 0; i < spread; ++i) {
      sample.push_back(order[hot + i * rest / spread]);
    }

    const TenantOptions opt{spec_.dim, spec_.eps, spec_.epoch_rows};
    double worst = 0.0;
    for (const std::string& name : sample) {
      auto shadow = TenantSketch::Create(name, opt);
      DS_CHECK(shadow.ok());
      Matrix rows(0, spec_.dim);
      for (const Round* round : rounds) {
        for (const Request& req : *round) {
          if (req.query || req.tenant != name) continue;
          DS_CHECK(shadow->AbsorbRows(*req.rows).ok());
          while (shadow->EpochReady()) shadow->SealEpoch();
          rows.AppendRows(*req.rows);
        }
      }
      auto expect = shadow->Query();
      DS_CHECK(expect.ok());
      ServiceResponse got;
      checks.Attempt();
      DS_CHECK(runner.Submit(0, EncodeQueryRequest(name),
                             [&got](const ServiceResponse& r) { got = r; })
                   .ok());
      runner.Drain();
      if (args_.corrupt_sketch) got.sketch.Scale(1.5);
      checks.Expect(got.code == StatusCode::kOk && got.sketch == *expect,
                    "sampled tenant's kQuery sketch is bit-identical to a "
                    "never-evicted shadow");
      const double mass = SquaredFrobeniusNorm(rows);
      const double coverr = CovarianceError(rows, got.sketch, /*exact=*/true);
      checks.Expect(coverr <= spec_.eps * mass,
                    "tenant coverr <= eps * ||A_tenant||_F^2");
      worst = std::max(worst, coverr / mass);
    }
    coverr_frac_ = worst;
  }

  void TracedRound(ServiceRunner& runner, SketchService& mirror,
                   TenantModel& model, const Round& round, LayerSample& layer,
                   Checks& checks) {
    double encode_ms = 0.0, decode_ms = 0.0, handle_ms = 0.0, respond_ms = 0.0;
    std::vector<wire::Message> msgs;
    std::vector<ServiceRequest> requests;
    {
      LayerTimer t(encode_ms);
      for (const Request& req : round) msgs.push_back(Encode(req));
    }
    {
      LayerTimer t(decode_ms);
      for (const wire::Message& m : msgs) {
        auto decoded = DecodeServiceRequest(m.payload);
        DS_CHECK(decoded.ok());
        requests.push_back(std::move(decoded).value());
      }
    }
    std::vector<ServiceResponse> responses(round.size());
    const auto t_round = Clock::now();
    for (size_t i = 0; i < round.size(); ++i) {
      checks.Attempt();
      checks.Expect(
          runner
              .Submit(round[i].client, std::move(msgs[i]),
                      [&responses, i](const ServiceResponse& r) {
                        responses[i] = r;
                      })
              .ok(),
          "every submit is accepted");
    }
    runner.Drain();
    const double round_ms = MsSince(t_round);

    std::vector<ServiceResponse> direct;
    {
      LayerTimer t(handle_ms);
      direct = mirror.HandleBatch(requests);
    }
    {
      LayerTimer t(respond_ms);
      for (const ServiceResponse& r : direct) EncodeServiceResponse(r);
    }
    layer["service.request_codec_ms"] += encode_ms + decode_ms + respond_ms;
    layer["service.handle_batch_ms"] += handle_ms;
    // The runner round decoded, handled and encoded the same requests;
    // what is left of it is channel, metering and callback time.
    layer["service.channel_ms"] += round_ms - decode_ms - handle_ms - respond_ms;

    auto modelled = model.HandleRound(round, layer);
    checks.Expect(modelled.ok(), "tenant/store re-enactment returned OK");
    for (size_t i = 0; i < round.size(); ++i) {
      checks.Expect(responses[i].code == StatusCode::kOk &&
                        direct[i].code == StatusCode::kOk,
                    "every request is answered kOk");
      if (!round[i].query) continue;
      checks.Expect(direct[i].sketch == responses[i].sketch &&
                        modelled.ok() && (*modelled)[i] == responses[i].sketch,
                    "HandleBatch and tenant re-enactment answer kQuery like "
                    "the runner");
    }
    layer["service.shed"] = static_cast<double>(runner.service().shed());
  }

  const Args& args_;
  ServiceSpec spec_;
  std::vector<Matrix> blocks_;
  std::vector<Round> prefill_;  // untimed, once per episode
  std::vector<Round> script_;   // the timed rounds
  bool have_reference_ = false;
  EpisodeFingerprint reference_;
  double coverr_frac_ = 0.0;
};

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (k == "--tiny") {
      a.tiny = true;
    } else if (k == "--corrupt-sketch") {
      a.corrupt_sketch = true;
    } else if ((v = value()) == nullptr) {
      return false;
    } else if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (k == "--commit") {
      a.commit = v;
    } else if (k == "--tmp") {
      a.tmp_dir = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 && !a.tmp_dir.empty();
}

/// Sets the workload up kSetups times (setup_s is the median CPU time of
/// one set-up), then runs the traced or untraced loop on the last one.
template <typename Workload, typename Make>
void RunWorkload(const Args& args, Make make, Checks& checks, Metrics& metrics,
                 Metrics& wall) {
  constexpr int kSetups = 3;
  std::vector<double> setup_cpu_s, setup_wall_s;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    const double cpu0 = CpuMs();
    const auto t0 = Clock::now();
    w = make();
    w->Setup();
    setup_cpu_s.push_back((CpuMs() - cpu0) * 1e-3);
    setup_wall_s.push_back(MsSince(t0) * 1e-3);
  }
  if (args.trace) {
    w->Traced(checks, metrics);
    return;
  }
  w->Untraced(checks, metrics, wall);
  metrics.Set("setup_s", Median(setup_cpu_s), "s");
  metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
  wall.Set("setup_s", Median(setup_wall_s), "s");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: sketchbench --workload fd_local|fanout_cs|"
                 "service_mixed --seed N --seconds S --trace 0|1 --tmp DIR "
                 "[--commit C] [--tiny] [--corrupt-sketch]\n");
    return 2;
  }
  const bool protocol =
      args.workload == "fd_local" || args.workload == "fanout_cs";
  if (!protocol && args.workload != "service_mixed") {
    std::fprintf(stderr, "sketchbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.tmp_dir);

  Checks checks(args.workload);
  Metrics metrics, wall;
  if (protocol) {
    RunWorkload<ProtocolWorkload>(
        args,
        [&] { return std::make_unique<ProtocolWorkload>(args.workload, args); },
        checks, metrics, wall);
  } else {
    RunWorkload<ServiceWorkload>(
        args, [&] { return std::make_unique<ServiceWorkload>(args); }, checks,
        metrics, wall);
  }
  std::error_code ec;
  std::filesystem::remove_all(args.tmp_dir, ec);

  const double failed_frac =
      static_cast<double>(checks.failed()) / checks.attempted();
  std::printf(
      "{\"record\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"ds_threads\": %zu, \"simd\": \"%s\", \"nproc\": %u, "
      "\"commit\": \"%s\", \"failed_frac\": %.17g, \"wall\": %s, "
      "\"metrics\": %s}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, ThreadPool::GlobalThreads(),
      std::string(SimdBackendName(ActiveSimdBackend())).c_str(),
      std::thread::hardware_concurrency(), args.commit.c_str(), failed_frac,
      wall.Json().c_str(), metrics.Json().c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      checks.correct() ? "true" : "false",
      static_cast<unsigned long long>(checks.attempted()),
      static_cast<unsigned long long>(checks.failed()),
      metrics.Json().c_str());
  std::fflush(stdout);
  return checks.correct() ? 0 : 1;
}

}  // namespace
}  // namespace distsketch::perfbench

int main(int argc, char** argv) {
  return distsketch::perfbench::Main(argc, argv);
}
