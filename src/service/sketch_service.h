#ifndef DISTSKETCH_SERVICE_SKETCH_SERVICE_H_
#define DISTSKETCH_SERVICE_SKETCH_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "service/service_wire.h"
#include "service/tenant.h"
#include "store/sketch_store.h"

namespace distsketch {
namespace autoconf {
class ErrorPredictor;
}  // namespace autoconf

/// Capacity and durability policy of the sketch service.
struct SketchServiceOptions {
  /// Default per-tenant sketch sizing (dim, eps, epoch_rows) for tenants
  /// admitted through ingest. kConfigure-provisioned tenants carry their
  /// own solved sizing instead.
  TenantOptions tenant;
  /// Calibrated error predictor for the kConfigure front door (optional;
  /// without it the solver certifies with analytic bounds only). Not
  /// owned; must outlive the service.
  const autoconf::ErrorPredictor* predictor = nullptr;
  /// Admission cap: total tenants the service will ever register.
  /// Requests for a new tenant beyond this are shed with kOverloaded.
  size_t max_tenants = 4096;
  /// Residency cap: tenants kept live in memory. Beyond this, the
  /// least-recently-used tenant is checkpointed to the store and
  /// evicted; touching it again restores it bit-identically.
  size_t max_resident = 1024;
  /// Checkpoint/restore backing store. Required whenever max_resident <
  /// max_tenants (eviction needs somewhere to put the state); when set,
  /// every epoch seal also checkpoints (the durability point).
  SketchStore* store = nullptr;
};

/// Per-tenant telemetry counter key ("svc.tenant.<tenant>.<what>"), used
/// by the service and its runner. Build it only when telemetry is
/// enabled: the disabled path must stay allocation-free.
std::string TenantCounter(const std::string& tenant, const char* what);

/// A long-lived multi-tenant sketch service: each tenant owns a
/// TenantSketch (epoch FD + coordinator FD), the registry is bounded
/// (admission control), residency is bounded (LRU eviction through
/// SketchStore checkpoints), and overload is always a typed kOverloaded
/// response — never a silent drop.
///
/// Determinism: HandleBatch groups requests by tenant, absorbs each
/// tenant's rows concurrently (pure per-tenant compute; FD's nested
/// spectral-kernel schedule is bit-identical under the pool), and runs
/// admission, eviction, epoch seals, and checkpoints serially in arrival
/// order — so responses and all tenant state are bit-identical at any
/// DS_THREADS.
///
/// Thread-safety: the service itself is confined to its caller (one
/// handler thread — the service runner's event loop); internal
/// parallelism happens through the global pool inside HandleBatch.
class SketchService {
 public:
  static StatusOr<SketchService> Create(const SketchServiceOptions& options);

  /// Handles one request (admission -> absorb -> epoch boundary).
  ServiceResponse Handle(const ServiceRequest& request);

  /// Handles a batch: per-tenant parallel absorb, serial everything
  /// else. Response i answers request i.
  std::vector<ServiceResponse> HandleBatch(
      const std::vector<ServiceRequest>& requests);

  /// Checkpoints every resident tenant to the store (no eviction).
  /// No-op without a store.
  Status FlushAll();

  /// Checkpoints and evicts one tenant (testing/demo hook: forces the
  /// restore path). NotFound if the tenant is not resident.
  Status EvictTenant(const std::string& tenant);

  /// Fleet-wide sketch: merges every resident tenant's current sketch
  /// (Query() semantics — coordinator plus open epoch, nothing mutated)
  /// through a `fanout`-ary merge tree over tenants in name order, the
  /// in-process analogue of the distributed aggregation topology. Subtree
  /// merges run on the pool level by level with a fixed per-node merge
  /// order, so the result is bit-identical at any DS_THREADS; the FD
  /// mergeable-summaries guarantee holds for any merge tree, so every
  /// fanout yields a valid eps-aggregate of the fleet's rows (different
  /// fanouts differ only in rounding). Evicted tenants are not restored —
  /// the aggregate covers what is live. FailedPrecondition when no tenant
  /// is resident; InvalidArgument for fanout < 2.
  StatusOr<Matrix> AggregateQuery(size_t fanout = 8);

  size_t resident_tenants() const { return resident_.size(); }
  bool IsResident(const std::string& tenant) const {
    return resident_.count(tenant) > 0;
  }
  size_t known_tenants() const { return known_.size(); }
  uint64_t evictions() const { return evictions_; }
  uint64_t restores() const { return restores_; }
  uint64_t shed() const { return shed_; }
  const SketchServiceOptions& options() const { return options_; }

  /// Store key for a tenant's checkpoint entry.
  static std::string StoreKey(const std::string& tenant) {
    return "tenant-" + tenant;
  }

 private:
  explicit SketchService(const SketchServiceOptions& options)
      : options_(options) {}

  struct Resident {
    std::unique_ptr<TenantSketch> sketch;
    /// Neighbours in touch order (the LRU list): null at either end.
    Resident* older = nullptr;
    Resident* newer = nullptr;
  };

  /// Admission + residency: returns the live TenantSketch for `name`,
  /// restoring or creating it as needed; sheds with kOverloaded when the
  /// registry (or, without a store, the residency cap) is full.
  StatusOr<TenantSketch*> TouchTenant(const std::string& name);
  Status EvictLruLocked();
  /// Links `res` as the most recently touched tenant / takes it out of
  /// the touch order.
  void LinkNewest(Resident& res);
  void Unlink(Resident& res);
  Status CheckpointTenant(const TenantSketch& tenant);
  ServiceResponse MakeResponse(const ServiceRequest& request,
                               const Status& status, TenantSketch* tenant);
  /// kConfigure: solve the goal/budget, provision the tenant from the
  /// best plain fd_merge candidate — the only family the tenant's
  /// row-based FD ingest path realizes, so the echoed certification
  /// matches what was provisioned. Arbitrary-partition goals are refused
  /// (only a linear sketch is correct there, which this path is not).
  /// Serial (phase 1) — the solver is a pure function, so responses stay
  /// bit-identical at any DS_THREADS.
  ServiceResponse HandleConfigure(const ServiceRequest& request);
  /// The sizing a tenant runs at: its solved (kConfigure) options when
  /// present, the service default otherwise. Used by both the Create and
  /// Restore admission paths.
  const TenantOptions& TenantOptionsFor(const std::string& name) const;

  SketchServiceOptions options_;
  /// Solved sizing of kConfigure-provisioned tenants (kept across
  /// eviction: Restore must rebuild with the same sizing).
  std::map<std::string, TenantOptions> tenant_options_;
  /// Live tenants. std::map: deterministic iteration for FlushAll and
  /// AggregateQuery.
  std::map<std::string, Resident> resident_;
  /// Ends of the list that links every resident tenant in touch order,
  /// through Resident::older/newer (map nodes never move, so the links
  /// stay valid until their own entry is erased). Touching relinks a
  /// tenant at the newest end, so the list is ordered by last touch and
  /// allocates nothing.
  Resident* lru_oldest_ = nullptr;
  Resident* lru_newest_ = nullptr;
  /// Every admitted tenant name (resident or evicted) — the bounded
  /// registry.
  std::set<std::string> known_;
  /// Tenants the in-flight batch holds live pointers to; EvictLruLocked
  /// skips them. Set only for the duration of a HandleBatch admission
  /// phase.
  const std::set<std::string>* pinned_ = nullptr;
  uint64_t evictions_ = 0;
  uint64_t restores_ = 0;
  uint64_t shed_ = 0;
};

}  // namespace distsketch

#endif  // DISTSKETCH_SERVICE_SKETCH_SERVICE_H_
