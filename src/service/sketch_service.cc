#include "service/sketch_service.h"

#include <algorithm>
#include <utility>

#include "autoconf/protocol_factory.h"
#include "autoconf/solver.h"
#include "common/thread_pool.h"
#include "dist/merge_topology.h"
#include "sketch/frequent_directions.h"
#include "telemetry/span.h"
#include "telemetry/telemetry.h"

namespace distsketch {

std::string TenantCounter(const std::string& tenant, const char* what) {
  std::string key = "svc.tenant.";
  key += tenant;
  key += '.';
  key += what;
  return key;
}

StatusOr<SketchService> SketchService::Create(
    const SketchServiceOptions& options) {
  if (options.tenant.dim == 0) {
    return Status::InvalidArgument("SketchService: tenant dim must be >= 1");
  }
  if (options.max_tenants == 0 || options.max_resident == 0) {
    return Status::InvalidArgument(
        "SketchService: max_tenants and max_resident must be >= 1");
  }
  if (options.max_resident < options.max_tenants && options.store == nullptr) {
    return Status::InvalidArgument(
        "SketchService: eviction (max_resident < max_tenants) requires a "
        "store");
  }
  // Validate the tenant sizing once; per-tenant Create below reuses it.
  DS_RETURN_IF_ERROR(TenantSketch::Create("probe", options.tenant).status());
  return SketchService(options);
}

Status SketchService::CheckpointTenant(const TenantSketch& tenant) {
  if (options_.store == nullptr) return Status::OK();
  return options_.store->Put(StoreKey(tenant.name()), tenant.Checkpoint());
}

Status SketchService::EvictLruLocked() {
  // The batch admission phase pins every tenant the in-flight batch
  // touches (their pointers are live in the parallel phase), so the walk
  // skips pinned entries. Deterministic: the victim is the least
  // recently touched unpinned tenant. Pinned tenants were touched by this
  // batch, so they sit at the newest end of the order and the walk from
  // the oldest one passes at most the batch's own tenants.
  Resident* victim = lru_oldest_;
  while (victim != nullptr && pinned_ != nullptr &&
         pinned_->count(victim->sketch->name()) > 0) {
    victim = victim->newer;
  }
  if (victim == nullptr) {
    return Status::Overloaded(
        "SketchService: residency full and every tenant is pinned by the "
        "in-flight batch");
  }
  DS_RETURN_IF_ERROR(CheckpointTenant(*victim->sketch));
  Unlink(*victim);
  resident_.erase(resident_.find(victim->sketch->name()));
  ++evictions_;
  telemetry::Count("svc.evictions");
  return Status::OK();
}

StatusOr<TenantSketch*> SketchService::TouchTenant(const std::string& name) {
  auto it = resident_.find(name);
  if (it != resident_.end()) {
    Resident& res = it->second;
    Unlink(res);
    LinkNewest(res);
    return res.sketch.get();
  }
  const bool is_known = known_.count(name) > 0;
  if (!is_known && known_.size() >= options_.max_tenants) {
    ++shed_;
    telemetry::Count("svc.shed");
    return Status::Overloaded(
        "SketchService: tenant registry full (max_tenants = " +
        std::to_string(options_.max_tenants) + ")");
  }
  if (resident_.size() >= options_.max_resident) {
    if (options_.store == nullptr) {
      ++shed_;
      telemetry::Count("svc.shed");
      return Status::Overloaded(
          "SketchService: resident capacity full and no store to evict to");
    }
    DS_RETURN_IF_ERROR(EvictLruLocked());
  }
  Resident res;
  const TenantOptions& tenant_options = TenantOptionsFor(name);
  if (is_known) {
    // Evicted tenant: restore its checkpoint bit-identically.
    DS_ASSIGN_OR_RETURN(std::vector<uint8_t> blob,
                        options_.store->Get(StoreKey(name)));
    DS_ASSIGN_OR_RETURN(TenantSketch restored,
                        TenantSketch::Restore(name, tenant_options, blob));
    res.sketch = std::make_unique<TenantSketch>(std::move(restored));
    ++restores_;
    telemetry::Count("svc.restores");
  } else {
    DS_ASSIGN_OR_RETURN(TenantSketch created,
                        TenantSketch::Create(name, tenant_options));
    res.sketch = std::make_unique<TenantSketch>(std::move(created));
    known_.insert(name);
    telemetry::Count("svc.tenants_admitted");
  }
  TenantSketch* ptr = res.sketch.get();
  LinkNewest(resident_.emplace(name, std::move(res)).first->second);
  return ptr;
}

void SketchService::LinkNewest(Resident& res) {
  res.older = lru_newest_;
  res.newer = nullptr;
  (lru_newest_ != nullptr ? lru_newest_->newer : lru_oldest_) = &res;
  lru_newest_ = &res;
}

void SketchService::Unlink(Resident& res) {
  (res.older != nullptr ? res.older->newer : lru_oldest_) = res.newer;
  (res.newer != nullptr ? res.newer->older : lru_newest_) = res.older;
  res.older = res.newer = nullptr;
}

const TenantOptions& SketchService::TenantOptionsFor(
    const std::string& name) const {
  const auto it = tenant_options_.find(name);
  return it != tenant_options_.end() ? it->second : options_.tenant;
}

ServiceResponse SketchService::HandleConfigure(const ServiceRequest& request) {
  ServiceResponse resp;
  resp.tenant = request.tenant;
  const ConfigureParams& p = request.configure;
  if (known_.count(request.tenant) > 0) {
    resp.code = StatusCode::kFailedPrecondition;  // already provisioned
    return resp;
  }
  if (p.arbitrary_partition) {
    // Under an arbitrary partition (A = sum of per-server shards
    // entry-wise) only a linear sketch answers correctly; the tenant
    // ingest path absorbs whole rows into an FD sketch, so the service
    // cannot honor such a goal — refuse instead of provisioning a
    // semantically wrong tenant.
    resp.code = StatusCode::kFailedPrecondition;
    return resp;
  }
  autoconf::AutoConfRequest areq;
  areq.goal.eps = p.eps;
  areq.goal.delta = p.delta;
  areq.goal.k = static_cast<size_t>(p.k);
  areq.goal.allow_randomized = p.allow_randomized;
  areq.goal.arbitrary_partition = p.arbitrary_partition;
  areq.budget.max_coordinator_words = p.budget_coordinator_words;
  areq.budget.max_total_wire_bytes = p.budget_total_wire_bytes;
  areq.budget.max_critical_path_words = p.budget_critical_path_words;
  areq.shape.num_servers = static_cast<size_t>(p.num_servers);
  areq.shape.dim = static_cast<size_t>(p.dim);
  areq.shape.total_rows = static_cast<size_t>(p.expected_rows);
  auto plan = autoconf::SolveSketchConfig(areq, options_.predictor);
  if (!plan.ok()) {
    resp.code = plan.status().code();
    return resp;
  }
  // The tenant ingest path is an unquantized FD sketch over whole rows,
  // so only an fd_merge candidate's certified error transfers to the
  // tenant (sketch_size = ceil(1/working_eps) + 1, Theorem 1). Cheaper
  // families may top the overall ranking, but the service cannot realize
  // them per tenant — provision (and certify the response) from the
  // best-ranked plain fd_merge candidate instead. ranked is sorted
  // feasible-first, so the first hit is the best feasible fd_merge when
  // one exists, the least-violating fd_merge otherwise.
  const autoconf::ConfigCandidate* chosen = nullptr;
  for (const autoconf::ConfigCandidate& c : plan->ranked) {
    if (c.config.family == ProtocolFamily::kFdMerge &&
        c.config.quantize_bits == 0) {
      chosen = &c;
      break;
    }
  }
  if (chosen == nullptr) {
    resp.code = StatusCode::kFailedPrecondition;
    return resp;
  }
  const autoconf::ConfigCandidate& best = *chosen;
  ConfigSummary& summary = resp.config;
  summary.present = true;
  summary.family = autoconf::FamilyKey(best.config);
  summary.working_eps = best.config.working_eps;
  summary.sketch_rows = best.config.sketch_rows;
  summary.quantize_bits = best.config.quantize_bits;
  summary.topology = static_cast<uint8_t>(best.config.topology.kind);
  summary.fanout = best.config.topology.fanout;
  summary.predicted_error = best.error.predicted;
  summary.error_hi = best.error.Certified(true);
  summary.coordinator_words = best.cost.coordinator_words;
  summary.total_wire_bytes = best.cost.total_wire_bytes;
  summary.binding = static_cast<uint8_t>(best.binding);
  if (!best.feasible) {
    // The summary shows the closest fd_merge miss and which budget it
    // violates.
    resp.code = StatusCode::kFailedPrecondition;
    return resp;
  }
  TenantOptions tenant_options;
  tenant_options.dim = static_cast<size_t>(p.dim);
  tenant_options.eps = best.config.working_eps;
  tenant_options.epoch_rows = static_cast<size_t>(p.epoch_rows);
  tenant_options_[request.tenant] = tenant_options;
  auto tenant = TouchTenant(request.tenant);
  if (!tenant.ok()) {
    tenant_options_.erase(request.tenant);
    resp.code = tenant.status().code();
    return resp;
  }
  resp.epoch = (*tenant)->epoch();
  resp.rows_ingested = (*tenant)->rows_ingested();
  telemetry::Count("svc.configured");
  return resp;
}

ServiceResponse SketchService::MakeResponse(const ServiceRequest& request,
                                            const Status& status,
                                            TenantSketch* tenant) {
  ServiceResponse resp;
  resp.code = status.code();
  resp.tenant = request.tenant;
  if (tenant != nullptr) {
    resp.epoch = tenant->epoch();
    resp.rows_ingested = tenant->rows_ingested();
  }
  return resp;
}

ServiceResponse SketchService::Handle(const ServiceRequest& request) {
  return HandleBatch({request})[0];
}

std::vector<ServiceResponse> SketchService::HandleBatch(
    const std::vector<ServiceRequest>& requests) {
  telemetry::Span span("service/batch", telemetry::Phase::kCompute);
  span.SetAttr("requests", static_cast<uint64_t>(requests.size()));

  const size_t n = requests.size();
  std::vector<ServiceResponse> responses(n);
  std::vector<TenantSketch*> tenants(n, nullptr);
  std::vector<uint8_t> failed(n, 0);

  // Phase 1 — serial admission in arrival order: name validation,
  // registry admission, LRU eviction, checkpoint restore. All store I/O
  // and registry mutation happens here or in phase 3, never in the
  // parallel phase. Tenants touched by this batch are pinned so a later
  // request's eviction cannot invalidate an earlier request's pointer.
  std::set<std::string> touched;
  pinned_ = &touched;
  for (size_t i = 0; i < n; ++i) {
    const ServiceRequest& req = requests[i];
    if (!SketchStore::ValidName(req.tenant)) {
      responses[i] = MakeResponse(
          req, Status::InvalidArgument("bad tenant name"), nullptr);
      failed[i] = 1;
      continue;
    }
    if (req.kind == ServiceRequestKind::kConfigure) {
      // Solve + provision entirely in the serial phase: registry
      // mutation, and the pure solver, both belong here.
      responses[i] = HandleConfigure(req);
      failed[i] = 1;  // no phase-2 work for this request
      continue;
    }
    auto tenant = TouchTenant(req.tenant);
    if (!tenant.ok()) {
      responses[i] = MakeResponse(req, tenant.status(), nullptr);
      failed[i] = 1;
      continue;
    }
    tenants[i] = *tenant;
    touched.insert(req.tenant);
  }
  pinned_ = nullptr;

  // Group surviving request indices by tenant, preserving arrival order
  // within each tenant. Order of groups: first touch.
  std::vector<std::pair<TenantSketch*, std::vector<size_t>>> groups;
  std::map<TenantSketch*, size_t> group_of;
  for (size_t i = 0; i < n; ++i) {
    if (failed[i]) continue;
    auto [it, inserted] = group_of.emplace(tenants[i], groups.size());
    if (inserted) groups.push_back({tenants[i], {}});
    groups[it->second].second.push_back(i);
  }

  // Phase 2 — parallel per-tenant work: each group replays its requests
  // in arrival order against its own tenant state (absorb, seal at epoch
  // boundaries, query). Pure per-tenant compute — groups share nothing —
  // so results are bit-identical at any thread count; FD's nested
  // spectral-kernel schedule is deterministic under the pool.
  std::vector<uint8_t> sealed(groups.size(), 0);
  ThreadPool::Global().ParallelFor(groups.size(), [&](size_t gi) {
    TenantSketch* tenant = groups[gi].first;
    telemetry::Span work("service/tenant_work", telemetry::Phase::kCompute);
    work.SetAttr("tenant", tenant->name());
    const bool telem = telemetry::Telemetry::Current()->enabled();
    uint64_t rows_absorbed = 0;
    for (const size_t i : groups[gi].second) {
      const ServiceRequest& req = requests[i];
      Status status = Status::OK();
      switch (req.kind) {
        case ServiceRequestKind::kIngest: {
          status = tenant->AbsorbRows(req.rows);
          if (status.ok()) rows_absorbed += req.rows.rows();
          while (status.ok() && tenant->EpochReady()) {
            tenant->SealEpoch();
            sealed[gi] = 1;
            telemetry::Count("svc.epoch_seals");
          }
          break;
        }
        case ServiceRequestKind::kFlush: {
          if (tenant->rows_in_epoch() > 0) {
            tenant->SealEpoch();
            telemetry::Count("svc.epoch_seals");
          }
          sealed[gi] = 1;  // flush always persists, even if empty
          break;
        }
        case ServiceRequestKind::kQuery: {
          auto sketch = tenant->Query();
          status = sketch.status();
          if (sketch.ok()) responses[i].sketch = std::move(*sketch);
          break;
        }
        case ServiceRequestKind::kConfigure:
          break;  // answered in phase 1; never grouped here
      }
      ServiceResponse resp = MakeResponse(req, status, tenant);
      resp.sketch = std::move(responses[i].sketch);
      responses[i] = std::move(resp);
    }
    if (telem && rows_absorbed > 0) {
      telemetry::Count(TenantCounter(tenant->name(), "rows"), rows_absorbed);
      telemetry::Count(TenantCounter(tenant->name(), "epochs"),
                       tenant->epoch());
    }
  });

  // Phase 3 — serial durability: one checkpoint per tenant that sealed
  // an epoch (or flushed), in group order. The store ends up with each
  // tenant's latest state — the same final bytes a request-at-a-time run
  // leaves behind.
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    if (!sealed[gi]) continue;
    const Status st = CheckpointTenant(*groups[gi].first);
    if (!st.ok()) {
      // Surface the durability failure on every response of the group.
      for (const size_t i : groups[gi].second) {
        if (responses[i].code == StatusCode::kOk) responses[i].code = st.code();
      }
    }
  }

  telemetry::Count("svc.requests", n);
  return responses;
}

Status SketchService::FlushAll() {
  if (options_.store == nullptr) return Status::OK();
  for (auto& [name, res] : resident_) {
    if (res.sketch->rows_in_epoch() > 0) res.sketch->SealEpoch();
    DS_RETURN_IF_ERROR(CheckpointTenant(*res.sketch));
  }
  return Status::OK();
}

StatusOr<Matrix> SketchService::AggregateQuery(size_t fanout) {
  if (resident_.empty()) {
    return Status::FailedPrecondition(
        "SketchService: AggregateQuery needs at least one resident tenant");
  }
  if (fanout < 2) {
    return Status::InvalidArgument(
        "SketchService: AggregateQuery fanout must be >= 2");
  }
  telemetry::Span span("service/aggregate", telemetry::Phase::kCompute);
  const size_t n = resident_.size();
  if (span.active()) {
    span.SetAttr("tenants", static_cast<uint64_t>(n));
    span.SetAttr("fanout", static_cast<uint64_t>(fanout));
  }

  // Leaves in name order (the resident map's iteration order): the
  // aggregate is a pure function of the live tenant states, not of touch
  // history or residency churn.
  std::vector<const TenantSketch*> leaves;
  leaves.reserve(n);
  for (const auto& [name, res] : resident_) leaves.push_back(res.sketch.get());

  DS_ASSIGN_OR_RETURN(
      MergeTopology topo,
      MergeTopology::Build(n, MergeTopologyOptions::Tree(fanout)));

  // Per-leaf accumulators seeded with each tenant's current sketch.
  // Query() is pure per-tenant compute, so the seeding parallelizes.
  std::vector<FrequentDirections> acc;
  acc.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    DS_ASSIGN_OR_RETURN(FrequentDirections fd,
                        FrequentDirections::FromEps(options_.tenant.dim,
                                                    options_.tenant.eps));
    acc.push_back(std::move(fd));
  }
  std::vector<Status> seeded = ParallelMap<Status>(n, [&](size_t i) {
    auto sketch = leaves[i]->Query();
    if (!sketch.ok()) return sketch.status();
    acc[i].AppendRows(*sketch);
    return Status::OK();
  });
  for (const Status& st : seeded) DS_RETURN_IF_ERROR(st);

  // Level-by-level reduction: at its send stage each node folds its
  // children — all final, their stages are strictly earlier — into its
  // own accumulator in ascending child order. Nodes within a stage own
  // disjoint subtrees, so the pool runs them concurrently without
  // changing any single merge order.
  for (const auto& stage : topo.stages()) {
    ParallelMap<int>(stage.size(), [&](size_t j) {
      const size_t node = static_cast<size_t>(stage[j]);
      for (int child : topo.node(node).children) {
        acc[node].Merge(acc[static_cast<size_t>(child)]);
      }
      return 0;
    });
  }

  DS_ASSIGN_OR_RETURN(FrequentDirections total,
                      FrequentDirections::FromEps(options_.tenant.dim,
                                                  options_.tenant.eps));
  for (int root : topo.roots()) total.Merge(acc[static_cast<size_t>(root)]);
  telemetry::Count("svc.aggregate_queries");
  return total.Sketch();
}

Status SketchService::EvictTenant(const std::string& tenant) {
  auto it = resident_.find(tenant);
  if (it == resident_.end()) {
    return Status::NotFound("SketchService: tenant not resident: " + tenant);
  }
  if (options_.store == nullptr) {
    return Status::FailedPrecondition(
        "SketchService: cannot evict without a store");
  }
  DS_RETURN_IF_ERROR(CheckpointTenant(*it->second.sketch));
  Unlink(it->second);
  resident_.erase(it);
  ++evictions_;
  telemetry::Count("svc.evictions");
  return Status::OK();
}

}  // namespace distsketch
