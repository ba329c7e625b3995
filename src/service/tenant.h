#ifndef DISTSKETCH_SERVICE_TENANT_H_
#define DISTSKETCH_SERVICE_TENANT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"
#include "sketch/frequent_directions.h"

namespace distsketch {

/// Sizing and epoch policy of one tenant's sketch.
struct TenantOptions {
  /// Row dimension (fixed per tenant at creation).
  size_t dim = 0;
  /// FD accuracy target: sketch_size = ceil(1/eps) + 1 (Theorem 1).
  double eps = 0.1;
  /// Rows per epoch: once the open epoch has absorbed this many rows it
  /// is sealed — merged into the coordinator sketch — at the next epoch
  /// boundary check.
  size_t epoch_rows = 256;
};

/// One tenant's sketch state: a long-lived *coordinator* FD sketch plus
/// an *epoch* FD sketch absorbing the current window of ingest.
///
/// The epoch-merge state machine (DESIGN.md §13):
///
///   ABSORBING --(epoch_rows reached / explicit flush)--> SEAL
///   SEAL: coordinator.Merge(epoch); epoch := fresh; ++epoch counter
///   SEAL --> ABSORBING
///
/// Sealing rides FD's mergeable-summaries property: merging the epoch
/// sketch into the coordinator preserves the combined guarantee, exactly
/// as the distributed FD-merge protocol folds per-server sketches. The
/// split keeps ingest O(epoch sketch) hot while the coordinator absorbs
/// one merge per epoch instead of one shrink cascade per batch, and
/// gives eviction a natural boundary: checkpoints capture both sketches
/// exactly, so evict + restore + continue is bit-identical to never
/// having been evicted (the property the service test and demo pin).
class TenantSketch {
 public:
  /// Creates an empty tenant. Requires dim >= 1 and a valid eps.
  static StatusOr<TenantSketch> Create(std::string name,
                                       const TenantOptions& options);

  /// Rebuilds a tenant from a checkpoint blob (see Checkpoint()).
  /// Restored state is bit-identical to the captured state.
  static StatusOr<TenantSketch> Restore(std::string name,
                                        const TenantOptions& options,
                                        const std::vector<uint8_t>& blob);

  /// Absorbs rows into the open epoch (no seal — the caller drives epoch
  /// boundaries so batch-parallel absorb stays pure per-tenant compute).
  /// The batch is one FrequentDirections::AppendBlock, so the tenant's
  /// state depends on the batch boundaries as well as the rows: one call
  /// per request, as the service and its shadows make.
  /// A batch with the wrong width or any NaN/Inf entry is refused with
  /// InvalidArgument and leaves the tenant untouched.
  Status AbsorbRows(const Matrix& rows);

  /// True iff the open epoch has reached epoch_rows and should be sealed.
  bool EpochReady() const { return rows_in_epoch_ >= options_.epoch_rows; }

  /// Seals the open epoch: merges it into the coordinator sketch and
  /// starts a fresh one. No-op when the epoch is empty.
  void SealEpoch();

  /// The tenant's current sketch: coordinator merged with the open epoch
  /// (neither is mutated).
  StatusOr<Matrix> Query() const;

  /// Serializes the full tenant state: a fixed header (counters) plus
  /// the two nested v1 FD blobs. Deterministic byte-for-byte.
  std::vector<uint8_t> Checkpoint() const;

  const std::string& name() const { return name_; }
  uint64_t epoch() const { return epoch_; }
  uint64_t rows_ingested() const { return rows_ingested_; }
  uint64_t rows_in_epoch() const { return rows_in_epoch_; }
  size_t dim() const { return options_.dim; }
  const TenantOptions& options() const { return options_; }

 private:
  TenantSketch(std::string name, const TenantOptions& options,
               FrequentDirections coordinator, FrequentDirections epoch_fd)
      : name_(std::move(name)),
        options_(options),
        coordinator_(std::move(coordinator)),
        epoch_fd_(std::move(epoch_fd)) {}

  std::string name_;
  TenantOptions options_;
  FrequentDirections coordinator_;
  FrequentDirections epoch_fd_;
  uint64_t epoch_ = 0;
  uint64_t rows_ingested_ = 0;
  uint64_t rows_in_epoch_ = 0;
};

}  // namespace distsketch

#endif  // DISTSKETCH_SERVICE_TENANT_H_
