#ifndef DISTSKETCH_SERVICE_TENANT_H_
#define DISTSKETCH_SERVICE_TENANT_H_

#include <cstdint>
#include <optional>
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
/// the open *epoch* absorbing the current window of ingest.
///
/// The epoch-merge state machine (DESIGN.md §13):
///
///   ABSORBING --(epoch_rows reached / explicit flush)--> SEAL
///   SEAL: coordinator.AppendRows(epoch rows); epoch := empty; ++epoch
///   SEAL --> ABSORBING
///
/// The epoch takes one of two forms, fixed by
/// TenantEpochUsesGram(d, l, epoch_rows):
///  - Gram rule (one d-by-d shrink per epoch costs no more than FD's
///    row-by-row shrinks): the upper triangle of the d-by-d column Gram
///    of the epoch's rows, scaled by a power of two. A request costs one
///    pass over its rows and one Gram update, with no eigensolve; sealing
///    or querying shrinks the Gram once (FdShrinkColumnGram), so the
///    epoch's rows are exactly one FD shrink of all its rows stacked.
///  - FD rule (otherwise): an FD sketch fed one AppendBlock per request,
///    merged into the coordinator as it stands.
/// Sealing rides FD's mergeable-summaries property: feeding either
/// summary into the coordinator preserves the combined guarantee, exactly
/// as the distributed FD-merge protocol folds per-server sketches. The
/// tenant is a pure function of its rows and request boundaries, and
/// checkpoints capture it exactly, so evict + restore + continue is
/// bit-identical to never having been evicted (the property the service
/// test and demo pin).
class TenantSketch {
 public:
  /// Creates an empty tenant. Requires dim >= 1 and a valid eps.
  static StatusOr<TenantSketch> Create(std::string name,
                                       const TenantOptions& options);

  /// Rebuilds a tenant from a checkpoint blob (see Checkpoint()).
  /// Restored state is bit-identical to the captured state. Version 1
  /// blobs are read for every tenant; a Gram-rule tenant folds the v1
  /// epoch FD's buffer into its Gram as one request. Version 2 blobs are
  /// read for Gram-rule tenants only.
  static StatusOr<TenantSketch> Restore(std::string name,
                                        const TenantOptions& options,
                                        const std::vector<uint8_t>& blob);

  /// Absorbs rows into the open epoch (no seal — the caller drives epoch
  /// boundaries so batch-parallel absorb stays pure per-tenant compute).
  /// The batch is one epoch update (one Gram update, or one
  /// FrequentDirections::AppendBlock), so the tenant's state depends on
  /// the batch boundaries as well as the rows: one call per request, as
  /// the service and its shadows make.
  /// A batch with the wrong width or any NaN/Inf entry is refused with
  /// InvalidArgument and leaves the tenant untouched.
  Status AbsorbRows(const Matrix& rows);

  /// True iff the open epoch has reached epoch_rows and should be sealed.
  bool EpochReady() const { return rows_in_epoch_ >= options_.epoch_rows; }

  /// Seals the open epoch: feeds its rows (EpochRows(), or the epoch FD's
  /// buffer through Merge) to the coordinator sketch and starts a fresh
  /// one. No-op when the epoch is empty.
  void SealEpoch();

  /// The tenant's current sketch: a copy of the coordinator fed the open
  /// epoch's rows, then finished (neither live sketch is mutated).
  StatusOr<Matrix> Query() const;

  /// The Gram-rule epoch's rows, the ones SealEpoch and Query feed the
  /// coordinator: one column-Gram shrink of all the epoch's rows stacked
  /// (FdShrinkColumnGram), empty for an empty epoch. Requires
  /// epoch_uses_gram(); an FD-rule epoch is merged as its FD sketch.
  Matrix EpochRows() const;

  /// Serializes the full tenant state: a fixed header (counters), the
  /// coordinator's v1 FD blob, then the epoch — as a second v1 FD blob
  /// (version 1, FD rule) or as the Gram's shift and packed upper
  /// triangle (version 2, Gram rule). Deterministic byte-for-byte.
  std::vector<uint8_t> Checkpoint() const;

  const std::string& name() const { return name_; }
  uint64_t epoch() const { return epoch_; }
  uint64_t rows_ingested() const { return rows_ingested_; }
  uint64_t rows_in_epoch() const { return rows_in_epoch_; }
  size_t dim() const { return options_.dim; }
  const TenantOptions& options() const { return options_; }
  /// True iff the open epoch is a column Gram (TenantEpochUsesGram).
  bool epoch_uses_gram() const { return !epoch_fd_.has_value(); }

 private:
  TenantSketch(std::string name, const TenantOptions& options,
               FrequentDirections coordinator);

  // The epoch update of one request of the tenant's width, refusing
  // non-finite entries (AbsorbRows, and the v1 upgrade in Restore); the
  // counters are the caller's.
  Status AbsorbIntoEpoch(const Matrix& rows);

  // Empties the open epoch.
  void ResetEpoch();

  std::string name_;
  TenantOptions options_;
  FrequentDirections coordinator_;
  // FD rule: the epoch sketch. Disengaged under the Gram rule.
  std::optional<FrequentDirections> epoch_fd_;
  // Gram rule: the upper triangle, row by row, of the d-by-d sum of
  // (2^epoch_shift_ a)(2^epoch_shift_ a)^T over the epoch's rows; empty
  // under the FD rule.
  std::vector<double> epoch_gram_;
  int epoch_shift_ = 0;
  uint64_t epoch_ = 0;
  uint64_t rows_ingested_ = 0;
  uint64_t rows_in_epoch_ = 0;
};

}  // namespace distsketch

#endif  // DISTSKETCH_SERVICE_TENANT_H_
