#include "service/tenant.h"

#include <bit>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "linalg/blas.h"
#include "wire/sketch_serde.h"

namespace distsketch {
namespace {

// Tenant checkpoint blob layout (little-endian):
//   u64 version | u64 epoch | u64 rows_ingested | u64 rows_in_epoch
//   u64 coordinator blob length | coordinator v1 FD blob
// then the open epoch, by version:
//   1 (FD rule):   u64 epoch blob length | epoch v1 FD blob
//   2 (Gram rule): i64 shift | d(d+1)/2 f64, the Gram's upper triangle
//                  row by row
// The store frame around it (SketchStore) supplies the checksum.
constexpr uint64_t kFdEpochVersion = 1;
constexpr uint64_t kGramEpochVersion = 2;

// The shifts a Gram epoch can hold: -ilogb(a) over the finite nonzero a.
constexpr int64_t kMinShift = -1023;
constexpr int64_t kMaxShift = 1074;

void AppendU64(uint64_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

bool ReadU64(const std::vector<uint8_t>& in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(in[*pos + i]) << (8 * i);
  }
  *v = out;
  *pos += 8;
  return true;
}

StatusOr<FrequentDirections> DecodeNestedFd(const std::vector<uint8_t>& blob,
                                            size_t* pos) {
  uint64_t len = 0;
  if (!ReadU64(blob, pos, &len) || len > blob.size() - *pos) {
    return Status::InvalidArgument("tenant checkpoint: truncated FD blob");
  }
  // Nested v1 blobs need 8-byte alignment for the zero-copy wrap; the
  // surrounding layout does not guarantee it, so copy to a fresh buffer.
  std::vector<uint8_t> nested(blob.begin() + *pos, blob.begin() + *pos + len);
  *pos += len;
  DS_ASSIGN_OR_RETURN(wire::CompactSketch compact,
                      wire::CompactSketch::Wrap(nested.data(), nested.size()));
  return compact.ToFrequentDirections();
}

// The Gram of a version-2 epoch: the upper triangle of a `dim`-by-`dim`
// Gram, row by row, filling the whole blob from *pos. Only what absorbing
// finite rows can leave is accepted: finite entries and a non-negative
// diagonal.
Status DecodeGram(const std::vector<uint8_t>& blob, size_t* pos, size_t dim,
                  std::vector<double>* upper) {
  const size_t bytes = 8 * upper->size();
  if (blob.size() - *pos < bytes) {
    return Status::InvalidArgument("tenant checkpoint: truncated epoch Gram");
  }
  if (blob.size() - *pos > bytes) {
    return Status::InvalidArgument("tenant checkpoint: trailing bytes");
  }
  size_t k = 0;
  for (size_t i = 0; i < dim; ++i) {
    for (size_t j = i; j < dim; ++j, ++k) {
      uint64_t bits = 0;
      ReadU64(blob, pos, &bits);
      const double v = std::bit_cast<double>(bits);
      if (!std::isfinite(v) || (i == j && v < 0.0)) {
        return Status::InvalidArgument(
            "tenant checkpoint: epoch Gram entry is not finite or a "
            "diagonal is negative");
      }
      (*upper)[k] = v;
    }
  }
  return Status::OK();
}

// The shift that brings a request of max entry alpha > 0 into range on its
// own: 0 when alpha lies in [1e-100, 1e100], else the power of two that
// takes alpha into [1, 2).
int RequestShift(double alpha) {
  return (alpha >= 1e-100 && alpha <= 1e100) ? 0 : -std::ilogb(alpha);
}

// True iff the packed `dim`-by-`dim` upper triangle has no mass.
bool GramIsZero(const std::vector<double>& upper, size_t dim) {
  for (size_t i = 0, diag = 0; i < dim; diag += dim - i, ++i) {
    if (upper[diag] != 0.0) return false;
  }
  return true;
}

// upper += the upper triangle of rows^T rows, through a full d-by-d
// scratch because the Gram kernel works on one. The kernel reads and
// writes the upper triangle only, so this is bit for bit an in-place
// update of a full Gram.
void AccumulateGram(const Matrix& rows, std::vector<double>& upper) {
  thread_local Matrix full;
  UnpackSymmetric(upper, rows.cols(), full);
  GramAccumulate(rows, full);
  PackUpperTriangle(full, upper);
}

}  // namespace

TenantSketch::TenantSketch(std::string name, const TenantOptions& options,
                           FrequentDirections coordinator)
    : name_(std::move(name)),
      options_(options),
      coordinator_(std::move(coordinator)) {
  ResetEpoch();
}

StatusOr<TenantSketch> TenantSketch::Create(std::string name,
                                            const TenantOptions& options) {
  if (options.dim == 0) {
    return Status::InvalidArgument("TenantSketch: dim must be >= 1");
  }
  if (options.epoch_rows == 0) {
    return Status::InvalidArgument("TenantSketch: epoch_rows must be >= 1");
  }
  DS_ASSIGN_OR_RETURN(FrequentDirections coordinator,
                      FrequentDirections::FromEps(options.dim, options.eps));
  return TenantSketch(std::move(name), options, std::move(coordinator));
}

StatusOr<TenantSketch> TenantSketch::Restore(
    std::string name, const TenantOptions& options,
    const std::vector<uint8_t>& blob) {
  size_t pos = 0;
  uint64_t version = 0, epoch = 0, rows_ingested = 0, rows_in_epoch = 0;
  if (!ReadU64(blob, &pos, &version) || !ReadU64(blob, &pos, &epoch) ||
      !ReadU64(blob, &pos, &rows_ingested) ||
      !ReadU64(blob, &pos, &rows_in_epoch)) {
    return Status::InvalidArgument("tenant checkpoint: truncated header");
  }
  if (version != kFdEpochVersion && version != kGramEpochVersion) {
    return Status::InvalidArgument(
        "tenant checkpoint: unsupported version " + std::to_string(version));
  }
  DS_ASSIGN_OR_RETURN(FrequentDirections coordinator,
                      DecodeNestedFd(blob, &pos));
  if (coordinator.dim() != options.dim) {
    return Status::InvalidArgument(
        "tenant checkpoint: dimension mismatch with service options");
  }
  TenantSketch tenant(std::move(name), options, std::move(coordinator));
  tenant.epoch_ = epoch;
  tenant.rows_ingested_ = rows_ingested;
  tenant.rows_in_epoch_ = rows_in_epoch;
  if (version == kGramEpochVersion) {
    if (!tenant.epoch_uses_gram()) {
      return Status::InvalidArgument(
          "tenant checkpoint: version 2 holds a Gram epoch, which this "
          "tenant's options do not use");
    }
    uint64_t shift_bits = 0;
    if (!ReadU64(blob, &pos, &shift_bits)) {
      return Status::InvalidArgument("tenant checkpoint: truncated epoch");
    }
    const auto shift = static_cast<int64_t>(shift_bits);
    if (shift < kMinShift || shift > kMaxShift) {
      return Status::InvalidArgument(
          "tenant checkpoint: epoch shift out of range");
    }
    tenant.epoch_shift_ = static_cast<int>(shift);
    DS_RETURN_IF_ERROR(
        DecodeGram(blob, &pos, options.dim, &tenant.epoch_gram_));
    return tenant;
  }
  DS_ASSIGN_OR_RETURN(FrequentDirections epoch_fd, DecodeNestedFd(blob, &pos));
  if (pos != blob.size()) {
    return Status::InvalidArgument("tenant checkpoint: trailing bytes");
  }
  if (epoch_fd.dim() != options.dim) {
    return Status::InvalidArgument(
        "tenant checkpoint: dimension mismatch with service options");
  }
  if (tenant.epoch_uses_gram()) {
    // A version-1 blob written before the Gram epoch existed: its epoch
    // FD's rows are a valid summary of the epoch, absorbed as one request.
    DS_RETURN_IF_ERROR(tenant.AbsorbIntoEpoch(epoch_fd.buffer()));
  } else {
    tenant.epoch_fd_ = std::move(epoch_fd);
  }
  return tenant;
}

Status TenantSketch::AbsorbRows(const Matrix& rows) {
  if (rows.cols() != options_.dim && rows.rows() > 0) {
    return Status::InvalidArgument(
        "TenantSketch: row dimension mismatch (tenant " + name_ + ")");
  }
  DS_RETURN_IF_ERROR(AbsorbIntoEpoch(rows));
  rows_ingested_ += rows.rows();
  rows_in_epoch_ += rows.rows();
  return Status::OK();
}

Status TenantSketch::AbsorbIntoEpoch(const Matrix& rows) {
  // One NaN or Inf would poison the epoch's shrink, so the whole batch is
  // refused before the epoch sees it. The same pass finds max|a|, which
  // sets the Gram's scale.
  bool finite = true;
  const double alpha = MaxAbs(rows, &finite);
  if (!finite) {
    return Status::InvalidArgument(
        "TenantSketch: non-finite value in ingest rows (tenant " + name_ +
        ")");
  }
  if (epoch_fd_.has_value()) {
    epoch_fd_->AppendBlock(rows);
    return Status::OK();
  }
  if (alpha == 0.0) return Status::OK();
  // The Gram holds the rows scaled by 2^shift, with the epoch's largest
  // scaled entry in [1e-100, 1e100], so it can neither overflow nor lose
  // its largest rows to underflow. The first rows with mass choose the
  // shift. A request that would pass 1e100 lowers it, rescaling the Gram
  // by 2^(2 delta): exact up to underflow of entries far below the ones
  // any shrink keeps. Smaller requests keep it; their terms can only
  // underflow where they are negligible next to the epoch's largest row.
  if (GramIsZero(epoch_gram_, options_.dim)) {
    epoch_shift_ = RequestShift(alpha);
  } else if (std::ldexp(alpha, epoch_shift_) > 1e100) {
    const int shift = RequestShift(alpha);
    for (double& g : epoch_gram_) g = std::ldexp(g, 2 * (shift - epoch_shift_));
    epoch_shift_ = shift;
  }
  if (epoch_shift_ == 0) {
    AccumulateGram(rows, epoch_gram_);
    return Status::OK();
  }
  thread_local Matrix scaled;
  scaled = rows;
  ScaleByPowerOfTwo(scaled, epoch_shift_);
  AccumulateGram(scaled, epoch_gram_);
  return Status::OK();
}

void TenantSketch::ResetEpoch() {
  if (TenantEpochUsesGram(options_.dim, coordinator_.sketch_size(),
                          options_.epoch_rows)) {
    epoch_gram_.assign(options_.dim * (options_.dim + 1) / 2, 0.0);
    epoch_shift_ = 0;
  } else {
    epoch_fd_.emplace(options_.dim, coordinator_.sketch_size());
  }
  rows_in_epoch_ = 0;
}

Matrix TenantSketch::EpochRows() const {
  DS_CHECK(epoch_uses_gram());
  Matrix rows(0, options_.dim);
  if (rows_in_epoch_ > 0) {
    FdShrinkColumnGram(epoch_gram_, options_.dim, rows_in_epoch_,
                       epoch_shift_, coordinator_.sketch_size(), rows);
  }
  return rows;
}

void TenantSketch::SealEpoch() {
  if (rows_in_epoch_ == 0) return;
  if (epoch_fd_.has_value()) {
    coordinator_.Merge(*epoch_fd_);
  } else {
    coordinator_.AppendRows(EpochRows());
  }
  ResetEpoch();
  ++epoch_;
}

StatusOr<Matrix> TenantSketch::Query() const {
  // Feed a copy so querying never perturbs the live sketches (a copy via
  // state round-trip is exact).
  DS_ASSIGN_OR_RETURN(FrequentDirections merged, FrequentDirections::FromState(
                                                     coordinator_.ExportState()));
  if (epoch_fd_.has_value()) {
    merged.Merge(*epoch_fd_);
  } else {
    merged.AppendRows(EpochRows());
  }
  return merged.Sketch();
}

std::vector<uint8_t> TenantSketch::Checkpoint() const {
  std::vector<uint8_t> out;
  AppendU64(epoch_fd_.has_value() ? kFdEpochVersion : kGramEpochVersion,
            &out);
  AppendU64(epoch_, &out);
  AppendU64(rows_ingested_, &out);
  AppendU64(rows_in_epoch_, &out);
  const std::vector<uint8_t> coord_blob = wire::SerializeSketch(coordinator_);
  AppendU64(coord_blob.size(), &out);
  out.insert(out.end(), coord_blob.begin(), coord_blob.end());
  if (epoch_fd_.has_value()) {
    const std::vector<uint8_t> epoch_blob = wire::SerializeSketch(*epoch_fd_);
    AppendU64(epoch_blob.size(), &out);
    out.insert(out.end(), epoch_blob.begin(), epoch_blob.end());
    return out;
  }
  out.reserve(out.size() + 8 * (1 + epoch_gram_.size()));
  AppendU64(static_cast<uint64_t>(static_cast<int64_t>(epoch_shift_)), &out);
  for (const double g : epoch_gram_) {
    AppendU64(std::bit_cast<uint64_t>(g), &out);
  }
  return out;
}

}  // namespace distsketch
