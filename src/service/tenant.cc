#include "service/tenant.h"

#include <cmath>
#include <utility>

#include "wire/sketch_serde.h"

namespace distsketch {
namespace {

// Tenant checkpoint blob layout (little-endian):
//   u64 version (= 1) | u64 epoch | u64 rows_ingested | u64 rows_in_epoch
//   u64 coordinator blob length | coordinator v1 FD blob
//   u64 epoch blob length | epoch v1 FD blob
// The store frame around it (SketchStore) supplies the checksum.
constexpr uint64_t kTenantCheckpointVersion = 1;

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
  if (!ReadU64(blob, pos, &len) || *pos + len > blob.size()) {
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

}  // namespace

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
  DS_ASSIGN_OR_RETURN(FrequentDirections epoch_fd,
                      FrequentDirections::FromEps(options.dim, options.eps));
  return TenantSketch(std::move(name), options, std::move(coordinator),
                      std::move(epoch_fd));
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
  if (version != kTenantCheckpointVersion) {
    return Status::InvalidArgument(
        "tenant checkpoint: unsupported version " + std::to_string(version));
  }
  DS_ASSIGN_OR_RETURN(FrequentDirections coordinator,
                      DecodeNestedFd(blob, &pos));
  DS_ASSIGN_OR_RETURN(FrequentDirections epoch_fd, DecodeNestedFd(blob, &pos));
  if (pos != blob.size()) {
    return Status::InvalidArgument("tenant checkpoint: trailing bytes");
  }
  if (coordinator.dim() != options.dim || epoch_fd.dim() != options.dim) {
    return Status::InvalidArgument(
        "tenant checkpoint: dimension mismatch with service options");
  }
  TenantSketch tenant(std::move(name), options, std::move(coordinator),
                      std::move(epoch_fd));
  tenant.epoch_ = epoch;
  tenant.rows_ingested_ = rows_ingested;
  tenant.rows_in_epoch_ = rows_in_epoch;
  return tenant;
}

Status TenantSketch::AbsorbRows(const Matrix& rows) {
  if (rows.cols() != options_.dim && rows.rows() > 0) {
    return Status::InvalidArgument(
        "TenantSketch: row dimension mismatch (tenant " + name_ + ")");
  }
  // One NaN or Inf would poison the next shrink's eigensolve, so the whole
  // batch is refused before either sketch sees it.
  for (size_t k = 0; k < rows.size(); ++k) {
    if (!std::isfinite(rows.data()[k])) {
      return Status::InvalidArgument(
          "TenantSketch: non-finite value in ingest rows (tenant " + name_ +
          ")");
    }
  }
  epoch_fd_.AppendBlock(rows);
  rows_ingested_ += rows.rows();
  rows_in_epoch_ += rows.rows();
  return Status::OK();
}

void TenantSketch::SealEpoch() {
  if (rows_in_epoch_ == 0) return;
  coordinator_.Merge(epoch_fd_);
  // A fresh epoch sketch with the same parameters; Create validated them.
  auto fresh = FrequentDirections::FromEps(options_.dim, options_.eps);
  DS_CHECK(fresh.ok());
  epoch_fd_ = std::move(*fresh);
  rows_in_epoch_ = 0;
  ++epoch_;
}

StatusOr<Matrix> TenantSketch::Query() const {
  // Merge into a copy so querying never perturbs the live sketches (a
  // copy via state round-trip is exact).
  DS_ASSIGN_OR_RETURN(FrequentDirections merged, FrequentDirections::FromState(
                                                     coordinator_.ExportState()));
  merged.Merge(epoch_fd_);
  return merged.Sketch();
}

std::vector<uint8_t> TenantSketch::Checkpoint() const {
  std::vector<uint8_t> out;
  AppendU64(kTenantCheckpointVersion, &out);
  AppendU64(epoch_, &out);
  AppendU64(rows_ingested_, &out);
  AppendU64(rows_in_epoch_, &out);
  const std::vector<uint8_t> coord_blob = wire::SerializeSketch(coordinator_);
  AppendU64(coord_blob.size(), &out);
  out.insert(out.end(), coord_blob.begin(), coord_blob.end());
  const std::vector<uint8_t> epoch_blob = wire::SerializeSketch(epoch_fd_);
  AppendU64(epoch_blob.size(), &out);
  out.insert(out.end(), epoch_blob.begin(), epoch_blob.end());
  return out;
}

}  // namespace distsketch
