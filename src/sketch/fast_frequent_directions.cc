#include "sketch/fast_frequent_directions.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "linalg/randomized_svd.h"
#include "sketch/frequent_directions.h"
#include "telemetry/span.h"

namespace distsketch {

FastFrequentDirections::FastFrequentDirections(size_t dim,
                                               size_t sketch_size,
                                               uint64_t seed)
    : dim_(dim), sketch_size_(sketch_size), seed_(seed) {
  DS_CHECK(dim >= 1);
  DS_CHECK(sketch_size >= 1);
  buffer_.SetZero(0, dim);
  buffer_.Reserve(2 * sketch_size);
}

StatusOr<FastFrequentDirections> FastFrequentDirections::FromEpsK(
    size_t dim, double eps, size_t k, uint64_t seed) {
  if (k < 1) {
    return Status::InvalidArgument("FromEpsK: k must be >= 1");
  }
  if (eps <= 0.0) {
    return Status::InvalidArgument("FromEpsK: eps must be positive");
  }
  return FastFrequentDirections(dim, FdSketchSize(eps, k), seed);
}

StatusOr<FastFrequentDirections> FastFrequentDirections::FromState(
    FastFdState state) {
  if (state.dim < 1 || state.sketch_size < 1) {
    return Status::InvalidArgument(
        "FastFrequentDirections::FromState: dim and sketch_size must be >= 1");
  }
  if (state.buffer.rows() > 0 && state.buffer.cols() != state.dim) {
    return Status::InvalidArgument(
        "FastFrequentDirections::FromState: buffer column count != dim");
  }
  if (state.buffer.rows() > 2 * state.sketch_size) {
    return Status::InvalidArgument(
        "FastFrequentDirections::FromState: buffer exceeds 2*sketch_size "
        "rows");
  }
  FastFrequentDirections fd(state.dim, state.sketch_size, state.seed);
  if (state.buffer.rows() > 0) {
    fd.buffer_.AppendRows(state.buffer);
  }
  fd.total_shrinkage_ = state.total_shrinkage;
  fd.shrink_count_ = state.shrink_count;
  return fd;
}

FastFdState FastFrequentDirections::ExportState() const {
  FastFdState state;
  state.dim = dim_;
  state.sketch_size = sketch_size_;
  state.seed = seed_;
  state.buffer = buffer_;
  state.total_shrinkage = total_shrinkage_;
  state.shrink_count = shrink_count_;
  return state;
}

void FastFrequentDirections::Append(std::span<const double> row) {
  DS_CHECK(row.size() == dim_);
  buffer_.AppendRow(row);
  if (buffer_.rows() >= 2 * sketch_size_) Shrink();
}

void FastFrequentDirections::AppendRows(const Matrix& rows) {
  for (size_t i = 0; i < rows.rows(); ++i) Append(rows.Row(i));
}

void FastFrequentDirections::Shrink() {
  if (buffer_.rows() <= sketch_size_) return;
  telemetry::Span span("fast_fd/shrink", telemetry::Phase::kShrink);
  span.SetAttr("l", static_cast<uint64_t>(sketch_size_));
  span.SetAttr("rows", static_cast<uint64_t>(buffer_.rows()));
  telemetry::Count("fd.shrinks");
  if (FdUsesGramShrink(dim_, sketch_size_)) {
    // Gram path: exact spectrum from the 2l-by-2l buffer Gram, never
    // touching the d dimension — faster than the randomized SVD whenever
    // d >> l, and deterministic (the seed stream is not consumed). The
    // workspace keeps the Gram and eigensolver scratch across shrinks.
    total_shrinkage_ += FdGramShrink(buffer_, sketch_size_, &svd_ws_);
    ++shrink_count_;
    return;
  }
  // Randomized truncated SVD: we need the top l values (to keep) plus the
  // (l+1)-th (the delta), so ask for l+1 with oversampling.
  RandomizedSvdOptions options;
  options.oversample = 8;
  options.power_iterations = 2;
  options.seed = Rng::DeriveSeed(seed_, ++shrink_count_);
  auto svd = RandomizedSvd(buffer_, sketch_size_ + 1, options);
  DS_CHECK(svd.ok());
  const auto& sigma = svd->singular_values;

  const double delta = (sigma.size() > sketch_size_)
                           ? sigma[sketch_size_] * sigma[sketch_size_]
                           : 0.0;
  total_shrinkage_ += delta;

  const size_t keep = std::min<size_t>(sketch_size_, sigma.size());
  Matrix next(0, dim_);
  next.Reserve(2 * sketch_size_);
  std::vector<double> scaled_row(dim_);
  for (size_t j = 0; j < keep; ++j) {
    const double s2 = sigma[j] * sigma[j] - delta;
    if (s2 <= 0.0) break;
    const double s = std::sqrt(s2);
    for (size_t i = 0; i < dim_; ++i) scaled_row[i] = s * svd->v(i, j);
    next.AppendRow(scaled_row);
  }
  buffer_ = std::move(next);
}

Matrix FastFrequentDirections::Sketch() {
  Shrink();
  return buffer_;
}

}  // namespace distsketch
