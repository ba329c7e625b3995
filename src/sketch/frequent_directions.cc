#include "sketch/frequent_directions.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "linalg/spectral_kernel.h"
#include "telemetry/span.h"

namespace distsketch {

namespace {

// b *= 2^shift entry by entry: exact unless an entry leaves the double
// range, and shift may exceed what 2^shift itself can represent.
void ScaleByPowerOfTwo(Matrix& b, int shift) {
  for (size_t k = 0; k < b.size(); ++k) {
    b.data()[k] = std::ldexp(b.data()[k], shift);
  }
}

}  // namespace

bool FdUsesGramShrink(size_t dim, size_t sketch_size) {
  return dim > 2 * sketch_size;
}

double FdGramShrink(Matrix& buffer, size_t sketch_size, SvdWorkspace* ws) {
  const size_t m = buffer.rows();
  const size_t dim = buffer.cols();
  DS_CHECK(m > sketch_size);
  SvdWorkspace local;
  if (ws == nullptr) ws = &local;

  // G = B B^T is m-by-m with m <= 2l, so the eigensolve never sees the
  // d-dimension. lambda_j = sigma_j^2, and the j-th right singular row is
  // sigma_j v_j^T = u_j^T B / sigma_j scaled back by the shrunk value.
  // All scratch lives in `ws`, so a streaming FD's repeated shrinks stop
  // paying the allocator.
  RowGramInto(buffer, ws->gram);
  // Extreme buffers are pre-scaled, as ComputeSigmaVt does: an entry past
  // ~1e154 overflows G (and the eigensolve fails), one below ~1e-154
  // underflows it. G's largest entry is on its diagonal, so in-range
  // buffers are recognised from G alone and left untouched. Others are
  // scaled by the power of two that brings max|b_ij| into [1, 2); delta
  // and the kept rows are scaled back exactly at the end.
  double gmax = 0.0;
  for (size_t i = 0; i < m; ++i) gmax = std::max(gmax, ws->gram(i, i));
  int shift = 0;
  if (!(gmax >= 1e-200 && gmax <= 1e200)) {
    const double alpha = MaxAbs(buffer);
    if (alpha > 0.0 && alpha <= std::numeric_limits<double>::max()) {
      shift = -std::ilogb(alpha);
      ScaleByPowerOfTwo(buffer, shift);
      RowGramInto(buffer, ws->gram);
      // Such a buffer can mix rows hundreds of decades apart (one 1e300
      // entry among O(1) rows), and the small rows' Gram entries would
      // reach the eigensolve as subnormals, where QL's relative deflation
      // stalls. Entries below 2^-200 of the largest are zeroed: far under
      // the 1e-30 relative floor below which no direction is kept anyway.
      gmax = 0.0;
      for (size_t i = 0; i < m; ++i) gmax = std::max(gmax, ws->gram(i, i));
      const double tiny = std::ldexp(gmax, -200);
      for (size_t k = 0; k < m * m; ++k) {
        if (std::abs(ws->gram.data()[k]) < tiny) ws->gram.data()[k] = 0.0;
      }
    }
  }
  const Status eig_status =
      ComputeSymmetricEigenInto(ws->gram, &ws->eig, &ws->eig_ws);
  DS_CHECK(eig_status.ok());
  const SymmetricEigenResult* eig = &ws->eig;
  const auto& lambda = eig->eigenvalues;

  const double delta =
      (lambda.size() > sketch_size) ? std::max(lambda[sketch_size], 0.0) : 0.0;

  // Keep rows while lambda_j - delta > 0. Guard against eigenvalues that
  // are numerically zero relative to the spectrum top: dividing by them
  // would blow up u_j^T B / sigma_j.
  const double lambda_floor =
      (lambda.empty() ? 0.0 : std::max(lambda[0], 0.0)) * 1e-30;
  size_t keep = 0;
  while (keep < std::min(sketch_size, lambda.size()) &&
         lambda[keep] - delta > 0.0 && lambda[keep] > lambda_floor) {
    ++keep;
  }

  if (keep > 0) {
    // W = U_keep^T B (keep-by-d), computed in one pass; row j is then
    // scaled by sqrt((lambda_j - delta) / lambda_j) so its norm becomes
    // sqrt(lambda_j - delta) — exactly the shrunk singular row.
    Matrix& u_keep = ws->u_keep;
    u_keep.SetZero(m, keep);
    for (size_t r = 0; r < m; ++r) {
      for (size_t j = 0; j < keep; ++j) u_keep(r, j) = eig->eigenvectors(r, j);
    }
    Matrix& w = ws->w;
    MultiplyTransposeAInto(u_keep, buffer, w);
    for (size_t j = 0; j < keep; ++j) {
      w.ScaleRow(j, std::sqrt((lambda[j] - delta) / lambda[j]));
    }
  }
  // The shrunk rows go back into the buffer's own storage, which already
  // holds m > keep rows, so a reused workspace allocates nothing.
  buffer.SetZero(0, dim);
  buffer.Reserve(2 * sketch_size);
  if (keep > 0) buffer.AppendRows(ws->w);
  if (shift != 0) {
    ScaleByPowerOfTwo(buffer, -shift);
    return std::ldexp(delta, -2 * shift);
  }
  return delta;
}

FrequentDirections::FrequentDirections(size_t dim, size_t sketch_size)
    : dim_(dim), sketch_size_(sketch_size) {
  DS_CHECK(dim >= 1);
  DS_CHECK(sketch_size >= 1);
  buffer_.SetZero(0, dim);
  // The buffer tops out at 2*sketch_size rows; one up-front reservation
  // removes every per-row reallocation on the append path.
  buffer_.Reserve(2 * sketch_size);
}

StatusOr<FrequentDirections> FrequentDirections::FromEpsK(size_t dim,
                                                          double eps,
                                                          size_t k) {
  if (k < 1) {
    return Status::InvalidArgument("FromEpsK: k must be >= 1 (use FromEps)");
  }
  if (eps <= 0.0) {
    return Status::InvalidArgument("FromEpsK: eps must be positive");
  }
  const size_t sketch_size =
      k + static_cast<size_t>(std::ceil(static_cast<double>(k) / eps));
  return FrequentDirections(dim, sketch_size);
}

StatusOr<FrequentDirections> FrequentDirections::FromEps(size_t dim,
                                                         double eps) {
  if (eps <= 0.0) {
    return Status::InvalidArgument("FromEps: eps must be positive");
  }
  const size_t sketch_size =
      static_cast<size_t>(std::ceil(1.0 / eps)) + 1;
  return FrequentDirections(dim, sketch_size);
}

StatusOr<FrequentDirections> FrequentDirections::FromState(
    FdSketchState state) {
  if (state.dim < 1 || state.sketch_size < 1) {
    return Status::InvalidArgument(
        "FrequentDirections::FromState: dim and sketch_size must be >= 1");
  }
  if (state.buffer.rows() > 0 && state.buffer.cols() != state.dim) {
    return Status::InvalidArgument(
        "FrequentDirections::FromState: buffer column count != dim");
  }
  if (state.buffer.rows() > 2 * state.sketch_size) {
    return Status::InvalidArgument(
        "FrequentDirections::FromState: buffer exceeds 2*sketch_size rows");
  }
  FrequentDirections fd(state.dim, state.sketch_size);
  if (state.buffer.rows() > 0) {
    fd.buffer_.AppendRows(state.buffer);
  }
  fd.total_shrinkage_ = state.total_shrinkage;
  fd.shrink_count_ = state.shrink_count;
  fd.rows_seen_ = state.rows_seen;
  return fd;
}

FdSketchState FrequentDirections::ExportState() const {
  FdSketchState state;
  state.dim = dim_;
  state.sketch_size = sketch_size_;
  state.buffer = buffer_;
  state.total_shrinkage = total_shrinkage_;
  state.shrink_count = shrink_count_;
  state.rows_seen = rows_seen_;
  return state;
}

void FrequentDirections::Append(std::span<const double> row) {
  DS_CHECK(row.size() == dim_);
  buffer_.AppendRow(row);
  ++rows_seen_;
  if (buffer_.rows() >= 2 * sketch_size_) Shrink();
}

void FrequentDirections::AppendRows(const Matrix& rows) {
  for (size_t i = 0; i < rows.rows(); ++i) Append(rows.Row(i));
}

void FrequentDirections::Merge(const FrequentDirections& other) {
  DS_CHECK(other.dim() == dim_);
  AppendRows(other.buffer());
}

void FrequentDirections::Shrink() {
  if (buffer_.rows() <= sketch_size_) return;
  telemetry::Span span("fd/shrink", telemetry::Phase::kShrink);
  span.SetAttr("l", static_cast<uint64_t>(sketch_size_));
  span.SetAttr("rows", static_cast<uint64_t>(buffer_.rows()));
  telemetry::Count("fd.shrinks");

  if (FdUsesGramShrink(dim_, sketch_size_)) {
    total_shrinkage_ += FdGramShrink(buffer_, sketch_size_, &svd_ws_);
    ++shrink_count_;
    return;
  }

  // Column-dimension path (d <= 2l): the spectral kernel computes
  // (Sigma, V) without ever forming U. The shrink consumes sigma^2 = lambda
  // directly, so the Gram route's squared condition number costs nothing —
  // it is forced.
  SpectralKernelOptions kopts;
  kopts.route = SpectralRoute::kGram;
  auto spec = ComputeSigmaVt(buffer_, kopts, &svd_ws_);
  DS_CHECK(spec.ok());
  auto& sigma = spec->singular_values;

  // delta = sigma_{l+1}^2 (the first value that must be zeroed). If the
  // buffer already has rank <= sketch_size the shrink is free.
  const double delta = (sigma.size() > sketch_size_)
                           ? sigma[sketch_size_] * sigma[sketch_size_]
                           : 0.0;
  total_shrinkage_ += delta;
  ++shrink_count_;

  // B <- sqrt(max(Sigma^2 - delta I, 0)) V^T, keeping the top rows.
  const size_t keep =
      std::min<size_t>(sketch_size_, sigma.size());
  Matrix next(0, dim_);
  next.Reserve(2 * sketch_size_);
  std::vector<double> scaled_row(dim_);
  for (size_t j = 0; j < keep; ++j) {
    const double s2 = sigma[j] * sigma[j] - delta;
    if (s2 <= 0.0) break;  // sigma sorted: the rest are zero too.
    const double s = std::sqrt(s2);
    for (size_t i = 0; i < dim_; ++i) scaled_row[i] = s * spec->v(i, j);
    next.AppendRow(scaled_row);
  }
  buffer_ = std::move(next);
}

Matrix FrequentDirections::Sketch() {
  Shrink();
  return buffer_;
}

}  // namespace distsketch
