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

// Zeroes the entries of the symmetric Gram g below 2^-200 of its largest
// diagonal. A power-of-two pre-scaled buffer can mix rows hundreds of
// decades apart (one 1e300 entry among O(1) rows), and the small rows'
// Gram entries would reach the eigensolve as subnormals, where QL's
// relative deflation stalls. The zeroed entries sit far below any
// direction FD keeps.
void ZeroNegligibleGramEntries(Matrix& g) {
  double gmax = 0.0;
  for (size_t i = 0; i < g.rows(); ++i) gmax = std::max(gmax, g(i, i));
  const double tiny = std::ldexp(gmax, -200);
  for (size_t k = 0; k < g.size(); ++k) {
    if (std::abs(g.data()[k]) < tiny) g.data()[k] = 0.0;
  }
}

// Shrink scratch shared by every FrequentDirections on this thread. A
// shrink needs it only while it runs, so a service holding thousands of
// tenant sketches keeps one workspace per thread rather than one per
// sketch; once it has grown to the largest shape the thread shrinks, a
// steady-state shrink allocates nothing. Reuse changes no bit.
SvdWorkspace& ThreadShrinkWorkspace() {
  thread_local SvdWorkspace ws;
  return ws;
}

// The column-Gram shrink step both FdColumnShrink and FdShrinkColumnGram
// end in: eigensolves ws.gram, the symmetric d-by-d Gram of `rows` stacked
// rows pre-scaled by 2^shift, writes the at most sketch_size rows
// sqrt(sigma_j^2 - delta) v_j^T into `out`'s own storage and returns
// delta, both scaled back by 2^-shift.
double ShrinkColumnGram(size_t rows, size_t sketch_size, int shift,
                        SvdWorkspace& ws, Matrix& out) {
  const size_t dim = ws.gram.rows();
  const Status eig_status =
      ComputeSymmetricEigenInto(ws.gram, &ws.eig, &ws.eig_ws);
  DS_CHECK(eig_status.ok());
  const auto& lambda = ws.eig.eigenvalues;
  const Matrix& v = ws.eig.eigenvectors;

  // sigma_j = sqrt(lambda_j) for the min(m, d) values the stacked rows can
  // carry; delta = sigma_{l+1}^2 (the first value that must be zeroed). If
  // they have rank <= sketch_size the shrink is free.
  const size_t r = std::min(rows, dim);
  auto sigma = [&](size_t j) { return std::sqrt(std::max(lambda[j], 0.0)); };
  const double delta =
      (r > sketch_size) ? sigma(sketch_size) * sigma(sketch_size) : 0.0;
  size_t keep = 0;
  while (keep < std::min(sketch_size, r) &&
         sigma(keep) * sigma(keep) - delta > 0.0) {
    ++keep;
  }

  // B <- sqrt(Sigma^2 - delta I) V^T, top rows only, in `out`'s own
  // storage (it is reserved for 2l rows, so a reused buffer allocates
  // nothing).
  out.Reserve(2 * sketch_size);
  out.SetZero(keep, dim);
  for (size_t j = 0; j < keep; ++j) {
    const double s = std::sqrt(sigma(j) * sigma(j) - delta);
    for (size_t i = 0; i < dim; ++i) out(j, i) = s * v(i, j);
  }
  if (shift != 0) {
    ScaleByPowerOfTwo(out, -shift);
    return std::ldexp(delta, -2 * shift);
  }
  return delta;
}

}  // namespace

size_t FdSketchSize(double eps, size_t k) {
  return k == 0 ? static_cast<size_t>(std::ceil(1.0 / eps)) + 1
                : k + static_cast<size_t>(
                          std::ceil(static_cast<double>(k) / eps));
}

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
  // Extreme buffers are pre-scaled, as in FdColumnShrink: an entry past
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
      ZeroNegligibleGramEntries(ws->gram);
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

double FdColumnShrink(Matrix& buffer, const Matrix* block, size_t sketch_size,
                      SvdWorkspace* ws) {
  const size_t dim = buffer.cols();
  const size_t m = buffer.rows() + (block == nullptr ? 0 : block->rows());
  DS_CHECK(block == nullptr || block->cols() == dim);
  DS_CHECK(m > sketch_size);
  SvdWorkspace local;
  if (ws == nullptr) ws = &local;

  // Extreme rows are pre-scaled: the Gram squares entries (overflow past
  // ~1e154, underflow below ~1e-154). The buffer is scaled in place and a
  // block, which is read-only, through a scaled copy; both by the power of
  // two that brings max|a_ij| into [1, 2), so delta and the kept rows
  // scale back exactly.
  double alpha = MaxAbs(buffer);
  if (block != nullptr) alpha = std::max(alpha, MaxAbs(*block));
  int shift = 0;
  if (alpha > 0.0 && alpha <= std::numeric_limits<double>::max() &&
      (alpha > 1e100 || alpha < 1e-100)) {
    shift = -std::ilogb(alpha);
    ScaleByPowerOfTwo(buffer, shift);
    if (block != nullptr) {
      ws->scaled = *block;
      ScaleByPowerOfTwo(ws->scaled, shift);
      block = &ws->scaled;
    }
  }
  // G = B^T B (+ block^T block) is d-by-d: the buffer's part on the same
  // schedule as the spectral kernel's Gram route, then the block's rows.
  GramParallelInto(buffer, ws->gram);
  if (block != nullptr) GramAccumulate(*block, ws->gram);
  if (shift != 0) ZeroNegligibleGramEntries(ws->gram);
  return ShrinkColumnGram(m, sketch_size, shift, *ws, buffer);
}

double FdShrinkColumnGram(std::span<const double> upper, size_t dim,
                          size_t rows, int shift, size_t sketch_size,
                          Matrix& out) {
  telemetry::Span span("fd/shrink", telemetry::Phase::kShrink);
  span.SetAttr("l", static_cast<uint64_t>(sketch_size));
  span.SetAttr("rows", static_cast<uint64_t>(rows));
  telemetry::Count("fd.shrinks");
  SvdWorkspace& ws = ThreadShrinkWorkspace();
  UnpackSymmetric(upper, dim, ws.gram);
  // An even power of two brings the Gram's largest entry into [1, 4) when
  // it lies outside [1e-200, 1e200]; delta and the rows scale back
  // exactly through the shift. So the eigensolve neither overflows nor
  // runs on subnormals, for any finite Gram.
  const double gmax = MaxAbs(ws.gram);
  if (gmax > 0.0 && std::isfinite(gmax) && (gmax > 1e200 || gmax < 1e-200)) {
    const int half = std::ilogb(gmax) >> 1;  // floor(log2(gmax) / 2)
    ScaleByPowerOfTwo(ws.gram, -2 * half);
    shift -= half;
  }
  ZeroNegligibleGramEntries(ws.gram);
  return ShrinkColumnGram(rows, sketch_size, shift, ws, out);
}

bool FdBlockShrinkFires(size_t dim, size_t sketch_size, size_t buffer_rows,
                        size_t block_rows) {
  const size_t rows = buffer_rows + block_rows;
  const size_t full = 2 * sketch_size;
  if (rows < std::max(full, dim)) return false;
  // Shrinks the row-by-row path would run on this block: the first when
  // the buffer reaches 2l, then one per l further rows.
  const double k = static_cast<double>(1 + (rows - full) / sketch_size);
  const double d = static_cast<double>(dim);
  const double n = static_cast<double>(full);
  return d * d * d <= k * n * n * n;
}

bool TenantEpochUsesGram(size_t dim, size_t sketch_size, size_t epoch_rows) {
  return FdBlockShrinkFires(dim, sketch_size, 0, epoch_rows);
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
  return FrequentDirections(dim, FdSketchSize(eps, k));
}

StatusOr<FrequentDirections> FrequentDirections::FromEps(size_t dim,
                                                         double eps) {
  if (eps <= 0.0) {
    return Status::InvalidArgument("FromEps: eps must be positive");
  }
  return FrequentDirections(dim, FdSketchSize(eps, 0));
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

void FrequentDirections::AppendBlock(const Matrix& rows) {
  if (!FdBlockShrinkFires(dim_, sketch_size_, buffer_.rows(), rows.rows())) {
    AppendRows(rows);
    return;
  }
  DS_CHECK(rows.cols() == dim_);
  rows_seen_ += rows.rows();
  ShrinkWith(&rows);
}

void FrequentDirections::Merge(const FrequentDirections& other) {
  DS_CHECK(other.dim() == dim_);
  AppendRows(other.buffer());
}

void FrequentDirections::Shrink() {
  if (buffer_.rows() <= sketch_size_) return;
  ShrinkWith(nullptr);
}

void FrequentDirections::ShrinkWith(const Matrix* block) {
  const size_t rows =
      buffer_.rows() + (block == nullptr ? 0 : block->rows());
  telemetry::Span span("fd/shrink", telemetry::Phase::kShrink);
  span.SetAttr("l", static_cast<uint64_t>(sketch_size_));
  span.SetAttr("rows", static_cast<uint64_t>(rows));
  telemetry::Count("fd.shrinks");
  // A block always takes the column Gram (FdBlockShrinkFires priced it);
  // the buffer alone eigensolves the smaller of its two Grams.
  SvdWorkspace& ws = ThreadShrinkWorkspace();
  total_shrinkage_ +=
      (block == nullptr && FdUsesGramShrink(dim_, sketch_size_))
          ? FdGramShrink(buffer_, sketch_size_, &ws)
          : FdColumnShrink(buffer_, block, sketch_size_, &ws);
  ++shrink_count_;
}

Matrix FrequentDirections::Sketch() {
  Shrink();
  return buffer_;
}

}  // namespace distsketch
