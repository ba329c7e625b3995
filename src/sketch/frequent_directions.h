#ifndef DISTSKETCH_SKETCH_FREQUENT_DIRECTIONS_H_
#define DISTSKETCH_SKETCH_FREQUENT_DIRECTIONS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/status.h"
#include "linalg/matrix.h"
#include "linalg/spectral_kernel.h"

namespace distsketch {

/// Sketch rows l for Theorem 1's guarantee: k + ceil(k/eps) for k >= 1
/// (covariance error at most eps * ||A - [A]_k||_F^2 / k), ceil(1/eps) + 1
/// for k == 0 (at most eps * ||A||_F^2). Requires eps > 0. The one
/// sizing rule behind FromEps/FromEpsK, fd_merge's uplink and the
/// auto-configurer's pricing.
size_t FdSketchSize(double eps, size_t k);

/// True iff FD routes a dim-`dim` sketch of size `sketch_size` through
/// the row-Gram shrink (FdGramShrink): exactly when d > 2 * sketch_size.
///
/// Either way the shrink eigensolves the smaller Gram of its buffer B
/// (at most 2l rows by d). For d > 2l that is the 2l-by-2l row Gram
/// G = B B^T, whose eigenpairs give sigma_j = sqrt(lambda_j) and the
/// scaled right singular rows u_j^T B; otherwise it is the d-by-d column
/// Gram via FdColumnShrink. Both leave B^T B unchanged up to the same
/// delta-subtraction, so the FD guarantee is identical (see DESIGN.md).
bool FdUsesGramShrink(size_t dim, size_t sketch_size);

/// In-place Gram-path shrink: reduces `buffer` (more than `sketch_size`
/// rows) to at most `sketch_size` rows of sqrt(Sigma^2 - delta I) V^T and
/// returns the subtracted delta = sigma_{sketch_size+1}^2. Deterministic.
/// `ws` (optional) keeps the row-Gram, eigensolver and output scratch
/// alive across repeated shrinks: with it, a steady-state shrink makes no
/// heap allocation. A buffer whose row Gram would leave [1e-200, 1e200]
/// is first scaled by a power of two; delta and the kept rows are scaled
/// back exactly, and in-range buffers are untouched.
double FdGramShrink(Matrix& buffer, size_t sketch_size,
                    SvdWorkspace* ws = nullptr);

/// In-place column-Gram shrink, the path for d <= 2l and for block
/// shrinks: eigensolves the d-by-d Gram of `buffer`'s rows followed by
/// `block`'s rows (`block` may be null; it is read, never copied), writes
/// the at most `sketch_size` rows sqrt(sigma_j^2 - delta) v_j^T back into
/// `buffer`'s own storage, and returns delta = sigma_{sketch_size+1}^2
/// (0 when the stacked rows have rank <= sketch_size). `buffer` has d
/// columns (it may have no rows). Deterministic. With a reused `ws` a
/// steady-state shrink makes no heap allocation.
/// Stacked rows whose max|a_ij| leaves [1e-100, 1e100] are first scaled by
/// the power of two that brings it into [1, 2); delta and the kept rows
/// are scaled back exactly, and in-range rows are untouched.
double FdColumnShrink(Matrix& buffer, const Matrix* block, size_t sketch_size,
                      SvdWorkspace* ws = nullptr);

/// One FD shrink of `rows` stacked rows known only through their column
/// Gram, the form a Gram-rule tenant epoch keeps (TenantEpochUsesGram).
/// `upper` is the dim(dim + 1)/2-entry upper triangle, row by row, of the
/// d-by-d sum of (2^shift a)(2^shift a)^T over the rows. Writes the at
/// most `sketch_size` rows sqrt(sigma_j^2 - delta) v_j^T into `out` and
/// returns delta = sigma_{sketch_size+1}^2 (0 when min(rows, dim) <=
/// sketch_size), both scaled back by 2^-shift: the same sigma/delta/keep
/// step as FdColumnShrink, so FdColumnShrink of the rows themselves gives
/// the same result up to the Gram's summation order. Any finite Gram is
/// first brought into range by an even power of two, and entries below
/// 2^-200 of its largest diagonal are zeroed. Runs on this thread's FD
/// shrink workspace and reports like FrequentDirections' own shrinks: one
/// fd/shrink span and one fd.shrinks count.
double FdShrinkColumnGram(std::span<const double> upper, size_t dim,
                          size_t rows, int shift, size_t sketch_size,
                          Matrix& out);

/// True iff FrequentDirections::AppendBlock shrinks a buffer of
/// `buffer_rows` rows plus a block of `block_rows` rows once, through the
/// d-by-d column Gram, instead of streaming the block row by row. It fires
/// iff the stacked rows reach max(2l, d) and a d-by-d eigensolve costs no
/// more than the k (2l)-by-(2l) ones the row-by-row path would run,
/// d^3 <= k (2l)^3 with k = 1 + floor((b + m - 2l) / l). So it always
/// fires for d <= 2l once b + m >= 2l, and declines when d >> l.
bool FdBlockShrinkFires(size_t dim, size_t sketch_size, size_t buffer_rows,
                        size_t block_rows);

/// True iff a service tenant of dimension `dim`, sketch size `sketch_size`
/// and `epoch_rows` rows per epoch keeps its open epoch as the d-by-d
/// column Gram of the epoch's rows, shrunk once (FdShrinkColumnGram) when
/// the epoch is sealed or queried, rather than as an FD sketch. Such an
/// epoch is one column-Gram shrink of a whole epoch of rows, so the rule is
/// AppendBlock's for a block of epoch_rows rows:
/// FdBlockShrinkFires(dim, sketch_size, 0, epoch_rows). Where it holds the
/// Gram has no more entries than the epoch's rows (d <= epoch_rows), and
/// its d-by-d eigensolve costs no more than the row-by-row shrinks it
/// replaces, which also bounds the extra solve a query pays (DESIGN.md §13,
/// EXPERIMENTS.md E18).
bool TenantEpochUsesGram(size_t dim, size_t sketch_size, size_t epoch_rows);

/// Complete logical state of a FrequentDirections sketch. Capturing this
/// state, restoring it, and continuing the stream is bit-identical to an
/// uninterrupted run: the buffer holds every number the sketch depends
/// on, and the counters resume cost accounting where it stopped. The wire
/// form of this struct is frozen as format v1 (wire/sketch_serde.h,
/// DESIGN.md §11).
struct FdSketchState {
  size_t dim = 0;
  size_t sketch_size = 0;
  /// The working buffer B (up to 2*sketch_size rows by dim columns).
  Matrix buffer;
  double total_shrinkage = 0.0;
  uint64_t shrink_count = 0;
  uint64_t rows_seen = 0;
};

/// Frequent Directions streaming covariance sketch (Liberty [27], with the
/// improved analysis of Ghashami-Phillips [16]; paper Theorem 1).
///
/// Maintains at most `2*sketch_size` rows of working space; the finished
/// sketch has at most `sketch_size` rows and guarantees, for every
/// k < sketch_size,
///
///   ||A^T A - B^T B||_2 <= ||A - [A]_k||_F^2 / (sketch_size - k).
///
/// The shrink step subtracts the (sketch_size+1)-th squared singular value
/// from the spectrum of the buffer ("buffer doubling" variant), which
/// keeps total cost O(n * d * sketch_size) amortized.
///
/// FD is deterministic and mergeable [1]: feeding another FD's sketch rows
/// into this sketch preserves the guarantee for the combined input, which
/// is exactly how the distributed deterministic protocol (Theorem 2) uses
/// it.
class FrequentDirections {
 public:
  /// Creates a sketch over dimension-`dim` rows keeping `sketch_size`
  /// rows. Requires sketch_size >= 1.
  FrequentDirections(size_t dim, size_t sketch_size);

  /// Sizes the sketch for the (eps, k) guarantee of Theorem 1:
  /// sketch_size = k + ceil(k/eps), giving covariance error at most
  /// eps * ||A - [A]_k||_F^2 / k. Requires k >= 1 and eps > 0.
  static StatusOr<FrequentDirections> FromEpsK(size_t dim, double eps,
                                               size_t k);

  /// Sizes the sketch for the (eps, 0) guarantee: sketch_size =
  /// ceil(1/eps) + 1, giving covariance error at most eps * ||A||_F^2.
  static StatusOr<FrequentDirections> FromEps(size_t dim, double eps);

  /// Rebuilds a sketch from captured state (checkpoint restore / compact
  /// form conversion). Validates the shape invariants: buffer column
  /// count equals dim, buffer rows <= 2 * sketch_size.
  static StatusOr<FrequentDirections> FromState(FdSketchState state);

  /// Captures the full logical state (see FdSketchState). Shrink scratch
  /// is not state: it lives in one workspace per thread, shared by every
  /// sketch that shrinks on that thread.
  FdSketchState ExportState() const;

  /// Processes one input row.
  void Append(std::span<const double> row);

  /// Processes every row of `rows`. The sketch is a pure function of the
  /// row sequence: any split into AppendRows calls gives the same bits.
  void AppendRows(const Matrix& rows);

  /// Processes `rows` as one block. When FdBlockShrinkFires says so, the
  /// buffer and the whole block take a single column-Gram shrink (one
  /// shrink in shrink_count(), total_shrinkage() and the fd/shrink span),
  /// leaving at most sketch_size rows; otherwise this is AppendRows. The
  /// sketch is a pure function of the rows *and the block boundaries*, and
  /// keeps Theorem 1's guarantee and the total_shrinkage() certificate:
  /// any shrink removes at least (sketch_size + 1) * delta of mass.
  void AppendBlock(const Matrix& rows);

  /// Merges another FD sketch (mergeable-summaries property [1]): the
  /// other sketch's current rows are fed through this sketch. Both must
  /// share `dim`; the other's sketch_size may differ (the combined
  /// guarantee is governed by the smaller one).
  void Merge(const FrequentDirections& other);

  /// Finishes and returns the sketch matrix B with at most sketch_size
  /// rows. The sketch remains usable (more rows may be appended after).
  Matrix Sketch();

  /// The raw working buffer (up to 2*sketch_size rows), without the final
  /// compression. Cheap; used by Merge and by tests.
  const Matrix& buffer() const { return buffer_; }

  /// Row dimension d.
  size_t dim() const { return dim_; }

  /// Maximum number of rows in the finished sketch.
  size_t sketch_size() const { return sketch_size_; }

  /// Total spectral mass subtracted by shrink steps so far. The FD
  /// invariant guarantees coverr <= total_shrinkage() and
  /// sketch_size * total_shrinkage() <= ||A||_F^2 - ||B||_F^2.
  double total_shrinkage() const { return total_shrinkage_; }

  /// Number of SVD-based shrink operations performed (cost diagnostic).
  uint64_t shrink_count() const { return shrink_count_; }

  /// Total rows appended (including rows fed by Merge).
  uint64_t rows_seen() const { return rows_seen_; }

 private:
  // Shrinks the buffer to at most sketch_size_ non-trivial rows.
  void Shrink();

  // One shrink of the buffer stacked over `block` (null: the buffer alone).
  void ShrinkWith(const Matrix* block);

  size_t dim_;
  size_t sketch_size_;
  Matrix buffer_;
  double total_shrinkage_ = 0.0;
  uint64_t shrink_count_ = 0;
  uint64_t rows_seen_ = 0;
};

}  // namespace distsketch

#endif  // DISTSKETCH_SKETCH_FREQUENT_DIRECTIONS_H_
