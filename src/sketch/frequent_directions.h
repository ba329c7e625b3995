#ifndef DISTSKETCH_SKETCH_FREQUENT_DIRECTIONS_H_
#define DISTSKETCH_SKETCH_FREQUENT_DIRECTIONS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/status.h"
#include "linalg/matrix.h"
#include "linalg/spectral_kernel.h"

namespace distsketch {

/// True iff FD routes a dim-`dim` sketch of size `sketch_size` through
/// the row-Gram shrink (FdGramShrink): exactly when d > 2 * sketch_size.
///
/// Either way the shrink eigensolves the smaller Gram of its buffer B
/// (at most 2l rows by d). For d > 2l that is the 2l-by-2l row Gram
/// G = B B^T, whose eigenpairs give sigma_j = sqrt(lambda_j) and the
/// scaled right singular rows u_j^T B; otherwise it is the d-by-d column
/// Gram via ComputeSigmaVt. Both leave B^T B unchanged up to the same
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

  /// Captures the full logical state (see FdSketchState). Scratch space
  /// (the spectral-kernel workspace) is not state and is rebuilt lazily.
  FdSketchState ExportState() const;

  /// Processes one input row.
  void Append(std::span<const double> row);

  /// Processes every row of `rows`.
  void AppendRows(const Matrix& rows);

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

  size_t dim_;
  size_t sketch_size_;
  Matrix buffer_;
  // Spectral-kernel scratch reused across every shrink of this sketch
  // (both the row-Gram path and the column-dimension kernel path).
  SvdWorkspace svd_ws_;
  double total_shrinkage_ = 0.0;
  uint64_t shrink_count_ = 0;
  uint64_t rows_seen_ = 0;
};

}  // namespace distsketch

#endif  // DISTSKETCH_SKETCH_FREQUENT_DIRECTIONS_H_
