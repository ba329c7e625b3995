#ifndef DISTSKETCH_SKETCH_COUNTSKETCH_H_
#define DISTSKETCH_SKETCH_COUNTSKETCH_H_

#include <cstdint>
#include <span>
#include <utility>

#include "common/status.h"
#include "linalg/matrix.h"

namespace distsketch {

/// The oversample the eps-sized CountSketch paths default to.
inline constexpr double kDefaultCountSketchOversample = 4.0;

/// Buckets for coverr <= eps * ||A||_F^2 with constant probability:
/// m = max(1, ceil(oversample / eps^2)). Callers validate eps and
/// oversample > 0.
size_t CountSketchBuckets(double eps, double oversample);

/// Complete logical state of a CountSketchCompressor: the seed (which
/// fixes the hash family) and the running compressed matrix. Absorb is a
/// pure hash-plus-add, so restore-and-continue is bit-identical to an
/// uninterrupted run. Frozen as format v1 (wire/sketch_serde.h,
/// DESIGN.md §11).
struct CountSketchState {
  uint64_t seed = 0;
  Matrix compressed;
};

/// Streaming CountSketch row compressor: C = S A, where S is the m-by-n
/// CountSketch matrix (one +-1 entry per column, position and sign
/// derived by hashing the global row index with a shared seed).
///
/// Two properties make this the right tool for the paper's concluding
/// open question (covariance sketch in the *arbitrary partition* model,
/// where A = sum_i A^(i) and local Grams do NOT add up):
///
///   1. linearity: S A = sum_i S A^(i), so per-server compressions can
///      simply be summed by the coordinator;
///   2. approximate matrix multiplication: with m = O(1/eps^2) buckets,
///      || (SA)^T (SA) - A^T A ||_F <= eps ||A||_F^2 with constant
///      probability, hence the same bound on the spectral covariance
///      error.
///
/// The compressor is deterministic given (seed, row index), so
/// independent servers sharing a seed build *consistent* compressions
/// with zero coordination beyond the seed word.
class CountSketchCompressor {
 public:
  /// `buckets` is m; `dim` is the row dimension d.
  CountSketchCompressor(size_t buckets, size_t dim, uint64_t seed);

  /// Sizes the compressor for coverr <= eps * ||A||_F^2 (constant
  /// probability): m = CountSketchBuckets(eps, oversample).
  static StatusOr<CountSketchCompressor> FromEps(
      size_t dim, double eps, uint64_t seed,
      double oversample = kDefaultCountSketchOversample);

  /// Rebuilds a compressor from captured state (checkpoint restore /
  /// compact form conversion). Adopts `state.compressed`'s storage
  /// without allocating, so a caller can run one buffer through
  /// FromState and TakeCompressed again and again.
  static StatusOr<CountSketchCompressor> FromState(CountSketchState state);

  /// Captures the full logical state (see CountSketchState).
  CountSketchState ExportState() const;

  /// Moves the compressed matrix out of a compressor that is done
  /// absorbing — ExportState without the m-by-d copy.
  Matrix TakeCompressed() && { return std::move(compressed_); }

  /// Absorbs one row with its *global* index (the index selects the
  /// bucket and sign, so all holders of additive shares of row i must
  /// pass the same index).
  void Absorb(uint64_t row_index, std::span<const double> row);

  /// Absorbs one sparse row given as parallel (column, value) spans —
  /// O(nnz) instead of O(d), through the scatter_axpy kernel. Touches
  /// exactly the entries Absorb would change by a non-zero amount, so it
  /// is bit-identical to absorbing the scattered dense row.
  void AbsorbSparse(uint64_t row_index, std::span<const size_t> cols,
                    std::span<const double> vals);

  /// The m-by-d compressed matrix so far.
  const Matrix& compressed() const { return compressed_; }

  size_t buckets() const { return compressed_.rows(); }
  size_t dim() const { return compressed_.cols(); }
  uint64_t seed() const { return seed_; }

  /// The bucket/sign assignment for a row index (exposed for tests).
  void Hash(uint64_t row_index, size_t* bucket, double* sign) const;

 private:
  // Adopts `compressed` as the running state (FromState validates it).
  CountSketchCompressor(uint64_t seed, Matrix compressed);

  uint64_t seed_;
  Matrix compressed_;
};

}  // namespace distsketch

#endif  // DISTSKETCH_SKETCH_COUNTSKETCH_H_
