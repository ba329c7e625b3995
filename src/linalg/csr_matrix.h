#ifndef DISTSKETCH_LINALG_CSR_MATRIX_H_
#define DISTSKETCH_LINALG_CSR_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

namespace distsketch {

/// One non-zero entry (row, col, value) for CSR construction.
struct Triplet {
  size_t row;
  size_t col;
  double value;
};

/// Compressed-sparse-row matrix.
///
/// The paper's fast-FD reference [15] targets O(nnz(A) k/eps) sketching
/// time; this class lets workloads stay sparse until they hit the (dense,
/// tiny) sketch buffer. Immutable after construction.
class CsrMatrix {
 public:
  /// Builds from triplets (duplicates are summed; entries with value 0
  /// are dropped). Triplet indices must be < rows/cols.
  static StatusOr<CsrMatrix> FromTriplets(size_t rows, size_t cols,
                                          std::vector<Triplet> triplets);

  /// Builds from a dense matrix, dropping entries with |v| <= tol.
  static CsrMatrix FromDense(const Matrix& dense, double tol = 0.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// Number of stored non-zeros.
  size_t nnz() const { return values_.size(); }

  /// Column indices of row i's non-zeros.
  std::span<const size_t> RowIndices(size_t i) const;
  /// Values of row i's non-zeros (parallel to RowIndices).
  std::span<const double> RowValues(size_t i) const;

  /// Densifies (tests / small matrices only).
  Matrix ToDense() const;

  /// y = A x.
  std::vector<double> MatVec(std::span<const double> x) const;
  /// y = A^T x.
  std::vector<double> MatTVec(std::span<const double> x) const;
  /// C = A * B (dense result).
  Matrix Multiply(const Matrix& b) const;
  /// C = A^T * B for dense B with rows() rows.
  Matrix MultiplyTransposeA(const Matrix& b) const;
  /// The Gram matrix A^T A (dense d-by-d).
  Matrix Gram() const;
  /// Workspace-reusing form of Gram: resizes `g` to d-by-d (reusing its
  /// storage) and writes A^T A into it, bit-identical to Gram().
  void GramInto(Matrix& g) const;

  /// Squared Euclidean norm of row i.
  double RowSquaredNorm(size_t i) const;
  /// ||A||_F^2.
  double SquaredFrobeniusNorm() const;

  /// Scatters row i into a dense buffer of length cols() (zero-filled
  /// first). Used to stream sparse rows into dense sketch buffers.
  void ScatterRow(size_t i, std::span<double> out) const;

 private:
  CsrMatrix(size_t rows, size_t cols) : rows_(rows), cols_(cols) {}

  size_t rows_;
  size_t cols_;
  std::vector<size_t> row_ptr_;  // rows()+1 offsets
  std::vector<size_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace distsketch

#endif  // DISTSKETCH_LINALG_CSR_MATRIX_H_
