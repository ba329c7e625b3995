#ifndef DISTSKETCH_LINALG_BLAS_H_
#define DISTSKETCH_LINALG_BLAS_H_

#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace distsketch {

// BLAS-level kernels used by the factorizations and sketches. Shapes are
// DS_CHECK-ed; these are infallible given valid shapes, so they return
// values rather than Status.

/// Dot product of two equal-length vectors.
double Dot(std::span<const double> x, std::span<const double> y);

/// Euclidean norm of a vector.
double Norm2(std::span<const double> x);

/// Squared Euclidean norm of a vector.
double SquaredNorm2(std::span<const double> x);

/// y += a * x (equal lengths).
void Axpy(double a, std::span<const double> x, std::span<double> y);

/// x *= a.
void ScaleVector(double a, std::span<double> x);

/// C = A * B.
Matrix Multiply(const Matrix& a, const Matrix& b);

/// C = A^T * B.
Matrix MultiplyTransposeA(const Matrix& a, const Matrix& b);

/// Workspace-reusing form of MultiplyTransposeA: resizes `c` (reusing its
/// storage) and writes A^T * B into it, bit-identical to the above.
void MultiplyTransposeAInto(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A * B^T.
Matrix MultiplyTransposeB(const Matrix& a, const Matrix& b);

/// The Gram matrix A^T A (symmetric d-by-d; computed via SYRK so only the
/// upper triangle is evaluated then mirrored).
Matrix Gram(const Matrix& a);

/// A^T A accumulated as partial Grams over fixed 256-row chunks that run
/// on the global thread pool and are reduced serially in chunk order.
/// The chunk grid depends only on the shape, so the result is
/// bit-identical for every thread count (it differs from `Gram` by the
/// usual reassociation rounding). Falls back to the serial schedule when
/// called from inside a ParallelFor body (the pool is not reentrant).
Matrix GramParallel(const Matrix& a);

/// Workspace-reusing form of GramParallel: resizes `g` to d-by-d
/// (reusing its storage) and writes A^T A into it.
void GramParallelInto(const Matrix& a, Matrix& g);

/// Accumulating column Gram: g += A^T A, with g a symmetric a.cols()-by-
/// a.cols() matrix on entry. One serial pass over A's rows in order (the
/// gram kernel on the upper triangle, then mirrored), so a caller can form
/// the Gram of stacked row blocks without concatenating them.
void GramAccumulate(const Matrix& a, Matrix& g);

/// Resizes `g` to n-by-n (reusing its storage) and fills both triangles
/// from `upper`, the n(n+1)/2-entry upper triangle of a symmetric matrix
/// packed row by row.
void UnpackSymmetric(std::span<const double> upper, size_t n, Matrix& g);

/// Packs the upper triangle of the square `g`, row by row, into `upper`
/// (g.rows()(g.rows() + 1)/2 entries): the inverse of UnpackSymmetric.
void PackUpperTriangle(const Matrix& g, std::span<double> upper);

/// SYRK-style accumulating row Gram: C += alpha * A * A^T, with C an
/// a.rows()-by-a.rows() matrix that must be symmetric on entry (only the
/// upper triangle is computed; the lower triangle is mirrored). This is
/// the kernel behind the Gram-based FD shrink, where the l'-by-l' buffer
/// Gram replaces a d-column SVD.
void GramUpdate(const Matrix& a, Matrix& c, double alpha = 1.0);

/// The row Gram matrix A A^T (symmetric a.rows()-by-a.rows()).
Matrix RowGram(const Matrix& a);

/// Workspace-reusing form of RowGram: resizes `c` (reusing its storage)
/// and writes A A^T into it.
void RowGramInto(const Matrix& a, Matrix& c);

/// y = A * x.
std::vector<double> MatVec(const Matrix& a, std::span<const double> x);

/// y = A^T * x.
std::vector<double> MatTVec(const Matrix& a, std::span<const double> x);

/// A^T (out-of-place).
Matrix Transpose(const Matrix& a);

/// C = A + B.
Matrix Add(const Matrix& a, const Matrix& b);

/// C = A - B.
Matrix Subtract(const Matrix& a, const Matrix& b);

/// Frobenius norm of A.
double FrobeniusNorm(const Matrix& a);

/// Squared Frobenius norm of A.
double SquaredFrobeniusNorm(const Matrix& a);

/// Max absolute entry of A (0 for the empty matrix; NaN entries ignored).
double MaxAbs(const Matrix& a);

/// MaxAbs(a), bit for bit, from the same single vectorized pass that
/// checks the entries: *finite is false iff A holds a NaN or an infinity.
double MaxAbs(const Matrix& a, bool* finite);

/// A *= 2^shift entry by entry: exact unless an entry leaves the double
/// range, and shift may exceed what 2^shift itself can represent.
void ScaleByPowerOfTwo(Matrix& a, int shift);

/// [A; B] — rows of A followed by rows of B. Either side may be empty.
Matrix ConcatRows(const Matrix& a, const Matrix& b);

/// Concatenates the rows of every matrix in `parts` in order, into one
/// allocation of the total size. Parts with rows must share a column
/// count; when every part is empty the result is 0 x (the first part's
/// columns).
Matrix ConcatRows(std::span<const Matrix* const> parts);
Matrix ConcatRows(std::span<const Matrix> parts);

/// True iff A and B have the same shape and max |a_ij - b_ij| <= tol.
bool AlmostEqual(const Matrix& a, const Matrix& b, double tol);

/// True iff A's columns are orthonormal: max |A^T A - I| <= tol.
bool HasOrthonormalColumns(const Matrix& a, double tol);

}  // namespace distsketch

#endif  // DISTSKETCH_LINALG_BLAS_H_
