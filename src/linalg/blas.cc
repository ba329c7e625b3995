#include "linalg/blas.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/thread_pool.h"
#include "linalg/simd_dispatch.h"

namespace distsketch {

double Dot(std::span<const double> x, std::span<const double> y) {
  DS_CHECK(x.size() == y.size());
  return ActiveSimd().dot(x.data(), y.data(), x.size());
}

double Norm2(std::span<const double> x) { return std::sqrt(SquaredNorm2(x)); }

double SquaredNorm2(std::span<const double> x) {
  double acc = 0.0;
  for (const double v : x) acc += v * v;
  return acc;
}

void Axpy(double a, std::span<const double> x, std::span<double> y) {
  DS_CHECK(x.size() == y.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] += a * x[i];
}

void ScaleVector(double a, std::span<double> x) {
  for (double& v : x) v *= a;
}

Matrix Multiply(const Matrix& a, const Matrix& b) {
  DS_CHECK(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  // k-blocked i-k-j order with a 4-way k-unrolled inner kernel; the
  // blocking and schedule live in the per-backend table (scalar entry is
  // the historical loop verbatim).
  const SimdKernelTable& kern = ActiveSimd();
  CountSimdKernelCall("gemm_nn");
  kern.gemm_nn(a.data(), a.rows(), a.cols(), b.data(), b.cols(), c.data());
  return c;
}

Matrix MultiplyTransposeA(const Matrix& a, const Matrix& b) {
  Matrix c;
  MultiplyTransposeAInto(a, b, c);
  return c;
}

void MultiplyTransposeAInto(const Matrix& a, const Matrix& b, Matrix& c) {
  DS_CHECK(a.rows() == b.rows());
  c.SetZero(a.cols(), b.cols());
  const SimdKernelTable& kern = ActiveSimd();
  CountSimdKernelCall("gemm_tn");
  kern.gemm_tn(a.data(), a.rows(), a.cols(), b.data(), b.cols(), c.data());
}

Matrix MultiplyTransposeB(const Matrix& a, const Matrix& b) {
  DS_CHECK(a.cols() == b.cols());
  Matrix c(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      c(i, j) = Dot(a.Row(i), b.Row(j));
    }
  }
  return c;
}

namespace {

void MirrorUpperTriangle(Matrix& g) {
  for (size_t i = 0; i < g.rows(); ++i) {
    for (size_t j = i + 1; j < g.cols(); ++j) g(j, i) = g(i, j);
  }
}

// Rows per partial Gram in the chunked accumulation. Fixed (never derived
// from the thread count) so the summation tree — and therefore every bit
// of the result — is identical at any pool size.
constexpr size_t kGramChunkRows = 256;

}  // namespace

Matrix Gram(const Matrix& a) {
  Matrix g(a.cols(), a.cols());
  const SimdKernelTable& kern = ActiveSimd();
  CountSimdKernelCall("gram");
  kern.gram_acc(a.data(), 0, a.rows(), a.cols(), g.data());
  MirrorUpperTriangle(g);
  return g;
}

void GramParallelInto(const Matrix& a, Matrix& g) {
  const size_t d = a.cols();
  const size_t chunks = (a.rows() + kGramChunkRows - 1) / kGramChunkRows;
  g.SetZero(d, d);
  // One table for the whole call: every chunk runs the same backend even
  // if a test swaps the active backend concurrently.
  const SimdKernelTable& kern = ActiveSimd();
  CountSimdKernelCall("gram");
  if (chunks <= 1) {
    kern.gram_acc(a.data(), 0, a.rows(), d, g.data());
    MirrorUpperTriangle(g);
    return;
  }
  // Partial Grams over fixed row chunks, reduced serially in chunk order.
  // The chunk grid depends only on a.rows(), so both the per-chunk sums
  // and the reduction order are the same whether 1 or N threads ran the
  // chunks — the parallel result is bit-identical to the 1-thread result.
  std::vector<Matrix> partials(chunks);
  auto run_chunk = [&](size_t c) {
    const size_t begin = c * kGramChunkRows;
    const size_t end = std::min(a.rows(), begin + kGramChunkRows);
    partials[c].SetZero(d, d);
    kern.gram_acc(a.data(), begin, end, d, partials[c].data());
  };
  ThreadPool& pool = ThreadPool::Global();
  if (pool.num_threads() > 1 && !ThreadPool::InParallelRegion()) {
    pool.ParallelFor(chunks, run_chunk);
  } else {
    for (size_t c = 0; c < chunks; ++c) run_chunk(c);
  }
  for (size_t c = 0; c < chunks; ++c) {
    const Matrix& p = partials[c];
    for (size_t i = 0; i < g.size(); ++i) g.data()[i] += p.data()[i];
  }
  MirrorUpperTriangle(g);
}

Matrix GramParallel(const Matrix& a) {
  Matrix g;
  GramParallelInto(a, g);
  return g;
}

void GramAccumulate(const Matrix& a, Matrix& g) {
  DS_CHECK(g.rows() == a.cols() && g.cols() == a.cols());
  const SimdKernelTable& kern = ActiveSimd();
  CountSimdKernelCall("gram");
  kern.gram_acc(a.data(), 0, a.rows(), a.cols(), g.data());
  MirrorUpperTriangle(g);
}

void UnpackSymmetric(std::span<const double> upper, size_t n, Matrix& g) {
  DS_CHECK(upper.size() == n * (n + 1) / 2);
  g.SetZero(n, n);
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j, ++k) {
      g(i, j) = upper[k];
      g(j, i) = upper[k];
    }
  }
}

void PackUpperTriangle(const Matrix& g, std::span<double> upper) {
  const size_t n = g.rows();
  DS_CHECK(g.cols() == n && upper.size() == n * (n + 1) / 2);
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) upper[k++] = g(i, j);
  }
}

void GramUpdate(const Matrix& a, Matrix& c, double alpha) {
  DS_CHECK(c.rows() == a.rows() && c.cols() == a.rows());
  const size_t m = a.rows();
  // 2x2 register-tiled SYRK over the upper triangle (plus the diagonal
  // tile's lower mirror); schedule lives in the per-backend table.
  const SimdKernelTable& kern = ActiveSimd();
  CountSimdKernelCall("syrk");
  kern.syrk_acc(a.data(), m, a.cols(), alpha, c.data());
  // Mirror the strict lower triangle from the upper (C symmetric on
  // entry, so the mirrored values are the updated ones).
  for (size_t r = 0; r < m; ++r) {
    for (size_t q = r + 1; q < m; ++q) c(q, r) = c(r, q);
  }
}

Matrix RowGram(const Matrix& a) {
  Matrix c(a.rows(), a.rows());
  GramUpdate(a, c);
  return c;
}

void RowGramInto(const Matrix& a, Matrix& c) {
  c.SetZero(a.rows(), a.rows());
  GramUpdate(a, c);
}

std::vector<double> MatVec(const Matrix& a, std::span<const double> x) {
  DS_CHECK(a.cols() == x.size());
  std::vector<double> y(a.rows(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) y[i] = Dot(a.Row(i), x);
  return y;
}

std::vector<double> MatTVec(const Matrix& a, std::span<const double> x) {
  DS_CHECK(a.rows() == x.size());
  std::vector<double> y(a.cols(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    Axpy(x[i], a.Row(i), y);
  }
  return y;
}

Matrix Transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  DS_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c = a;
  for (size_t i = 0; i < c.size(); ++i) c.data()[i] += b.data()[i];
  return c;
}

Matrix Subtract(const Matrix& a, const Matrix& b) {
  DS_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c = a;
  for (size_t i = 0; i < c.size(); ++i) c.data()[i] -= b.data()[i];
  return c;
}

double FrobeniusNorm(const Matrix& a) {
  return std::sqrt(SquaredFrobeniusNorm(a));
}

double SquaredFrobeniusNorm(const Matrix& a) {
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a.data()[i] * a.data()[i];
  return acc;
}

double MaxAbs(const Matrix& a) {
  bool finite = true;
  return MaxAbs(a, &finite);
}

double MaxAbs(const Matrix& a, bool* finite) {
  CountSimdKernelCall("max_abs");
  return ActiveSimd().max_abs(a.data(), a.size(), finite);
}

void ScaleByPowerOfTwo(Matrix& a, int shift) {
  for (size_t k = 0; k < a.size(); ++k) {
    a.data()[k] = std::ldexp(a.data()[k], shift);
  }
}

Matrix ConcatRows(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out.AppendRows(b);
  return out;
}

Matrix ConcatRows(std::span<const Matrix* const> parts) {
  // The shape comes from the first part with rows, or from the first
  // part when every part is empty (a 0-by-d result).
  const Matrix* shape = parts.empty() ? nullptr : parts.front();
  size_t rows = 0;
  for (const Matrix* p : parts) {
    if (rows == 0 && p->rows() > 0) shape = p;
    rows += p->rows();
  }
  Matrix out;
  if (shape == nullptr) return out;
  out.SetZero(0, shape->cols());
  out.Reserve(rows);
  for (const Matrix* p : parts) out.AppendRows(*p);
  return out;
}

Matrix ConcatRows(std::span<const Matrix> parts) {
  std::vector<const Matrix*> views;
  views.reserve(parts.size());
  for (const Matrix& p : parts) views.push_back(&p);
  return ConcatRows(views);
}

bool AlmostEqual(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a.data()[i] - b.data()[i]) > tol) return false;
  }
  return true;
}

bool HasOrthonormalColumns(const Matrix& a, double tol) {
  const Matrix g = Gram(a);
  const Matrix eye = Matrix::Identity(a.cols());
  return AlmostEqual(g, eye, tol);
}

}  // namespace distsketch
