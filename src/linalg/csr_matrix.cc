#include "linalg/csr_matrix.h"

#include <algorithm>
#include <cmath>

#include "linalg/simd_dispatch.h"

namespace distsketch {

StatusOr<CsrMatrix> CsrMatrix::FromTriplets(size_t rows, size_t cols,
                                            std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    if (t.row >= rows || t.col >= cols) {
      return Status::OutOfRange("CsrMatrix::FromTriplets: index out of range");
    }
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  CsrMatrix m(rows, cols);
  m.row_ptr_.assign(rows + 1, 0);
  for (size_t i = 0; i < triplets.size();) {
    size_t j = i;
    double sum = 0.0;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    if (sum != 0.0) {
      m.col_idx_.push_back(triplets[i].col);
      m.values_.push_back(sum);
      ++m.row_ptr_[triplets[i].row + 1];
    }
    i = j;
  }
  for (size_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

CsrMatrix CsrMatrix::FromDense(const Matrix& dense, double tol) {
  CsrMatrix m(dense.rows(), dense.cols());
  m.row_ptr_.assign(dense.rows() + 1, 0);
  for (size_t i = 0; i < dense.rows(); ++i) {
    for (size_t j = 0; j < dense.cols(); ++j) {
      const double v = dense(i, j);
      if (std::abs(v) > tol) {
        m.col_idx_.push_back(j);
        m.values_.push_back(v);
      }
    }
    m.row_ptr_[i + 1] = m.col_idx_.size();
  }
  return m;
}

std::span<const size_t> CsrMatrix::RowIndices(size_t i) const {
  DS_CHECK(i < rows_);
  return {col_idx_.data() + row_ptr_[i], row_ptr_[i + 1] - row_ptr_[i]};
}

std::span<const double> CsrMatrix::RowValues(size_t i) const {
  DS_CHECK(i < rows_);
  return {values_.data() + row_ptr_[i], row_ptr_[i + 1] - row_ptr_[i]};
}

Matrix CsrMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (size_t i = 0; i < rows_; ++i) {
    const auto idx = RowIndices(i);
    const auto val = RowValues(i);
    for (size_t k = 0; k < idx.size(); ++k) out(i, idx[k]) = val[k];
  }
  return out;
}

std::vector<double> CsrMatrix::MatVec(std::span<const double> x) const {
  DS_CHECK(x.size() == cols_);
  std::vector<double> y(rows_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    const auto idx = RowIndices(i);
    const auto val = RowValues(i);
    double acc = 0.0;
    for (size_t k = 0; k < idx.size(); ++k) acc += val[k] * x[idx[k]];
    y[i] = acc;
  }
  return y;
}

std::vector<double> CsrMatrix::MatTVec(std::span<const double> x) const {
  DS_CHECK(x.size() == rows_);
  const SimdKernelTable& kern = ActiveSimd();
  CountSimdKernelCall("scatter_axpy");
  std::vector<double> y(cols_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    const auto idx = RowIndices(i);
    const auto val = RowValues(i);
    kern.scatter_axpy(y.data(), idx.data(), val.data(), xi, idx.size());
  }
  return y;
}

Matrix CsrMatrix::Multiply(const Matrix& b) const {
  DS_CHECK(b.rows() == cols_);
  const SimdKernelTable& kern = ActiveSimd();
  CountSimdKernelCall("axpy");
  Matrix c(rows_, b.cols());
  for (size_t i = 0; i < rows_; ++i) {
    const auto idx = RowIndices(i);
    const auto val = RowValues(i);
    double* ci = c.data() + i * c.cols();
    for (size_t k = 0; k < idx.size(); ++k) {
      kern.axpy(ci, b.data() + idx[k] * b.cols(), val[k], b.cols());
    }
  }
  return c;
}

Matrix CsrMatrix::MultiplyTransposeA(const Matrix& b) const {
  DS_CHECK(b.rows() == rows_);
  const SimdKernelTable& kern = ActiveSimd();
  CountSimdKernelCall("axpy");
  Matrix c(cols_, b.cols());
  for (size_t i = 0; i < rows_; ++i) {
    const auto idx = RowIndices(i);
    const auto val = RowValues(i);
    const double* brow = b.data() + i * b.cols();
    for (size_t k = 0; k < idx.size(); ++k) {
      kern.axpy(c.data() + idx[k] * c.cols(), brow, val[k], b.cols());
    }
  }
  return c;
}

Matrix CsrMatrix::Gram() const {
  Matrix g;
  GramInto(g);
  return g;
}

void CsrMatrix::GramInto(Matrix& g) const {
  // Upper-triangle accumulation (CSR column indices are strictly
  // increasing per row) mirrored once at the end: same products in the
  // same row order as the historical both-triangles loop, so the result
  // is unchanged at half the flops.
  const SimdKernelTable& kern = ActiveSimd();
  CountSimdKernelCall("sparse_outer_acc");
  g.SetZero(cols_, cols_);
  for (size_t i = 0; i < rows_; ++i) {
    const auto idx = RowIndices(i);
    const auto val = RowValues(i);
    kern.sparse_outer_acc(idx.data(), val.data(), idx.size(), cols_,
                          g.data());
  }
  for (size_t i = 0; i < cols_; ++i) {
    for (size_t j = i + 1; j < cols_; ++j) g(j, i) = g(i, j);
  }
}

double CsrMatrix::RowSquaredNorm(size_t i) const {
  const auto val = RowValues(i);
  double acc = 0.0;
  for (const double v : val) acc += v * v;
  return acc;
}

double CsrMatrix::SquaredFrobeniusNorm() const {
  double acc = 0.0;
  for (const double v : values_) acc += v * v;
  return acc;
}

void CsrMatrix::ScatterRow(size_t i, std::span<double> out) const {
  DS_CHECK(out.size() == cols_);
  std::fill(out.begin(), out.end(), 0.0);
  const auto idx = RowIndices(i);
  const auto val = RowValues(i);
  for (size_t k = 0; k < idx.size(); ++k) out[idx[k]] = val[k];
}

}  // namespace distsketch
