#include "linalg/matrix.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace distsketch {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(0) {
  for (const auto& r : rows) {
    if (cols_ == 0) cols_ = r.size();
    DS_CHECK(r.size() == cols_);
    data_.insert(data_.end(), r.begin(), r.end());
  }
  if (rows_ == 0) cols_ = 0;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(std::span<const double> diag) {
  Matrix m(diag.size(), diag.size());
  for (size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
  return m;
}

void Matrix::AppendRow(std::span<const double> row) {
  if (empty() && rows_ == 0) {
    cols_ = row.size();
  }
  DS_CHECK(row.size() == cols_);
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

void Matrix::AppendRows(const Matrix& other) {
  if (other.rows() == 0) return;
  if (rows_ == 0 && RowCapacity() == 0) {
    *this = other;
    return;
  }
  DS_CHECK(other.cols() == cols_);
  // Exact reserve: one allocation instead of the geometric growth
  // overshoot when merging large row blocks.
  data_.reserve(data_.size() + other.data_.size());
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  rows_ += other.rows_;
}

Matrix Matrix::RowRange(size_t begin, size_t end) const {
  DS_CHECK(begin <= end && end <= rows_);
  Matrix out(end - begin, cols_);
  // An empty range may come from a matrix with no storage, and memcpy
  // must not be handed its null pointer even for zero bytes.
  if (out.size() == 0) return out;
  std::memcpy(out.data(), data_.data() + begin * cols_,
              (end - begin) * cols_ * sizeof(double));
  return out;
}

void Matrix::RemoveZeroRows(double tol) {
  size_t dst = 0;
  for (size_t i = 0; i < rows_; ++i) {
    double norm2 = 0.0;
    for (size_t j = 0; j < cols_; ++j) {
      const double v = data_[i * cols_ + j];
      norm2 += v * v;
    }
    if (std::sqrt(norm2) > tol) {
      if (dst != i) {
        std::memmove(data_.data() + dst * cols_, data_.data() + i * cols_,
                     cols_ * sizeof(double));
      }
      ++dst;
    }
  }
  rows_ = dst;
  data_.resize(rows_ * cols_);
}

void Matrix::SetZero(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

void Matrix::Scale(double c) {
  for (auto& v : data_) v *= c;
}

void Matrix::ScaleRow(size_t i, double c) {
  DS_CHECK(i < rows_);
  for (size_t j = 0; j < cols_; ++j) data_[i * cols_ + j] *= c;
}

std::string Matrix::ToString(int precision) const {
  std::string out;
  char buf[64];
  for (size_t i = 0; i < rows_; ++i) {
    out += "[";
    for (size_t j = 0; j < cols_; ++j) {
      std::snprintf(buf, sizeof(buf), "%.*g", precision, (*this)(i, j));
      out += buf;
      if (j + 1 < cols_) out += ", ";
    }
    out += "]\n";
  }
  return out;
}

}  // namespace distsketch
