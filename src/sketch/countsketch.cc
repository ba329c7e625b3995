#include "sketch/countsketch.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/simd_dispatch.h"

namespace distsketch {
namespace {

inline uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

size_t CountSketchBuckets(double eps, double oversample) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::ceil(oversample / (eps * eps))));
}

CountSketchCompressor::CountSketchCompressor(size_t buckets, size_t dim,
                                             uint64_t seed)
    : seed_(seed) {
  DS_CHECK(buckets >= 1);
  DS_CHECK(dim >= 1);
  compressed_.SetZero(buckets, dim);
}

CountSketchCompressor::CountSketchCompressor(uint64_t seed, Matrix compressed)
    : seed_(seed), compressed_(std::move(compressed)) {}

StatusOr<CountSketchCompressor> CountSketchCompressor::FromEps(
    size_t dim, double eps, uint64_t seed, double oversample) {
  if (eps <= 0.0 || oversample <= 0.0) {
    return Status::InvalidArgument(
        "CountSketchCompressor: eps and oversample must be > 0");
  }
  return CountSketchCompressor(CountSketchBuckets(eps, oversample), dim,
                               seed);
}

StatusOr<CountSketchCompressor> CountSketchCompressor::FromState(
    CountSketchState state) {
  if (state.compressed.rows() < 1 || state.compressed.cols() < 1) {
    return Status::InvalidArgument(
        "CountSketchCompressor::FromState: compressed matrix must be "
        "non-empty");
  }
  return CountSketchCompressor(state.seed, std::move(state.compressed));
}

CountSketchState CountSketchCompressor::ExportState() const {
  CountSketchState state;
  state.seed = seed_;
  state.compressed = compressed_;
  return state;
}

void CountSketchCompressor::Hash(uint64_t row_index, size_t* bucket,
                                 double* sign) const {
  const uint64_t h = Mix(seed_ ^ (row_index + 0x9e3779b97f4a7c15ULL));
  *bucket = static_cast<size_t>(h % compressed_.rows());
  *sign = ((h >> 63) & 1) ? 1.0 : -1.0;
}

void CountSketchCompressor::Absorb(uint64_t row_index,
                                   std::span<const double> row) {
  DS_CHECK(row.size() == compressed_.cols());
  size_t bucket = 0;
  double sign = 0.0;
  Hash(row_index, &bucket, &sign);
  double* dst = compressed_.data() + bucket * compressed_.cols();
  ActiveSimd().axpy(dst, row.data(), sign, row.size());
}

void CountSketchCompressor::AbsorbSparse(uint64_t row_index,
                                         std::span<const size_t> cols,
                                         std::span<const double> vals) {
  DS_CHECK(cols.size() == vals.size());
  size_t bucket = 0;
  double sign = 0.0;
  Hash(row_index, &bucket, &sign);
  double* dst = compressed_.data() + bucket * compressed_.cols();
  ActiveSimd().scatter_axpy(dst, cols.data(), vals.data(), sign,
                            cols.size());
}

}  // namespace distsketch
