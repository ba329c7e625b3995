#include "workload/partition.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.h"
#include "linalg/blas.h"
#include "workload/generators.h"

namespace distsketch {

std::vector<Matrix> PartitionRows(const Matrix& a, size_t s,
                                  PartitionScheme scheme, uint64_t seed) {
  DS_CHECK(s >= 1);
  std::vector<Matrix> parts(s);
  for (auto& p : parts) p.SetZero(0, a.cols());

  switch (scheme) {
    case PartitionScheme::kRoundRobin: {
      for (size_t i = 0; i < a.rows(); ++i) {
        parts[i % s].AppendRow(a.Row(i));
      }
      break;
    }
    case PartitionScheme::kContiguous: {
      const size_t base = a.rows() / s;
      const size_t extra = a.rows() % s;
      size_t next = 0;
      for (size_t p = 0; p < s; ++p) {
        const size_t count = base + (p < extra ? 1 : 0);
        for (size_t i = 0; i < count; ++i) {
          parts[p].AppendRow(a.Row(next++));
        }
      }
      break;
    }
    case PartitionScheme::kSkewed: {
      // Server p receives ~ half of what remains: sizes n/2, n/4, ...
      size_t next = 0;
      size_t remaining = a.rows();
      for (size_t p = 0; p < s && next < a.rows(); ++p) {
        size_t count = (p + 1 == s) ? remaining
                                    : std::max<size_t>(1, remaining / 2);
        count = std::min(count, remaining);
        for (size_t i = 0; i < count; ++i) {
          parts[p].AppendRow(a.Row(next++));
        }
        remaining -= count;
      }
      break;
    }
    case PartitionScheme::kRandom: {
      Rng rng(seed);
      for (size_t i = 0; i < a.rows(); ++i) {
        parts[rng.NextUint64Below(s)].AppendRow(a.Row(i));
      }
      break;
    }
    case PartitionScheme::kZipf: {
      parts = PartitionRowsZipf(a, s, /*alpha=*/1.0);
      break;
    }
  }
  return parts;
}

std::vector<Matrix> PartitionRowsZipf(const Matrix& a, size_t s,
                                      double alpha) {
  DS_CHECK(s >= 1);
  DS_CHECK(alpha >= 0.0);
  const size_t n = a.rows();
  // Ideal share of server p is weight[p] / sum(weight); integer sizes by
  // largest remainder so the sizes add up to n exactly and the rounding
  // is a pure function of (n, s, alpha).
  std::vector<double> weight(s);
  double total = 0.0;
  for (size_t p = 0; p < s; ++p) {
    weight[p] = 1.0 / std::pow(static_cast<double>(p + 1), alpha);
    total += weight[p];
  }
  std::vector<size_t> count(s, 0);
  std::vector<std::pair<double, size_t>> remainder(s);
  size_t assigned = 0;
  for (size_t p = 0; p < s; ++p) {
    const double ideal = static_cast<double>(n) * weight[p] / total;
    count[p] = static_cast<size_t>(ideal);
    remainder[p] = {ideal - static_cast<double>(count[p]), p};
    assigned += count[p];
  }
  // Largest remainder first; ties broken toward the lower-indexed
  // (heavier) server for determinism.
  std::sort(remainder.begin(), remainder.end(),
            [](const auto& x, const auto& y) {
              return x.first != y.first ? x.first > y.first
                                        : x.second < y.second;
            });
  for (size_t t = 0; assigned < n; ++t) {
    ++count[remainder[t % s].second];
    ++assigned;
  }

  std::vector<Matrix> parts(s);
  for (auto& p : parts) p.SetZero(0, a.cols());
  size_t next = 0;
  for (size_t p = 0; p < s; ++p) {
    for (size_t i = 0; i < count[p]; ++i) parts[p].AppendRow(a.Row(next++));
  }
  return parts;
}

Matrix UnpartitionRows(const std::vector<Matrix>& parts) {
  return ConcatRows(parts);
}

std::vector<Matrix> SplitAdditive(const Matrix& a, size_t s,
                                  uint64_t seed) {
  DS_CHECK(s >= 1);
  std::vector<Matrix> shares;
  shares.reserve(s);
  // Scale the random shares like the data so no share is negligible.
  const double scale = std::sqrt(
      SquaredFrobeniusNorm(a) /
      std::max<double>(1.0, static_cast<double>(a.size())));
  Matrix remainder = a;
  for (size_t i = 0; i + 1 < s; ++i) {
    Matrix share = GenerateGaussian(a.rows(), a.cols(), scale,
                                    Rng::DeriveSeed(seed, i));
    remainder = Subtract(remainder, share);
    shares.push_back(std::move(share));
  }
  shares.push_back(std::move(remainder));
  return shares;
}

}  // namespace distsketch
