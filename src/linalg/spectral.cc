#include "linalg/spectral.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/eigen_sym.h"

namespace distsketch {
namespace {

// Power-iteration schedule: relative convergence tolerance between
// successive estimates, iterations per restart, independent restarts and
// the start vectors' seed.
constexpr double kPowerTol = 1e-10;
constexpr int kPowerMaxIterations = 1000;
constexpr int kPowerRestarts = 3;
constexpr uint64_t kPowerSeed = 0x5eed5eedULL;

// One power-iteration run on the linear operator `apply` acting on
// dimension-n vectors; returns the converged operator-norm estimate.
template <typename ApplyFn>
double PowerIterate(size_t n, const ApplyFn& apply, Rng& rng) {
  std::vector<double> x(n);
  for (auto& v : x) v = rng.NextGaussian();
  double norm = Norm2(x);
  if (norm == 0.0) return 0.0;
  ScaleVector(1.0 / norm, x);

  double estimate = 0.0;
  for (int it = 0; it < kPowerMaxIterations; ++it) {
    std::vector<double> y = apply(x);
    const double ynorm = Norm2(y);
    if (ynorm == 0.0) return 0.0;
    const double prev = estimate;
    estimate = ynorm;
    ScaleVector(1.0 / ynorm, y);
    x = std::move(y);
    if (it > 0 && std::abs(estimate - prev) <=
                      kPowerTol * std::max(estimate, 1e-300)) {
      break;
    }
  }
  return estimate;
}

}  // namespace

double SymmetricSpectralNorm(const Matrix& x) {
  if (x.empty()) return 0.0;
  DS_CHECK(x.rows() == x.cols());
  const size_t n = x.rows();
  Rng rng(kPowerSeed);
  double best = 0.0;
  for (int r = 0; r < kPowerRestarts; ++r) {
    const double est = PowerIterate(
        n, [&](const std::vector<double>& v) { return MatVec(x, v); },
        rng);
    best = std::max(best, est);
  }
  return best;
}

double SpectralNorm(const Matrix& a) {
  if (a.empty()) return 0.0;
  const size_t n = a.cols();
  Rng rng(kPowerSeed);
  double best = 0.0;
  for (int r = 0; r < kPowerRestarts; ++r) {
    // Iterate on A^T A; the estimate converges to sigma_max^2.
    const double est = PowerIterate(
        n,
        [&](const std::vector<double>& v) {
          const std::vector<double> av = MatVec(a, v);
          return MatTVec(a, av);
        },
        rng);
    best = std::max(best, est);
  }
  return std::sqrt(best);
}

double SymmetricSpectralNormExact(const Matrix& x) {
  if (x.empty()) return 0.0;
  auto eig = ComputeSymmetricEigen(x);
  DS_CHECK(eig.ok());
  double best = 0.0;
  for (const double lambda : eig->eigenvalues) {
    best = std::max(best, std::abs(lambda));
  }
  return best;
}

}  // namespace distsketch
