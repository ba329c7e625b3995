#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/simd_dispatch.h"
#include "linalg/svd.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

Matrix RandomSymmetric(size_t n, uint64_t seed) {
  const Matrix g = GenerateGaussian(n, n, 1.0, seed);
  Matrix s = Add(g, Transpose(g));
  s.Scale(0.5);
  return s;
}

TEST(EigenSymTest, RejectsEmptyAndNonSquare) {
  EXPECT_FALSE(ComputeSymmetricEigen(Matrix()).ok());
  EXPECT_FALSE(ComputeSymmetricEigen(Matrix(2, 3)).ok());
}

TEST(EigenSymTest, DiagonalKnownEigenvalues) {
  const double diag[] = {-2.0, 5.0, 1.0};
  auto eig = ComputeSymmetricEigen(Matrix::Diagonal(diag));
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 5.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[1], 1.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[2], -2.0, 1e-12);
}

TEST(EigenSymTest, TwoByTwoKnown) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  const Matrix x{{2, 1}, {1, 2}};
  auto eig = ComputeSymmetricEigen(x);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[1], 1.0, 1e-12);
}

TEST(EigenSymTest, ReconstructionAndOrthonormality) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Matrix x = RandomSymmetric(12, seed);
    auto eig = ComputeSymmetricEigen(x);
    ASSERT_TRUE(eig.ok());
    EXPECT_TRUE(HasOrthonormalColumns(eig->eigenvectors, 1e-10));
    // V diag(lambda) V^T = X.
    Matrix vl = eig->eigenvectors;
    for (size_t j = 0; j < vl.cols(); ++j) {
      for (size_t i = 0; i < vl.rows(); ++i) {
        vl(i, j) *= eig->eigenvalues[j];
      }
    }
    const Matrix rec = MultiplyTransposeB(vl, eig->eigenvectors);
    EXPECT_TRUE(AlmostEqual(rec, x, 1e-9 * std::max(1.0, FrobeniusNorm(x))));
  }
}

TEST(EigenSymTest, EigenvaluesSortedNonIncreasing) {
  const Matrix x = RandomSymmetric(20, 7);
  auto eig = ComputeSymmetricEigen(x);
  ASSERT_TRUE(eig.ok());
  for (size_t i = 1; i < eig->eigenvalues.size(); ++i) {
    EXPECT_GE(eig->eigenvalues[i - 1], eig->eigenvalues[i]);
  }
}

TEST(EigenSymTest, GramEigenvaluesAreSquaredSingularValues) {
  const Matrix a = GenerateGaussian(15, 6, 1.0, 9);
  auto eig = ComputeSymmetricEigen(Gram(a));
  auto svals = SingularValues(a);
  ASSERT_TRUE(eig.ok());
  ASSERT_TRUE(svals.ok());
  for (size_t i = 0; i < svals->size(); ++i) {
    EXPECT_NEAR(eig->eigenvalues[i], (*svals)[i] * (*svals)[i],
                1e-8 * std::max(1.0, eig->eigenvalues[0]));
  }
}

TEST(EigenSymTest, ProjectorHasZeroOneSpectrum) {
  // P = v v^T for unit v: eigenvalues 1, 0, ..., 0.
  const Matrix v{{0.6}, {0.8}, {0.0}};
  const Matrix p = MultiplyTransposeB(v, v);
  auto eig = ComputeSymmetricEigen(p);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[1], 0.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[2], 0.0, 1e-12);
}

TEST(EigenSymTest, TraceIsEigenvalueSum) {
  const Matrix x = RandomSymmetric(9, 11);
  auto eig = ComputeSymmetricEigen(x);
  ASSERT_TRUE(eig.ok());
  double trace = 0.0;
  for (size_t i = 0; i < x.rows(); ++i) trace += x(i, i);
  double sum = 0.0;
  for (double l : eig->eigenvalues) sum += l;
  EXPECT_NEAR(trace, sum, 1e-9 * std::max(1.0, std::abs(trace)));
}

// ---- Every case below runs on every backend this CPU supports. ----

constexpr double kEps = std::numeric_limits<double>::epsilon();

class BackendGuard {
 public:
  BackendGuard() : prev_(ActiveSimdBackend()) {}
  ~BackendGuard() { SetSimdBackendForTesting(prev_); }

 private:
  SimdBackend prev_;
};

std::vector<SimdBackend> SupportedBackends() {
  std::vector<SimdBackend> out;
  for (const SimdBackend b :
       {SimdBackend::kScalar, SimdBackend::kAvx2, SimdBackend::kAvx512}) {
    if (SimdBackendSupported(b)) out.push_back(b);
  }
  return out;
}

const char* BackendName(SimdBackend b) {
  switch (b) {
    case SimdBackend::kScalar:
      return "scalar";
    case SimdBackend::kAvx2:
      return "avx2";
    case SimdBackend::kAvx512:
      return "avx512";
  }
  return "?";
}

// Q diag(spectrum) Q^T with Q a Householder reflector I - 2 v v^T / v^T v,
// so the exact spectrum is known and Q is dense.
Matrix WithSpectrum(const std::vector<double>& spectrum, uint64_t seed) {
  const size_t n = spectrum.size();
  Rng rng(seed);
  std::vector<double> v(n);
  double vv = 0.0;
  for (double& x : v) {
    x = 2.0 * rng.NextDouble() - 1.0;
    vv += x * x;
  }
  Matrix q = Matrix::Identity(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) q(i, j) -= 2.0 * v[i] * v[j] / vv;
  }
  Matrix qd = q;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) qd(i, j) *= spectrum[j];
  }
  return MultiplyTransposeB(qd, q);
}

struct SolveCase {
  std::string name;
  Matrix g;
};

// The shapes the solver meets: FD buffer Grams (n rows of a rank-<=8
// low-rank+noise stream at d=64), a spectrum graded over 16 decades,
// clustered repeated eigenvalues, zero and diagonal inputs, and FD Grams
// scaled to 1e+-300 and 1e+-160. The 1e300 and 1e-160 scales put the QL
// chase's rotation arguments outside [1e-150, 1e150], where sqrt(x*x+y*y)
// defers to std::hypot; 1e-300 takes the power-of-two rescale.
std::vector<SolveCase> Cases(size_t n) {
  std::vector<SolveCase> out;
  LowRankPlusNoiseOptions lr;
  lr.rows = n;
  lr.cols = 64;
  lr.rank = std::min<size_t>(8, n);
  lr.seed = 100 + n;
  const Matrix fd_gram = RowGram(GenerateLowRankPlusNoise(lr));
  out.push_back({"fd_gram", fd_gram});

  std::vector<double> graded(n), repeated(n), diag(n);
  for (size_t i = 0; i < n; ++i) {
    graded[i] = std::pow(10.0, -16.0 * static_cast<double>(i) /
                                   static_cast<double>(std::max<size_t>(n - 1, 1)));
    repeated[i] = i < n / 2 ? 3.0 : (i % 2 == 0 ? 1.0 : 1.0 + 1e-14);
    diag[i] = static_cast<double>((7 * i) % 5) - 2.0;
  }
  out.push_back({"graded", WithSpectrum(graded, 200 + n)});
  out.push_back({"repeated", WithSpectrum(repeated, 300 + n)});
  out.push_back({"zero", Matrix(n, n)});
  out.push_back({"diagonal", Matrix::Diagonal(diag)});
  const struct {
    double scale;
    const char* name;
  } kScales[] = {{1e300, "fd_gram*1e300"},
                 {1e-300, "fd_gram*1e-300"},
                 {1e160, "fd_gram*1e160"},
                 {1e-160, "fd_gram*1e-160"}};
  for (const auto& [scale, name] : kScales) {
    Matrix g = fd_gram;
    double amax = 0.0;
    for (size_t i = 0; i < g.size(); ++i) {
      amax = std::max(amax, std::abs(g.data()[i]));
    }
    g.Scale(scale / amax);
    out.push_back({name, g});
  }
  return out;
}

struct SolveError {
  double residual = 0.0;   // ||G V - V Lambda||_F / ||G||_F
  double orthogonality = 0.0;  // ||V^T V - I||_max
};

// Computed on G / max|G| so neither 1e300 nor 1e-300 leaves the double
// range while squaring.
SolveError Measure(const Matrix& g, const SymmetricEigenResult& eig) {
  const size_t n = g.rows();
  const Matrix& v = eig.eigenvectors;
  double amax = 0.0;
  for (size_t i = 0; i < g.size(); ++i) {
    amax = std::max(amax, std::abs(g.data()[i]));
  }
  const double scale = amax > 0.0 ? amax : 1.0;
  double res2 = 0.0, g2 = 0.0;
  SolveError err;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double gv = 0.0, vtv = 0.0;
      for (size_t k = 0; k < n; ++k) {
        gv += (g(i, k) / scale) * v(k, j);
        vtv += v(k, i) * v(k, j);
      }
      const double r = gv - v(i, j) * (eig.eigenvalues[j] / scale);
      res2 += r * r;
      g2 += (g(i, j) / scale) * (g(i, j) / scale);
      err.orthogonality =
          std::max(err.orthogonality, std::abs(vtv - (i == j ? 1.0 : 0.0)));
    }
  }
  err.residual = g2 > 0.0 ? std::sqrt(res2 / g2) : std::sqrt(res2);
  return err;
}

constexpr size_t kSweepSizes[] = {1, 2, 3, 21, 22, 41, 42, 64, 128};

// At the solver's precision floor (tol 0 is floored at machine epsilon)
// the residual and orthogonality are both backward-stable: O(n eps).
// Deflating at eps is slow on the 16-decade graded spectrum (the n=128
// case needs more than the default 60 iterations on one eigenvalue), so
// this run allows more.
TEST(EigenSymBackendSweep, ResidualAndOrthogonalityWithinNEps) {
  BackendGuard guard;
  EigenSymOptions opts;
  opts.tol = 0.0;
  opts.max_sweeps = 200;
  for (const SimdBackend backend : SupportedBackends()) {
    SetSimdBackendForTesting(backend);
    EigenSymWorkspace ws;
    SymmetricEigenResult eig;
    for (const size_t n : kSweepSizes) {
      for (const SolveCase& c : Cases(n)) {
        SCOPED_TRACE(std::string(BackendName(backend)) + " n=" +
                     std::to_string(n) + " " + c.name);
        ASSERT_TRUE(ComputeSymmetricEigenInto(c.g, &eig, &ws, opts).ok());
        ASSERT_EQ(eig.eigenvalues.size(), n);
        for (size_t i = 1; i < n; ++i) {
          EXPECT_GE(eig.eigenvalues[i - 1], eig.eigenvalues[i]);
        }
        const SolveError err = Measure(c.g, eig);
        const double bound = 64.0 * static_cast<double>(n) * kEps;
        EXPECT_LE(err.residual, bound);
        EXPECT_LE(err.orthogonality, bound);
      }
    }
  }
}

// At the default tolerance QL may drop an off-diagonal |e| up to
// tol * (|d_m| + |d_m+1|) <= 2 tol ||G||_2, at most n - 1 times, which adds
// at most 3 n tol ||G||_F to the residual. The rotations stay orthogonal.
TEST(EigenSymBackendSweep, DefaultToleranceResidualWithinDeflationBound) {
  BackendGuard guard;
  const EigenSymOptions opts;
  for (const SimdBackend backend : SupportedBackends()) {
    SetSimdBackendForTesting(backend);
    for (const size_t n : kSweepSizes) {
      for (const SolveCase& c : Cases(n)) {
        SCOPED_TRACE(std::string(BackendName(backend)) + " n=" +
                     std::to_string(n) + " " + c.name);
        auto eig = ComputeSymmetricEigen(c.g, opts);
        ASSERT_TRUE(eig.ok());
        const SolveError err = Measure(c.g, *eig);
        const double nd = static_cast<double>(n);
        EXPECT_LE(err.residual, 64.0 * nd * kEps + 3.0 * nd * opts.tol);
        EXPECT_LE(err.orthogonality, 64.0 * nd * kEps);
      }
    }
  }
}

// Known spectra come back to within n eps of the largest eigenvalue, and
// the zero matrix yields exact zeros with an identity basis.
TEST(EigenSymBackendSweep, KnownSpectraRecovered) {
  BackendGuard guard;
  for (const SimdBackend backend : SupportedBackends()) {
    SetSimdBackendForTesting(backend);
    for (const size_t n : kSweepSizes) {
      SCOPED_TRACE(std::string(BackendName(backend)) + " n=" +
                   std::to_string(n));
      std::vector<double> spectrum(n);
      for (size_t i = 0; i < n; ++i) {
        spectrum[i] = static_cast<double>(n - i) / static_cast<double>(n);
      }
      auto eig = ComputeSymmetricEigen(WithSpectrum(spectrum, 7 * n));
      ASSERT_TRUE(eig.ok());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(eig->eigenvalues[i], spectrum[i],
                    64.0 * static_cast<double>(n) * kEps);
      }
      auto zero = ComputeSymmetricEigen(Matrix(n, n));
      ASSERT_TRUE(zero.ok());
      for (double l : zero->eigenvalues) EXPECT_EQ(l, 0.0);
      EXPECT_EQ(zero->eigenvectors, Matrix::Identity(n));
    }
  }
}

// Each backend compiles its own instance of the solver (fused dots,
// axpys and rotations on the vector backends), so bits differ across
// backends; on FD-shaped Grams (the shrink's 2l x 2l row Gram) every
// vector backend's eigenvalues stay within the DESIGN.md §12 envelope of
// the scalar ones, 8 n eps max|lambda|, and its residual and
// orthogonality within the sweep's bounds.
TEST(EigenSymBackendSweep, VectorBackendsAgreeWithScalarOnFdGrams) {
  BackendGuard guard;
  for (const size_t n : {22u, 42u, 64u}) {
    LowRankPlusNoiseOptions lr;
    lr.rows = n;
    lr.cols = 64;
    lr.rank = 8;
    lr.seed = 500 + n;
    const Matrix g = RowGram(GenerateLowRankPlusNoise(lr));
    SetSimdBackendForTesting(SimdBackend::kScalar);
    auto ref = ComputeSymmetricEigen(g);
    ASSERT_TRUE(ref.ok());
    const double nd = static_cast<double>(n);
    const double tol = 8.0 * nd * kEps * std::abs(ref->eigenvalues[0]);
    for (const SimdBackend backend : SupportedBackends()) {
      if (backend == SimdBackend::kScalar) continue;
      SCOPED_TRACE(std::string(BackendName(backend)) + " n=" +
                   std::to_string(n));
      SetSimdBackendForTesting(backend);
      auto eig = ComputeSymmetricEigen(g);
      ASSERT_TRUE(eig.ok());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(eig->eigenvalues[i], ref->eigenvalues[i], tol);
      }
      const SolveError err = Measure(g, *eig);
      EXPECT_LE(err.residual, 64.0 * nd * kEps + 3.0 * nd * 1e-12);
      EXPECT_LE(err.orthogonality, 64.0 * nd * kEps);
    }
  }
}

}  // namespace
}  // namespace distsketch
