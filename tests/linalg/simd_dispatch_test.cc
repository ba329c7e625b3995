// SIMD dispatch layer: scalar-backend bitwise pins against independent
// reference loops, and vector-vs-scalar agreement on adversarial shapes
// (odd/prime dimensions, denormals, extreme scales). The scalar checks
// use EXPECT_EQ on doubles deliberately — `DS_SIMD=scalar` must stay
// bit-identical to the pre-dispatch kernels. Vector backends are held to
// the DESIGN.md §12 reduction envelope instead.

#include "linalg/simd_dispatch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "linalg/matrix.h"
#include "linalg/svd.h"

namespace distsketch {
namespace {

// Restores the entry backend when a test body swaps it.
class BackendGuard {
 public:
  BackendGuard() : prev_(ActiveSimdBackend()) {}
  ~BackendGuard() { SetSimdBackendForTesting(prev_); }

 private:
  SimdBackend prev_;
};

std::vector<SimdBackend> SupportedVectorBackends() {
  std::vector<SimdBackend> out;
  for (const SimdBackend b : {SimdBackend::kAvx2, SimdBackend::kAvx512}) {
    if (SimdBackendSupported(b)) out.push_back(b);
  }
  return out;
}

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed, double scale) {
  Rng rng(seed);
  Matrix a(rows, cols);
  for (size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = scale * (2.0 * rng.NextDouble() - 1.0);
  }
  return a;
}

// |x - y| <= tol * reference_magnitude, with exact equality required when
// the reference is exactly zero times anything finite.
void ExpectWithinEnvelope(const Matrix& got, const Matrix& want,
                          double terms, const char* what) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  const double eps = std::numeric_limits<double>::epsilon();
  double ref = MaxAbs(want);
  if (ref == 0.0) ref = 1.0;
  const double tol = 8.0 * terms * eps * ref;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], tol)
        << what << " entry " << i;
  }
}

// ---------------------------------------------------------------------
// Scalar bitwise pins: the scalar table entries must reproduce naive
// reference loops exactly (same operation order as the historical
// kernels, which blas_test/gemm_kernels_test pin against these shapes).
// ---------------------------------------------------------------------

TEST(SimdScalarPinTest, DotMatchesReferenceOrder) {
  const SimdKernelTable& table = SimdTableFor(SimdBackend::kScalar);
  for (const size_t n : {0u, 1u, 7u, 64u, 129u}) {
    const Matrix x = RandomMatrix(1, n, 17 + n, 3.0);
    const Matrix y = RandomMatrix(1, n, 91 + n, 2.0);
    double want = 0.0;
    for (size_t i = 0; i < n; ++i) want += x.data()[i] * y.data()[i];
    EXPECT_EQ(table.dot(x.data(), y.data(), n), want) << "n=" << n;
  }
}

TEST(SimdScalarPinTest, GramMatchesTwoRowSchedule) {
  const SimdKernelTable& table = SimdTableFor(SimdBackend::kScalar);
  const size_t rows = 13, d = 7;
  const Matrix a = RandomMatrix(rows, d, 5, 1.0);
  Matrix got(d, d), want(d, d);
  table.gram_acc(a.data(), 0, rows, d, got.data());
  // The historical two-row schedule, written out independently.
  size_t k = 0;
  for (; k + 2 <= rows; k += 2) {
    const double* r0 = a.data() + k * d;
    const double* r1 = r0 + d;
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = i; j < d; ++j) {
        want.data()[i * d + j] += r0[i] * r0[j] + r1[i] * r1[j];
      }
    }
  }
  for (; k < rows; ++k) {
    const double* row = a.data() + k * d;
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = i; j < d; ++j) {
        want.data()[i * d + j] += row[i] * row[j];
      }
    }
  }
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.data()[i], want.data()[i]);
  }
}

TEST(SimdScalarPinTest, ColKernelsMatchReference) {
  const SimdKernelTable& table = SimdTableFor(SimdBackend::kScalar);
  const size_t m = 11, n = 5;
  Matrix a = RandomMatrix(m, n, 23, 1.0);
  double want = 0.0;
  for (size_t i = 0; i < m; ++i) want += a(i, 1) * a(i, 3);
  EXPECT_EQ(table.col_dot(a.data(), m, n, 1, 3), want);

  Matrix b = a;
  const double c = 0.8, s = 0.6;
  table.col_rotate(a.data(), m, n, 1, 3, c, s);
  for (size_t i = 0; i < m; ++i) {
    const double wp = b(i, 1), wq = b(i, 3);
    EXPECT_EQ(a(i, 1), c * wp - s * wq);
    EXPECT_EQ(a(i, 3), s * wp + c * wq);
  }
}

// ---------------------------------------------------------------------
// Vector-vs-scalar agreement on adversarial inputs.
// ---------------------------------------------------------------------

// Odd/prime dims exercise every tail path; the scales include matrices
// near the overflow/underflow boundary and a denormal block.
struct Adversary {
  size_t m, k, n;
  double scale;
};

const Adversary kAdversaries[] = {
    {1, 1, 1, 1.0},        {2, 3, 5, 1.0},       {7, 11, 13, 1e150},
    {17, 5, 3, 1e-150},    {31, 37, 29, 1.0},    {8, 64, 4, 1e-300},
    {64, 8, 64, 1.0},      {100, 64, 67, 1e10},  {5, 127, 9, 1e-10},
};

TEST(SimdAgreementTest, GemmNnWithinEnvelope) {
  BackendGuard guard;
  for (const SimdBackend backend : SupportedVectorBackends()) {
    const SimdKernelTable& vec = SimdTableFor(backend);
    const SimdKernelTable& ref = SimdTableFor(SimdBackend::kScalar);
    for (const Adversary& adv : kAdversaries) {
      const Matrix a = RandomMatrix(adv.m, adv.k, 3, adv.scale);
      const Matrix b = RandomMatrix(adv.k, adv.n, 7, 1.0);
      Matrix got(adv.m, adv.n), want(adv.m, adv.n);
      vec.gemm_nn(a.data(), adv.m, adv.k, b.data(), adv.n, got.data());
      ref.gemm_nn(a.data(), adv.m, adv.k, b.data(), adv.n, want.data());
      ExpectWithinEnvelope(got, want, static_cast<double>(adv.k), "gemm_nn");
    }
  }
}

TEST(SimdAgreementTest, GemmTnWithinEnvelope) {
  BackendGuard guard;
  for (const SimdBackend backend : SupportedVectorBackends()) {
    const SimdKernelTable& vec = SimdTableFor(backend);
    const SimdKernelTable& ref = SimdTableFor(SimdBackend::kScalar);
    for (const Adversary& adv : kAdversaries) {
      const Matrix a = RandomMatrix(adv.k, adv.m, 3, adv.scale);
      const Matrix b = RandomMatrix(adv.k, adv.n, 7, 1.0);
      Matrix got(adv.m, adv.n), want(adv.m, adv.n);
      vec.gemm_tn(a.data(), adv.k, adv.m, b.data(), adv.n, got.data());
      ref.gemm_tn(a.data(), adv.k, adv.m, b.data(), adv.n, want.data());
      ExpectWithinEnvelope(got, want, static_cast<double>(adv.k), "gemm_tn");
    }
  }
}

TEST(SimdAgreementTest, GramWithinEnvelope) {
  BackendGuard guard;
  for (const SimdBackend backend : SupportedVectorBackends()) {
    const SimdKernelTable& vec = SimdTableFor(backend);
    const SimdKernelTable& ref = SimdTableFor(SimdBackend::kScalar);
    for (const Adversary& adv : kAdversaries) {
      const Matrix a = RandomMatrix(adv.m, adv.k, 11, adv.scale);
      Matrix got(adv.k, adv.k), want(adv.k, adv.k);
      vec.gram_acc(a.data(), 0, adv.m, adv.k, got.data());
      ref.gram_acc(a.data(), 0, adv.m, adv.k, want.data());
      ExpectWithinEnvelope(got, want, static_cast<double>(adv.m), "gram");
    }
  }
}

TEST(SimdAgreementTest, SyrkWithinEnvelopeAndSymmetric) {
  BackendGuard guard;
  for (const SimdBackend backend : SupportedVectorBackends()) {
    const SimdKernelTable& vec = SimdTableFor(backend);
    const SimdKernelTable& ref = SimdTableFor(SimdBackend::kScalar);
    for (const Adversary& adv : kAdversaries) {
      const Matrix a = RandomMatrix(adv.m, adv.k, 13, adv.scale);
      Matrix got(adv.m, adv.m), want(adv.m, adv.m);
      vec.syrk_acc(a.data(), adv.m, adv.k, 0.5, got.data());
      ref.syrk_acc(a.data(), adv.m, adv.k, 0.5, want.data());
      ExpectWithinEnvelope(got, want, static_cast<double>(adv.k), "syrk");
      // Diagonal 2x2 tiles write their own lower mirror; it must equal
      // the upper value exactly or GramUpdate's output goes asymmetric.
      for (size_t i = 0; i + 2 <= adv.m; i += 2) {
        EXPECT_EQ(got.data()[(i + 1) * adv.m + i],
                  got.data()[i * adv.m + i + 1]);
      }
    }
  }
}

TEST(SimdAgreementTest, ColDotAndRotateWithinEnvelope) {
  BackendGuard guard;
  for (const SimdBackend backend : SupportedVectorBackends()) {
    const SimdKernelTable& vec = SimdTableFor(backend);
    const SimdKernelTable& ref = SimdTableFor(SimdBackend::kScalar);
    for (const size_t m : {1u, 3u, 4u, 7u, 64u, 129u}) {
      for (const double scale : {1.0, 1e150, 1e-150, 1e-300}) {
        const size_t n = 7;
        Matrix a = RandomMatrix(m, n, m + 2, scale);
        const double got = vec.col_dot(a.data(), m, n, 2, 5);
        const double want = ref.col_dot(a.data(), m, n, 2, 5);
        const double tol = 8.0 * static_cast<double>(m) *
                           std::numeric_limits<double>::epsilon() *
                           std::max(std::abs(want), scale * scale);
        EXPECT_NEAR(got, want, tol) << "m=" << m << " scale=" << scale;

        Matrix va = a, ra = a;
        vec.col_rotate(va.data(), m, n, 2, 5, 0.8, -0.6);
        ref.col_rotate(ra.data(), m, n, 2, 5, 0.8, -0.6);
        ExpectWithinEnvelope(va, ra, 2.0, "col_rotate");
      }
    }
  }
}

// The sym_eigen entry on raw storage, FD-shaped row Grams (2l x 2l):
// each vector backend's eigenvalues agree with scalar's within the
// envelope for n-term reductions, and its eigenvector rows stay
// orthonormal.
TEST(SimdAgreementTest, SymEigenWithinEnvelope) {
  const SimdKernelTable& ref = SimdTableFor(SimdBackend::kScalar);
  for (const SimdBackend backend : SupportedVectorBackends()) {
    const SimdKernelTable& vec = SimdTableFor(backend);
    for (const size_t n : {22u, 42u, 64u}) {
      const Matrix g = RowGram(RandomMatrix(n, 64, 7 * n, 1.0));
      auto solve = [&](const SimdKernelTable& t, Matrix* z) {
        *z = g;
        std::vector<double> d(n), e(n);
        EXPECT_TRUE(t.sym_eigen(z->data(), n, d.data(), e.data(), 1e-12, 60));
        std::sort(d.begin(), d.end());
        Matrix lambda(1, n);
        for (size_t i = 0; i < n; ++i) lambda(0, i) = d[i];
        return lambda;
      };
      Matrix vz, rz;
      const Matrix vl = solve(vec, &vz);
      const Matrix rl = solve(ref, &rz);
      ExpectWithinEnvelope(vl, rl, static_cast<double>(n), "sym_eigen");
      EXPECT_TRUE(AlmostEqual(MultiplyTransposeB(vz, vz), Matrix::Identity(n),
                              64.0 * static_cast<double>(n) *
                                  std::numeric_limits<double>::epsilon()))
          << "n=" << n;
    }
  }
}

TEST(SimdAgreementTest, DotHandlesDenormalsAndExtremes) {
  BackendGuard guard;
  for (const SimdBackend backend : SupportedVectorBackends()) {
    const SimdKernelTable& vec = SimdTableFor(backend);
    const SimdKernelTable& ref = SimdTableFor(SimdBackend::kScalar);
    for (const double scale :
         {1.0, 1e150, 1e-150, std::numeric_limits<double>::denorm_min(),
          1e-308}) {
      for (const size_t n : {1u, 5u, 8u, 13u, 100u}) {
        const Matrix x = RandomMatrix(1, n, n + 1, scale);
        const Matrix y = RandomMatrix(1, n, n + 2, 1.0);
        const double got = vec.dot(x.data(), y.data(), n);
        const double want = ref.dot(x.data(), y.data(), n);
        const double tol =
            8.0 * static_cast<double>(n) *
            std::numeric_limits<double>::epsilon() *
            std::max(std::abs(want),
                     std::numeric_limits<double>::min());
        EXPECT_NEAR(got, want, tol) << "n=" << n << " scale=" << scale;
      }
    }
  }
}

// The max-abs scan is exact, so every backend must return the scalar
// kernel's bits, ignore NaN in the max, and flag any NaN or infinity, at
// every length and position (vector bodies and tails alike).
TEST(SimdAgreementTest, MaxAbsBitIdenticalAndFlagsNonFinite) {
  const double kSpecial[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::max(),
                             -std::numeric_limits<double>::denorm_min(),
                             -0.0};
  std::vector<SimdBackend> backends = SupportedVectorBackends();
  backends.push_back(SimdBackend::kScalar);
  for (const SimdBackend backend : backends) {
    const SimdKernelTable& vec = SimdTableFor(backend);
    for (const size_t n : {0u, 1u, 3u, 4u, 7u, 8u, 13u, 16u, 31u, 64u}) {
      const Matrix x = RandomMatrix(1, n, n + 3, 1e-3);
      for (size_t pos = 0; pos < n; ++pos) {
        for (const double special : kSpecial) {
          std::vector<double> v(x.data(), x.data() + n);
          v[pos] = special;
          double want = 0.0;
          bool want_finite = true;
          for (const double e : v) {
            if (!std::isnan(e)) want = std::max(want, std::abs(e));
            want_finite &= std::isfinite(e);
          }
          bool finite = !want_finite;
          const double got = vec.max_abs(v.data(), n, &finite);
          EXPECT_EQ(std::bit_cast<uint64_t>(got),
                    std::bit_cast<uint64_t>(want))
              << SimdBackendName(backend) << " n=" << n << " pos=" << pos;
          EXPECT_EQ(finite, want_finite)
              << SimdBackendName(backend) << " n=" << n << " pos=" << pos;
        }
      }
      bool finite = false;
      EXPECT_EQ(vec.max_abs(x.data(), n, &finite), MaxAbs(x));
      EXPECT_TRUE(finite);
    }
  }
}

// Unaligned row strides: the kernels take raw pointers, so running them
// on a view whose rows start at odd offsets (stride == cols but base
// pointer offset by one element from a 32-byte boundary) must work; the
// loadu/storeu forms make alignment a non-event.
TEST(SimdAgreementTest, UnalignedBasePointers) {
  BackendGuard guard;
  const size_t m = 9, d = 11;
  std::vector<double> backing(1 + m * d);
  Rng rng(77);
  for (double& v : backing) v = 2.0 * rng.NextDouble() - 1.0;
  const double* a = backing.data() + 1;  // off 32-byte alignment
  for (const SimdBackend backend : SupportedVectorBackends()) {
    const SimdKernelTable& vec = SimdTableFor(backend);
    const SimdKernelTable& ref = SimdTableFor(SimdBackend::kScalar);
    Matrix got(d, d), want(d, d);
    vec.gram_acc(a, 0, m, d, got.data());
    ref.gram_acc(a, 0, m, d, want.data());
    ExpectWithinEnvelope(got, want, static_cast<double>(m),
                         "gram unaligned");
  }
}

// ---------------------------------------------------------------------
// End-to-end routes under each backend.
// ---------------------------------------------------------------------

TEST(SimdEndToEndTest, JacobiSvdAgreesAcrossBackends) {
  BackendGuard guard;
  const Matrix a = RandomMatrix(37, 13, 99, 1.0);
  SetSimdBackendForTesting(SimdBackend::kScalar);
  const auto want = ComputeSvd(a);
  ASSERT_TRUE(want.ok());
  for (const SimdBackend backend : SupportedVectorBackends()) {
    SetSimdBackendForTesting(backend);
    const auto got = ComputeSvd(a);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->singular_values.size(), want->singular_values.size());
    for (size_t j = 0; j < want->singular_values.size(); ++j) {
      EXPECT_NEAR(got->singular_values[j], want->singular_values[j],
                  1e-9 * want->singular_values[0]);
    }
    // The reconstructions must agree even where individual vectors may
    // differ by sign or rotation within near-equal singular pairs.
    const Matrix rv = Subtract(got->Reconstruct(), want->Reconstruct());
    EXPECT_LE(MaxAbs(rv), 1e-9 * want->singular_values[0]);
  }
}

TEST(SimdEndToEndTest, SymmetricEigenAgreesAcrossBackends) {
  BackendGuard guard;
  const Matrix a = RandomMatrix(19, 19, 123, 1.0);
  const Matrix sym = Add(a, Transpose(a));
  SetSimdBackendForTesting(SimdBackend::kScalar);
  const auto want = ComputeSymmetricEigen(sym);
  ASSERT_TRUE(want.ok());
  for (const SimdBackend backend : SupportedVectorBackends()) {
    SetSimdBackendForTesting(backend);
    const auto got = ComputeSymmetricEigen(sym);
    ASSERT_TRUE(got.ok());
    for (size_t j = 0; j < want->eigenvalues.size(); ++j) {
      EXPECT_NEAR(got->eigenvalues[j], want->eigenvalues[j],
                  1e-10 * std::abs(want->eigenvalues[0]));
    }
  }
}

TEST(SimdEndToEndTest, GramParallelBitIdenticalAcrossThreadCounts) {
  // Per backend, the fixed chunk grid + serial reduction must make the
  // Gram bit-identical at any thread count (DESIGN.md §12).
  BackendGuard guard;
  const Matrix a = RandomMatrix(1030, 17, 5, 1.0);
  std::vector<SimdBackend> backends = {SimdBackend::kScalar};
  for (const SimdBackend b : SupportedVectorBackends()) backends.push_back(b);
  for (const SimdBackend backend : backends) {
    SetSimdBackendForTesting(backend);
    const Matrix serial = Gram(a);
    const Matrix chunked = GramParallel(a);
    // Chunked serial reduction vs one-pass: same per-chunk kernels, so
    // the only difference is the documented chunk-sum tree; both are
    // deterministic. Compare chunked against itself on a second run.
    const Matrix again = GramParallel(a);
    for (size_t i = 0; i < chunked.size(); ++i) {
      EXPECT_EQ(chunked.data()[i], again.data()[i]);
    }
    EXPECT_LE(MaxAbs(Subtract(serial, chunked)),
              1e-12 * std::max(1.0, MaxAbs(serial)));
  }
}

TEST(SimdDispatchTest, TableForEverySupportedBackendHasAllEntries) {
  for (const SimdBackend b :
       {SimdBackend::kScalar, SimdBackend::kAvx2, SimdBackend::kAvx512}) {
    if (!SimdBackendSupported(b)) continue;
    const SimdKernelTable& t = SimdTableFor(b);
    EXPECT_EQ(t.backend, b);
    EXPECT_NE(t.gemm_nn, nullptr);
    EXPECT_NE(t.gemm_tn, nullptr);
    EXPECT_NE(t.gram_acc, nullptr);
    EXPECT_NE(t.syrk_acc, nullptr);
    EXPECT_NE(t.col_dot, nullptr);
    EXPECT_NE(t.col_rotate, nullptr);
    EXPECT_NE(t.dot, nullptr);
    EXPECT_NE(t.max_abs, nullptr);
    EXPECT_NE(t.sym_eigen, nullptr);
    EXPECT_NE(t.pack_window, nullptr);
    EXPECT_NE(t.unpack_window, nullptr);
  }
}

TEST(SimdDispatchTest, SetForTestingSwapsAndRestores) {
  const SimdBackend entry = ActiveSimdBackend();
  const SimdBackend prev = SetSimdBackendForTesting(SimdBackend::kScalar);
  EXPECT_EQ(prev, entry);
  EXPECT_EQ(ActiveSimdBackend(), SimdBackend::kScalar);
  SetSimdBackendForTesting(entry);
  EXPECT_EQ(ActiveSimdBackend(), entry);
}

TEST(SimdDispatchTest, BackendNamesRoundTrip) {
  for (const SimdBackend b :
       {SimdBackend::kScalar, SimdBackend::kAvx2, SimdBackend::kAvx512}) {
    const auto parsed = ParseSimdBackend(SimdBackendName(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(ParseSimdBackend("sse9").has_value());
  EXPECT_FALSE(ParseSimdBackend("").has_value());
}

}  // namespace
}  // namespace distsketch
