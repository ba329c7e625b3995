// Direct verification of Lemma 8, the robustness result behind
// Theorem 9: if Q is a strong (eps/2, k)-sketch of A with bounded
// Frobenius norm, then ANY (1+eps)-approximate top-k PCs *of Q* are
// (1 + O(eps))-approximate for A. We construct approximate PCs of Q in
// several adversarial-ish ways (rotations inside a padded subspace,
// truncated power iteration) and check the
// transferred guarantee each time.

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/qr.h"
#include "linalg/svd.h"
#include "pca/pca_quality.h"
#include "sketch/adaptive_sketch.h"
#include "sketch/error_metrics.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

class Lemma8Test : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = GenerateLowRankPlusNoise({.rows = 300,
                                   .cols = 24,
                                   .rank = 6,
                                   .decay = 0.65,
                                   .top_singular_value = 40.0,
                                   .noise_stddev = 0.4,
                                   .seed = 1});
    auto q = AdaptiveSketch(a_, eps_ / 2.0, k_, /*seed=*/2);
    ASSERT_TRUE(q.ok());
    q_ = std::move(*q);
    // Confirm the premises of Lemma 8 hold for this Q.
    ASSERT_TRUE(IsEpsKSketch(a_, q_, 3.0 * eps_ / 2.0, k_));
    ASSERT_LE(SquaredFrobeniusNorm(q_),
              SquaredFrobeniusNorm(a_) + 8.0 * OptimalTailEnergy(a_, k_));
  }

  // ||M - M V V^T||_F^2 for a d-by-k orthonormal component matrix V.
  static double ComponentProjectionError(const Matrix& m, const Matrix& v) {
    return SquaredFrobeniusNorm(m) - SquaredFrobeniusNorm(Multiply(m, v));
  }

  // Checks Q-side (1+eps_q) approximation and returns the A-side ratio.
  double TransferRatio(const Matrix& v, double max_q_ratio) {
    const double q_err = ComponentProjectionError(q_, v);
    const double q_opt = OptimalTailEnergy(q_, k_);
    EXPECT_LE(q_err, max_q_ratio * q_opt * (1.0 + 1e-9))
        << "candidate is not a (1+eps) answer for Q itself";
    return EvaluatePcaQuality(a_, v).ratio;
  }

  const double eps_ = 0.2;
  const size_t k_ = 4;
  Matrix a_;
  Matrix q_;
};

TEST_F(Lemma8Test, ExactPcsOfSketchTransfer) {
  auto svd = ComputeSvd(q_);
  ASSERT_TRUE(svd.ok());
  const Matrix v = svd->TopRightSingularVectors(k_);
  EXPECT_LE(TransferRatio(v, 1.0 + 1e-9), 1.0 + 3.0 * eps_);
}

TEST_F(Lemma8Test, PerturbedPcsStillTransferWhileApproximate) {
  // Rotate the exact top-k of Q slightly inside the top-(k+2) subspace:
  // as long as the rotated V is still (1+eps)-good for Q, Lemma 8 says
  // it must stay (1+O(eps))-good for A.
  auto svd = ComputeSvd(q_);
  ASSERT_TRUE(svd.ok());
  const Matrix v_wide = svd->TopRightSingularVectors(k_ + 2);
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    // V = orth(V_k + noise * V_extra * G).
    Matrix mix(k_ + 2, k_);
    for (size_t j = 0; j < k_; ++j) mix(j, j) = 1.0;
    for (size_t i = k_; i < k_ + 2; ++i) {
      for (size_t j = 0; j < k_; ++j) {
        mix(i, j) = 0.15 * rng.NextGaussian();
      }
    }
    auto v = OrthonormalizeColumns(Multiply(v_wide, mix));
    ASSERT_TRUE(v.ok());
    const double q_ratio = ComponentProjectionError(q_, *v) /
                           OptimalTailEnergy(q_, k_);
    if (q_ratio <= 1.0 + eps_) {
      EXPECT_LE(EvaluatePcaQuality(a_, *v).ratio, 1.0 + 3.0 * eps_)
          << "trial " << trial << " q_ratio " << q_ratio;
    }
  }
}

TEST_F(Lemma8Test, PowerIterationPcsOfSketchTransfer) {
  // A few steps of block power iteration on Q^T Q from a random start:
  // once it is (1+eps)-good for Q it must be good for A.
  const Matrix gram = Gram(q_);
  Matrix v = GenerateGaussian(q_.cols(), k_, 1.0, 13);
  for (int it = 0; it < 12; ++it) {
    auto orth = OrthonormalizeColumns(Multiply(gram, v));
    ASSERT_TRUE(orth.ok());
    v = std::move(*orth);
  }
  const double q_ratio =
      ComponentProjectionError(q_, v) / OptimalTailEnergy(q_, k_);
  ASSERT_LE(q_ratio, 1.0 + eps_);
  EXPECT_LE(EvaluatePcaQuality(a_, v).ratio, 1.0 + 3.0 * eps_);
}

TEST_F(Lemma8Test, GarbagePcsOfSketchAreAlsoGarbageForA) {
  // Sanity: the lemma's converse direction — a subspace that is bad for
  // Q is bad for A too (the sketch is faithful both ways).
  auto junk = OrthonormalizeColumns(
      GenerateGaussian(q_.cols(), k_, 1.0, 17));
  ASSERT_TRUE(junk.ok());
  const double q_ratio =
      ComponentProjectionError(q_, *junk) / OptimalTailEnergy(q_, k_);
  const double a_ratio = EvaluatePcaQuality(a_, *junk).ratio;
  EXPECT_GT(q_ratio, 1.5);
  EXPECT_GT(a_ratio, 1.5);
}

}  // namespace
}  // namespace distsketch
