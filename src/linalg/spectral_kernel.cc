#include "linalg/spectral_kernel.h"

#include <algorithm>
#include <cmath>

#include "linalg/blas.h"
#include "telemetry/telemetry.h"

namespace distsketch {
namespace {

// kAuto's conditioning veto: the Gram route is abandoned when
// lambda_min <= kConditionFloor * lambda_max (see ComputeSigmaVt).
constexpr double kConditionFloor = 1e-13;

}  // namespace

Matrix SpectralResult::AggregatedForm() const {
  Matrix agg(singular_values.size(), v.rows());
  for (size_t j = 0; j < singular_values.size(); ++j) {
    for (size_t i = 0; i < v.rows(); ++i) {
      agg(j, i) = singular_values[j] * v(i, j);
    }
  }
  return agg;
}

Matrix SpectralResult::TopRightSingularVectors(size_t k) const {
  k = std::min(k, singular_values.size());
  Matrix vk(v.rows(), k);
  for (size_t j = 0; j < k; ++j) {
    for (size_t i = 0; i < v.rows(); ++i) vk(i, j) = v(i, j);
  }
  return vk;
}

double SpectralResult::TailEnergy(size_t k) const {
  double acc = 0.0;
  for (size_t j = std::min(k, singular_values.size());
       j < singular_values.size(); ++j) {
    acc += singular_values[j] * singular_values[j];
  }
  return acc;
}

StatusOr<SpectralResult> ComputeSigmaVt(const Matrix& a,
                                        const SpectralKernelOptions& options,
                                        SvdWorkspace* ws) {
  if (a.empty()) {
    return Status::InvalidArgument("ComputeSigmaVt: empty input");
  }
  SvdWorkspace local;
  if (ws == nullptr) ws = &local;
  const size_t m = a.rows();
  const size_t d = a.cols();
  const size_t r = std::min(m, d);

  // Pre-scale extreme inputs: the Gram squares entries (overflow past
  // ~1e154) and Jacobi's total-energy accumulator sums m*d squares, so
  // anything outside [1e-100, 1e100] works on a rescaled copy and sigma
  // is scaled back on output. V is scale-invariant.
  const double alpha = MaxAbs(a);
  double scale_back = 1.0;
  const Matrix* src = &a;
  if (alpha > 0.0 && (alpha > 1e100 || alpha < 1e-100)) {
    ws->scaled = a;
    ws->scaled.Scale(1.0 / alpha);
    src = &ws->scaled;
    scale_back = alpha;
  }

  const bool want_gram =
      options.route == SpectralRoute::kGram ||
      (options.route == SpectralRoute::kAuto && m >= d);
  if (want_gram) {
    GramParallelInto(*src, ws->gram);
    const Status eig_status =
        ComputeSymmetricEigenInto(ws->gram, &ws->eig, &ws->eig_ws);
    if (!eig_status.ok() && options.route == SpectralRoute::kGram) {
      return eig_status;
    }
    bool usable = eig_status.ok();
    if (usable && options.route == SpectralRoute::kAuto) {
      const double lambda_max = std::max(ws->eig.eigenvalues.front(), 0.0);
      const double lambda_min = std::max(ws->eig.eigenvalues.back(), 0.0);
      // Conditioning veto: lambda_min/lambda_max near machine epsilon
      // means sigma_min was squared into the round-off of the Gram and
      // only Jacobi can recover it.
      if (lambda_max <= 0.0 ||
          lambda_min <= kConditionFloor * lambda_max) {
        usable = false;
        telemetry::Count("kernel.route.gram_vetoed");
      }
    }
    if (usable) {
      SpectralResult out;
      out.route_used = SpectralRoute::kGram;
      telemetry::Count("kernel.route.gram");
      out.singular_values.resize(r);
      for (size_t j = 0; j < r; ++j) {
        out.singular_values[j] =
            scale_back * std::sqrt(std::max(ws->eig.eigenvalues[j], 0.0));
      }
      if (r == d) {
        out.v = std::move(ws->eig.eigenvectors);
      } else {
        // Wide input under forced kGram: A has at most m nonzero singular
        // values, so only the leading m eigenvector columns are returned.
        out.v.SetZero(d, r);
        for (size_t j = 0; j < r; ++j) {
          for (size_t i = 0; i < d; ++i) {
            out.v(i, j) = ws->eig.eigenvectors(i, j);
          }
        }
      }
      return out;
    }
    // Fall through to Jacobi (kAuto only).
  }

  SpectralResult out;
  out.route_used = SpectralRoute::kJacobi;
  telemetry::Count("kernel.route.jacobi");
  DS_RETURN_IF_ERROR(
      ComputeSvdSigmaV(*src, &out.singular_values, &out.v));
  if (scale_back != 1.0) {
    for (double& s : out.singular_values) s *= scale_back;
  }
  return out;
}

}  // namespace distsketch
