#include "linalg/svd.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/thread_pool.h"
#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "linalg/qr.h"
#include "linalg/simd_dispatch.h"

namespace distsketch {
namespace {

// Jacobi convergence threshold on normalized off-diagonal column
// coherence, and the sweeps allowed before the one retry.
constexpr double kJacobiTol = 1e-12;
constexpr int kJacobiMaxSweeps = 60;
// Inputs taller than this times their width get a thin QR first, and
// Jacobi runs on the small R factor.
constexpr double kQrRatio = 1.2;

// Row-major column rotation: cols p and q of an m-by-n matrix. Routed
// through the dispatched kernel table (scalar entry is the historical
// loop verbatim).
inline void RotateColumns(const SimdKernelTable& kern, Matrix& a, size_t p,
                          size_t q, double c, double s) {
  kern.col_rotate(a.data(), a.rows(), a.cols(), p, q, c, s);
}

// Shared per-sweep state of the one-sided Jacobi below. Column squared
// norms are cached (they are the diagonal of the implicit Gram), so each
// pair test costs one strided dot product instead of three.
struct JacobiState {
  std::vector<double> col_norms2;
  std::vector<uint8_t> rotated;  // per-pair flags of the current round
};

// Rotates one column pair (p < q) if its off-diagonal coherence exceeds
// the threshold. Touches only columns p, q of work/v and the two norm
// slots, so disjoint pairs commute exactly — the basis of the parallel
// round-robin ordering. Returns true if a rotation was applied.
bool RotatePair(const SimdKernelTable& kern, Matrix& work, Matrix& v,
                JacobiState& state, size_t p, size_t q, double tol,
                double column_floor) {
  const size_t m = work.rows();
  const size_t n = work.cols();
  const double app = state.col_norms2[p];
  const double aqq = state.col_norms2[q];
  // Columns whose squared norm is below round-off relative to the whole
  // matrix are numerically zero (they carry sigma <= 1e-14 * ||A||_F).
  // Rotations involving them are numerical no-ops that can cycle forever
  // on rank-deficient inputs, so they are frozen.
  if (app <= column_floor || aqq <= column_floor) return false;
  const double apq = kern.col_dot(work.data(), m, n, p, q);
  // sqrt(app)*sqrt(aqq) instead of sqrt(app*aqq): the product overflows
  // for inputs scaled near 1e150+ while the factored form stays finite.
  if (std::abs(apq) <= tol * (std::sqrt(app) * std::sqrt(aqq))) return false;

  const double tau = (aqq - app) / (2.0 * apq);
  const double t = (tau >= 0.0) ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                                : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
  const double c = 1.0 / std::sqrt(1.0 + t * t);
  const double s = c * t;
  RotateColumns(kern, work, p, q, c, s);
  RotateColumns(kern, v, p, q, c, s);
  // Exact diagonal update of the implicit Gram under the annihilating
  // rotation; norms are recomputed at each sweep start to wash out drift.
  state.col_norms2[p] = app - t * apq;
  state.col_norms2[q] = aqq + t * apq;
  return true;
}

// One-sided Jacobi sweeps over `work` (m >= n), accumulating rotations
// into `v` (which must be n-by-n orthonormal on entry — identity for a
// fresh run; a retry continues from the prior state). Pair ordering is a
// fixed round-robin tournament schedule: every round is a set of disjoint
// column pairs, so rounds can run on the thread pool with results
// bit-identical to the serial schedule at any thread count.
Status JacobiSweeps(Matrix& work, Matrix& v, double tol, int max_sweeps) {
  const size_t m = work.rows();
  const size_t n = work.cols();
  DS_CHECK(m >= n);
  if (n < 2) return Status::OK();

  // One table for the whole solve so every round of every sweep — serial
  // or pooled — runs the same backend.
  const SimdKernelTable& kern = ActiveSimd();
  CountSimdKernelCall("jacobi");

  JacobiState state;
  state.col_norms2.assign(n, 0.0);

  // Pad to an even number of players; pairs touching the pad are skipped.
  const size_t padded = n + (n & 1);
  const size_t rounds = padded - 1;
  const size_t pairs_per_round = padded / 2;
  state.rotated.assign(pairs_per_round, 0);

  // Parallel rounds only pay off once the per-pair dot products dominate
  // the pool's per-index claim; below that (or inside another ParallelFor,
  // which the pool cannot nest) the same schedule runs inline.
  ThreadPool& pool = ThreadPool::Global();
  const bool threaded = pool.num_threads() > 1 &&
                        !ThreadPool::InParallelRegion() && m * n >= 16384;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    // Refresh the cached column norms and the freeze floor.
    double total = 0.0;
    std::fill(state.col_norms2.begin(), state.col_norms2.end(), 0.0);
    for (size_t i = 0; i < m; ++i) {
      const double* row = work.data() + i * n;
      for (size_t j = 0; j < n; ++j) {
        state.col_norms2[j] += row[j] * row[j];
      }
    }
    for (const double cn : state.col_norms2) total += cn;
    const double column_floor = 1e-28 * total;

    bool rotated = false;
    for (size_t r = 0; r < rounds; ++r) {
      // Circle-method round-robin: player padded-1 is fixed, the rest
      // rotate; round r pairs (padded-1, r) and ((r+k), (r-k)) mod rounds.
      auto pair_of = [&](size_t k, size_t* p, size_t* q) {
        size_t a, b;
        if (k == 0) {
          a = padded - 1;
          b = r;
        } else {
          a = (r + k) % rounds;
          b = (r + rounds - k) % rounds;
        }
        *p = std::min(a, b);
        *q = std::max(a, b);
      };
      auto run_pair = [&](size_t k) {
        size_t p, q;
        pair_of(k, &p, &q);
        state.rotated[k] =
            (q < n && RotatePair(kern, work, v, state, p, q, tol,
                                 column_floor))
                ? 1
                : 0;
      };
      if (threaded) {
        pool.ParallelFor(pairs_per_round, run_pair);
      } else {
        for (size_t k = 0; k < pairs_per_round; ++k) run_pair(k);
      }
      for (size_t k = 0; k < pairs_per_round; ++k) {
        rotated = rotated || state.rotated[k] != 0;
      }
    }
    if (!rotated) return Status::OK();
  }
  return Status::NumericalError("one-sided Jacobi SVD did not converge");
}

// Runs Jacobi, and on non-convergence retries once with extra sweeps and
// a slightly relaxed threshold, continuing from the partially-rotated
// state (the sweeps are monotone, so nothing is lost). The event is rare
// enough that a stderr note is worth more than silent latency.
Status OneSidedJacobi(Matrix& work, Matrix& v) {
  v = Matrix::Identity(work.cols());
  Status status = JacobiSweeps(work, v, kJacobiTol, kJacobiMaxSweeps);
  if (status.code() != StatusCode::kNumericalError) return status;
  const int retry_sweeps = 2 * kJacobiMaxSweeps;
  const double retry_tol = 1e-11;
  std::fprintf(stderr,
               "[distsketch] Jacobi SVD hit max_sweeps=%d (%zux%zu); "
               "retrying with max_sweeps=%d tol=%g\n",
               kJacobiMaxSweeps, work.rows(), work.cols(), retry_sweeps,
               retry_tol);
  return JacobiSweeps(work, v, retry_tol, retry_sweeps);
}

// Extracts sigma and normalized U columns from work = U*diag(sigma);
// sorts everything by non-increasing sigma.
SvdResult FinalizeFromColumns(Matrix work, Matrix v) {
  const size_t m = work.rows();
  const size_t n = work.cols();
  SvdResult out;
  out.singular_values.resize(n);
  for (size_t j = 0; j < n; ++j) {
    double norm2 = 0.0;
    for (size_t i = 0; i < m; ++i) norm2 += work(i, j) * work(i, j);
    out.singular_values[j] = std::sqrt(norm2);
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return out.singular_values[a] > out.singular_values[b];
  });

  SvdResult sorted;
  sorted.singular_values.resize(n);
  sorted.u.SetZero(m, n);
  sorted.v.SetZero(v.rows(), n);
  for (size_t jj = 0; jj < n; ++jj) {
    const size_t j = order[jj];
    const double sigma = out.singular_values[j];
    sorted.singular_values[jj] = sigma;
    if (sigma > 0.0) {
      const double inv = 1.0 / sigma;
      for (size_t i = 0; i < m; ++i) sorted.u(i, jj) = work(i, j) * inv;
    }
    for (size_t i = 0; i < v.rows(); ++i) sorted.v(i, jj) = v(i, j);
  }
  return sorted;
}

// Last-resort route when Jacobi refuses to converge even after the retry:
// eigendecompose A^T A (d-by-d) and reconstruct U = A V Sigma^-1 for the
// numerically nonzero directions. Less accurate on the smallest singular
// values (the Gram squares the condition number) but always terminates.
StatusOr<SvdResult> GramFallbackSvd(const Matrix& a) {
  const size_t m = a.rows();
  const size_t n = a.cols();
  DS_CHECK(m >= n);
  DS_ASSIGN_OR_RETURN(SymmetricEigenResult eig,
                      ComputeSymmetricEigen(Gram(a)));
  SvdResult out;
  out.singular_values.resize(n);
  out.v = std::move(eig.eigenvectors);
  out.u.SetZero(m, n);
  double lambda_max = 0.0;
  for (size_t j = 0; j < n; ++j) {
    lambda_max = std::max(lambda_max, std::max(eig.eigenvalues[j], 0.0));
  }
  const double lambda_floor = lambda_max * 1e-30;
  for (size_t j = 0; j < n; ++j) {
    const double lambda = std::max(eig.eigenvalues[j], 0.0);
    out.singular_values[j] = std::sqrt(lambda);
    if (lambda <= lambda_floor) continue;  // leave a zero U column
    const double inv = 1.0 / out.singular_values[j];
    for (size_t i = 0; i < m; ++i) {
      double acc = 0.0;
      const double* row = a.data() + i * n;
      for (size_t t = 0; t < n; ++t) acc += row[t] * out.v(t, j);
      out.u(i, j) = acc * inv;
    }
  }
  return out;
}

}  // namespace

Matrix SvdResult::Reconstruct() const {
  Matrix us = u;
  for (size_t j = 0; j < singular_values.size(); ++j) {
    for (size_t i = 0; i < us.rows(); ++i) us(i, j) *= singular_values[j];
  }
  return MultiplyTransposeB(us, v);
}

Matrix SvdResult::AggregatedForm() const {
  // Row j of agg(A) is sigma_j * v_j^T.
  Matrix agg(singular_values.size(), v.rows());
  for (size_t j = 0; j < singular_values.size(); ++j) {
    for (size_t i = 0; i < v.rows(); ++i) {
      agg(j, i) = singular_values[j] * v(i, j);
    }
  }
  return agg;
}

Matrix SvdResult::RankKApproximation(size_t k) const {
  k = std::min(k, singular_values.size());
  if (k == 0) return Matrix(u.rows(), v.rows());
  Matrix us(u.rows(), k);
  for (size_t j = 0; j < k; ++j) {
    for (size_t i = 0; i < u.rows(); ++i) {
      us(i, j) = u(i, j) * singular_values[j];
    }
  }
  Matrix vk(v.rows(), k);
  for (size_t j = 0; j < k; ++j) {
    for (size_t i = 0; i < v.rows(); ++i) vk(i, j) = v(i, j);
  }
  return MultiplyTransposeB(us, vk);
}

double SvdResult::TailEnergy(size_t k) const {
  double acc = 0.0;
  for (size_t j = std::min(k, singular_values.size());
       j < singular_values.size(); ++j) {
    acc += singular_values[j] * singular_values[j];
  }
  return acc;
}

Matrix SvdResult::TopRightSingularVectors(size_t k) const {
  k = std::min(k, singular_values.size());
  Matrix vk(v.rows(), k);
  for (size_t j = 0; j < k; ++j) {
    for (size_t i = 0; i < v.rows(); ++i) vk(i, j) = v(i, j);
  }
  return vk;
}

StatusOr<SvdResult> ComputeSvd(const Matrix& a) {
  if (a.empty()) {
    return Status::InvalidArgument("ComputeSvd: empty input");
  }
  const size_t m = a.rows();
  const size_t n = a.cols();

  if (m < n) {
    // Wide input: SVD of the transpose, then swap the factors.
    DS_ASSIGN_OR_RETURN(SvdResult t, ComputeSvd(Transpose(a)));
    SvdResult out;
    out.u = std::move(t.v);
    out.v = std::move(t.u);
    out.singular_values = std::move(t.singular_values);
    return out;
  }

  if (static_cast<double>(m) >
      kQrRatio * static_cast<double>(n)) {
    // Tall input: A = Q R, SVD(R) = Ur S V^T, so A = (Q Ur) S V^T.
    DS_ASSIGN_OR_RETURN(QrResult qr, HouseholderQr(a));
    Matrix work = std::move(qr.r);
    Matrix v;
    Status jacobi = OneSidedJacobi(work, v);
    if (jacobi.code() == StatusCode::kNumericalError) {
      std::fprintf(stderr,
                   "[distsketch] Jacobi SVD retry failed; falling back to "
                   "the Gram route\n");
      return GramFallbackSvd(a);
    }
    DS_RETURN_IF_ERROR(jacobi);
    SvdResult inner = FinalizeFromColumns(std::move(work), std::move(v));
    SvdResult out;
    out.u = Multiply(qr.q, inner.u);
    out.singular_values = std::move(inner.singular_values);
    out.v = std::move(inner.v);
    return out;
  }

  Matrix work = a;
  Matrix v;
  Status jacobi = OneSidedJacobi(work, v);
  if (jacobi.code() == StatusCode::kNumericalError) {
    std::fprintf(stderr,
                 "[distsketch] Jacobi SVD retry failed; falling back to "
                 "the Gram route\n");
    return GramFallbackSvd(a);
  }
  DS_RETURN_IF_ERROR(jacobi);
  return FinalizeFromColumns(std::move(work), std::move(v));
}

Status ComputeSvdSigmaV(const Matrix& a, std::vector<double>* sigma,
                        Matrix* v) {
  if (a.empty()) {
    return Status::InvalidArgument("ComputeSvdSigmaV: empty input");
  }
  const size_t m = a.rows();
  const size_t n = a.cols();

  if (m < n) {
    // Wide input: V of A is U of A^T, so the transpose path cannot skip
    // the U factor and the full SVD is the cheapest correct option.
    DS_ASSIGN_OR_RETURN(SvdResult t, ComputeSvd(Transpose(a)));
    *sigma = std::move(t.singular_values);
    *v = std::move(t.u);
    return Status::OK();
  }

  Matrix work;
  if (static_cast<double>(m) >
      kQrRatio * static_cast<double>(n)) {
    // Q is dropped on the floor: sigma and V are invariant under the
    // orthogonal row mixing, and skipping the Q*U reconstruction is the
    // whole point of this entry.
    DS_ASSIGN_OR_RETURN(QrResult qr, HouseholderQr(a));
    work = std::move(qr.r);
  } else {
    work = a;
  }

  Matrix rot;
  Status jacobi = OneSidedJacobi(work, rot);
  if (jacobi.code() == StatusCode::kNumericalError) {
    std::fprintf(stderr,
                 "[distsketch] Jacobi SVD retry failed; falling back to "
                 "the Gram route\n");
    DS_ASSIGN_OR_RETURN(SvdResult g, GramFallbackSvd(a));
    *sigma = std::move(g.singular_values);
    *v = std::move(g.v);
    return Status::OK();
  }
  DS_RETURN_IF_ERROR(jacobi);

  // Sigma is the column norms of the rotated work; permute V to match the
  // non-increasing order. U's normalization pass never happens.
  std::vector<double> sig(n);
  for (size_t j = 0; j < n; ++j) {
    double norm2 = 0.0;
    for (size_t i = 0; i < work.rows(); ++i) norm2 += work(i, j) * work(i, j);
    sig[j] = std::sqrt(norm2);
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t x, size_t y) { return sig[x] > sig[y]; });
  sigma->resize(n);
  v->SetZero(n, n);
  for (size_t jj = 0; jj < n; ++jj) {
    const size_t j = order[jj];
    (*sigma)[jj] = sig[j];
    for (size_t i = 0; i < n; ++i) (*v)(i, jj) = rot(i, j);
  }
  return Status::OK();
}

StatusOr<std::vector<double>> SingularValues(const Matrix& a) {
  DS_ASSIGN_OR_RETURN(SvdResult svd, ComputeSvd(a));
  return std::move(svd.singular_values);
}

}  // namespace distsketch
