#ifndef DISTSKETCH_WORKLOAD_PARTITION_H_
#define DISTSKETCH_WORKLOAD_PARTITION_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace distsketch {

/// How the rows of the input matrix are spread across servers. The paper
/// makes no assumption on the partition (§ "Distributed models"); these
/// schemes let tests and benches verify partition-invariance.
enum class PartitionScheme {
  /// Row i goes to server i mod s.
  kRoundRobin,
  /// Equal-size contiguous blocks.
  kContiguous,
  /// Geometrically skewed block sizes (first server largest).
  kSkewed,
  /// Each row assigned to a uniformly random server.
  kRandom,
  /// Zipf-distributed block sizes with exponent 1 (server p+1 gets
  /// ~1/(p+1) of server 1's share): the scale-out sweep's "realistic
  /// skew". For other exponents use PartitionRowsZipf directly.
  kZipf,
};

/// Splits `a` into `s` row-disjoint local matrices according to `scheme`.
/// Every row of `a` appears in exactly one part; parts may be empty (e.g.
/// random scheme with few rows).
std::vector<Matrix> PartitionRows(const Matrix& a, size_t s,
                                  PartitionScheme scheme, uint64_t seed = 0);

/// Splits `a` into `s` contiguous blocks whose sizes follow a Zipf law
/// with exponent `alpha` >= 0: server p receives a share proportional to
/// 1/(p+1)^alpha (alpha = 0 degenerates to equal blocks; larger alpha
/// concentrates rows on the first servers, the shard-skew regime the
/// scale-out sweep stresses). Deterministic: shares are rounded by
/// largest remainder, so exactly the first rows go to server 0 and every
/// row lands on exactly one server.
std::vector<Matrix> PartitionRowsZipf(const Matrix& a, size_t s,
                                      double alpha);

/// Reassembles a partition into a single matrix (order: server 0's rows,
/// then server 1's, ...). Note the row order generally differs from the
/// original matrix; covariance A^T A is invariant to row order, which is
/// what the sketches approximate.
Matrix UnpartitionRows(const std::vector<Matrix>& parts);

/// Splits `a` into `s` random additive shares for the arbitrary
/// partition model (Cluster::CreateAdditive): s-1 i.i.d. Gaussian
/// matrices at the data's scale, the last share making the sum exact —
/// the adversarial flavour of the model: every share is dense and
/// individually carries no information about A.
std::vector<Matrix> SplitAdditive(const Matrix& a, size_t s, uint64_t seed);

}  // namespace distsketch

#endif  // DISTSKETCH_WORKLOAD_PARTITION_H_
