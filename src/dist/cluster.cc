#include "dist/cluster.h"

#include "linalg/blas.h"

namespace distsketch {

Server::Server(int id, Matrix local_rows)
    : id_(id),
      local_rows_(std::move(local_rows)),
      squared_frobenius_norm_(SquaredFrobeniusNorm(local_rows_)) {}

Cluster::Cluster(std::vector<Server> servers, size_t dim, size_t total_rows,
                 CostModel cost_model, PartitionModel partition)
    : servers_(std::move(servers)),
      dim_(dim),
      total_rows_(total_rows),
      partition_(partition),
      cost_model_(cost_model),
      wire_(cost_model.bits_per_word()) {}

StatusOr<Cluster> Cluster::Create(std::vector<Matrix> parts,
                                  double eps_hint) {
  if (parts.empty()) {
    return Status::InvalidArgument("Cluster: no server partitions");
  }
  size_t dim = 0;
  size_t total_rows = 0;
  for (const auto& p : parts) {
    if (p.cols() > 0) {
      if (dim == 0) dim = p.cols();
      if (p.cols() != dim) {
        return Status::InvalidArgument(
            "Cluster: partitions disagree on column count");
      }
    }
    total_rows += p.rows();
  }
  if (dim == 0) {
    return Status::InvalidArgument("Cluster: all partitions empty");
  }
  if (eps_hint <= 0.0) {
    return Status::InvalidArgument("Cluster: eps_hint must be positive");
  }
  std::vector<Server> servers;
  servers.reserve(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    Matrix rows = std::move(parts[i]);
    if (rows.cols() == 0) rows.SetZero(0, dim);
    servers.emplace_back(static_cast<int>(i), std::move(rows));
  }
  CostModel cost_model(std::max<uint64_t>(total_rows, 1), dim, eps_hint);
  return Cluster(std::move(servers), dim, total_rows, cost_model,
                 PartitionModel::kRows);
}

StatusOr<Cluster> Cluster::CreateSparse(std::vector<Matrix> parts,
                                        double eps_hint, double tol) {
  DS_ASSIGN_OR_RETURN(Cluster cluster, Create(std::move(parts), eps_hint));
  for (auto& server : cluster.servers_) {
    server.AttachSparse(std::make_shared<CsrMatrix>(
        CsrMatrix::FromDense(server.local_rows(), tol)));
  }
  return cluster;
}

StatusOr<Cluster> Cluster::CreateAdditive(std::vector<Matrix> shares,
                                          double eps_hint) {
  if (shares.empty()) {
    return Status::InvalidArgument("Cluster: no additive shares");
  }
  if (eps_hint <= 0.0) {
    return Status::InvalidArgument("Cluster: eps_hint must be positive");
  }
  const size_t rows = shares[0].rows();
  const size_t dim = shares[0].cols();
  if (rows == 0 || dim == 0) {
    return Status::InvalidArgument("Cluster: empty additive shares");
  }
  std::vector<Server> servers;
  servers.reserve(shares.size());
  for (size_t i = 0; i < shares.size(); ++i) {
    if (shares[i].rows() != rows || shares[i].cols() != dim) {
      return Status::InvalidArgument(
          "Cluster: additive shares must have identical shape");
    }
    servers.emplace_back(static_cast<int>(i), std::move(shares[i]));
  }
  return Cluster(std::move(servers), dim, rows, CostModel(rows, dim, eps_hint),
                 PartitionModel::kAdditive);
}

Matrix Cluster::AssembleGroundTruth() const {
  if (partition_ == PartitionModel::kAdditive) {
    Matrix sum(total_rows_, dim_);
    for (const auto& s : servers_) {
      const Matrix& share = s.local_rows();
      for (size_t k = 0; k < sum.size(); ++k) sum.data()[k] += share.data()[k];
    }
    return sum;
  }
  std::vector<const Matrix*> parts;
  parts.reserve(servers_.size());
  for (const auto& s : servers_) parts.push_back(&s.local_rows());
  return ConcatRows(parts);
}

}  // namespace distsketch
