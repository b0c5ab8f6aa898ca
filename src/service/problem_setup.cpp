#include "service/problem_setup.hpp"

#include <stdexcept>
#include <utility>

#include "engine/registry.hpp"

namespace rpcg::service {

namespace {

Partition block_rows_checked(Index rows, int nodes) {
  if (nodes < 1)
    throw std::invalid_argument("ProblemBuilder: nodes must be >= 1");
  return Partition::block_rows(rows, nodes);
}

}  // namespace

ProblemSetup::Key ProblemSetup::key_of(const JobSpec& spec) {
  return Key{spec.matrix, spec.scale, spec.nodes, spec.precond};
}

ProblemSetup::ProblemSetup(const Key& key)
    : precond_name_(key.precond),
      matrix_(repro::make_matrix(key.matrix, key.scale)),
      partition_(block_rows_checked(matrix_.matrix.rows(), key.nodes)),
      dist_(DistMatrix::distribute(matrix_.matrix, partition_)),
      precond_(engine::PreconditionerRegistry::instance().create(
          key.precond, matrix_.matrix, partition_)) {}

engine::ProblemBuilder ProblemSetup::builder() const {
  engine::ProblemBuilder b;
  b.borrow_matrix(matrix_.matrix)
      .borrow_dist_matrix(dist_)
      .borrow_preconditioner(*precond_, precond_name_);
  return b;
}

ProblemSetupCache::ProblemSetupCache(std::span<const JobSpec> jobs, bool share)
    : share_(share) {
  if (!share_) return;
  for (const JobSpec& spec : jobs) ++jobs_left_[ProblemSetup::key_of(spec)];
}

ProblemSetupCache::SetupPtr ProblemSetupCache::build(
    const ProblemSetup::Key& key) {
  auto setup = std::make_shared<const ProblemSetup>(key);
  ++builds_;
  return setup;
}

std::shared_ptr<const ProblemSetup> ProblemSetupCache::acquire(
    const JobSpec& spec) {
  const ProblemSetup::Key key = ProblemSetup::key_of(spec);
  if (!share_) return build(key);
  return flight_.get_or_build(key, [this, &key] { return build(key); });
}

void ProblemSetupCache::release(const JobSpec& spec) {
  if (!share_) return;
  const ProblemSetup::Key key = ProblemSetup::key_of(spec);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_left_.find(key);
  if (it == jobs_left_.end() || --it->second > 0) return;
  jobs_left_.erase(it);
  flight_.erase(key);
}

}  // namespace rpcg::service
