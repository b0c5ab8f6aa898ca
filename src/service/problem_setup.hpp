// The immutable half of a service job's engine::Problem, shared across the
// jobs of a batch.
//
// In the paper A and the block-Jacobi M are static data; ESR rebuilds only
// the dynamic solver state (Sec. 3). A service job's Problem splits the same
// way. The repro matrix, its partition, the distributed matrix and the
// preconditioner depend only on (matrix, scale, nodes, precond): that is a
// ProblemSetup. The RHS, the clock noise, the execution policy and the
// private FactorizationCache belong to one attempt. Each attempt builds its
// Problem from a set-up through ProblemBuilder::borrow_matrix,
// borrow_dist_matrix and borrow_preconditioner, so its report is the one an
// isolated build gives.
//
// ProblemSetupCache builds each distinct set-up once per SolverService::run
// when sharing is on (ServiceOptions::shared_cache) and one per attempt when
// it is off. Concurrent requests for one key coalesce onto one build
// (util/single_flight.hpp). A failed build rethrows the original exception
// to the builder and every coalesced waiter, so an unknown preconditioner
// stays an invalid-job failure, and the key is withdrawn so a later request
// builds again.
//
// Lifetime: the cache counts the jobs per key when the run starts and drops
// a set-up when the last job naming its key finishes. Attempts still
// running hold their own reference. There is no eviction setting.
#pragma once

#include <atomic>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "engine/problem.hpp"
#include "precond/preconditioner.hpp"
#include "repro/matrices.hpp"
#include "service/job.hpp"
#include "sim/dist_matrix.hpp"
#include "sim/partition.hpp"
#include "util/single_flight.hpp"

namespace rpcg::service {

class ProblemSetup {
 public:
  struct Key {
    int matrix = 1;
    double scale = 16.0;
    int nodes = 16;
    std::string precond;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  [[nodiscard]] static Key key_of(const JobSpec& spec);

  /// Generates the repro matrix, partitions it into block rows, distributes
  /// it and builds the preconditioner by registry key. Throws
  /// std::invalid_argument for nodes < 1 or an unknown preconditioner, as
  /// ProblemBuilder does.
  explicit ProblemSetup(const Key& key);

  // Immovable: the distributed matrix and the preconditioner point at
  // partition_.
  ProblemSetup(const ProblemSetup&) = delete;
  ProblemSetup& operator=(const ProblemSetup&) = delete;

  /// A builder that borrows this set-up's matrix, distributed matrix and
  /// preconditioner; the caller adds the per-attempt parts. The set-up must
  /// outlive every Problem built from it.
  [[nodiscard]] engine::ProblemBuilder builder() const;

 private:
  std::string precond_name_;
  repro::ReproMatrix matrix_;
  Partition partition_;
  DistMatrix dist_;
  std::unique_ptr<Preconditioner> precond_;
};

class ProblemSetupCache {
 public:
  /// `jobs` is the run's whole batch; `share` follows
  /// ServiceOptions::shared_cache.
  ProblemSetupCache(std::span<const JobSpec> jobs, bool share);

  /// The set-up for `spec`'s key: shared when sharing is on, a fresh one
  /// otherwise.
  [[nodiscard]] std::shared_ptr<const ProblemSetup> acquire(
      const JobSpec& spec);

  /// Called once per job when it finishes, whether or not it acquired a
  /// set-up; drops the key's set-up after the last job naming it.
  void release(const JobSpec& spec);

  /// Set-ups built successfully so far.
  [[nodiscard]] std::uint64_t builds() const { return builds_.load(); }
  /// Set-ups the cache holds now (attempts may hold more references).
  [[nodiscard]] std::size_t resident() const {
    return flight_.stats().entries;
  }

 private:
  using SetupPtr = std::shared_ptr<const ProblemSetup>;

  [[nodiscard]] SetupPtr build(const ProblemSetup::Key& key);

  bool share_;
  SingleFlight<ProblemSetup::Key, SetupPtr> flight_;
  std::mutex mu_;
  std::map<ProblemSetup::Key, std::size_t> jobs_left_;  // guarded by mu_
  std::atomic<std::uint64_t> builds_{0};
};

}  // namespace rpcg::service
