// The resilient PCG solver — the user-facing engine of this library.
//
// It executes the PCG iteration of Alg. 1 on the simulated cluster and, when
// ESR is enabled, distributes phi redundant copies of the two most recent
// search directions during every SpMV (piggybacked per Eqns. 5-6). Scheduled
// node failures are injected right after the SpMV; recovery runs via exact
// state reconstruction (Alg. 2), checkpoint rollback, or interpolation
// restart, depending on the configured method. With phi = 0 and method
// kNone, the engine is exactly the reference (non-resilient) PCG.
#pragma once

#include <array>
#include <utility>

#include "core/backup_store.hpp"
#include "core/esr.hpp"
#include "core/events.hpp"
#include "core/failure_schedule.hpp"
#include "core/redundancy.hpp"
#include "core/solve_report.hpp"
#include "precond/preconditioner.hpp"
#include "sim/cluster.hpp"
#include "sim/dist_matrix.hpp"
#include "sim/dist_vector.hpp"
#include "solver/pcg.hpp"
#include "util/enum_names.hpp"
#include "util/maybe_owned.hpp"

namespace rpcg {

enum class RecoveryMethod {
  kNone,                  ///< no resilience: any failure throws
  kEsr,                   ///< exact state reconstruction (this paper)
  kCheckpointRestart,     ///< periodic checkpoint + global rollback
  kInterpolationRestart,  ///< Langou-style interpolation + restart
};

template <>
struct EnumNames<RecoveryMethod> {
  static constexpr const char* context = "recovery method";
  static constexpr std::array<std::pair<RecoveryMethod, const char*>, 4> table{
      {{RecoveryMethod::kNone, "none"},
       {RecoveryMethod::kEsr, "esr"},
       {RecoveryMethod::kCheckpointRestart, "checkpoint-restart"},
       {RecoveryMethod::kInterpolationRestart, "interpolation-restart"}}};
};

[[nodiscard]] std::string to_string(RecoveryMethod m);

struct ResilientPcgOptions {
  PcgOptions pcg;
  RecoveryMethod method = RecoveryMethod::kNone;
  /// Number of redundant copies (tolerated simultaneous failures); >= 1 for
  /// kEsr, must be 0 otherwise.
  int phi = 0;
  BackupStrategy strategy = BackupStrategy::kPaperAlternating;
  EsrOptions esr;
  /// Checkpoint interval in iterations (kCheckpointRestart only).
  int checkpoint_interval = 50;
  /// Seed for the kRandom backup strategy.
  std::uint64_t strategy_seed = 0;
  /// Typed event hooks (core/events.hpp).
  SolverEvents events;
};

class ResilientPcg {
 public:
  /// `a_global` is the reliable static copy of A (kept for reconstruction),
  /// `a` its distributed form over the cluster's partition. Both must
  /// outlive the solver, as must the preconditioner and cluster. (Keeping
  /// the DistMatrix external lets experiment harnesses reuse the scatter
  /// plan across many solves.)
  ResilientPcg(Cluster& cluster, const CsrMatrix& a_global, const DistMatrix& a,
               const Preconditioner& m, ResilientPcgOptions opts);

  /// Convenience constructor that distributes the matrix internally.
  ResilientPcg(Cluster& cluster, const CsrMatrix& a_global,
               const Preconditioner& m, ResilientPcgOptions opts);

  /// Solves A x = b from the initial guess in x; failures are injected per
  /// schedule. The cluster must have all nodes alive on entry.
  [[nodiscard]] SolveReport solve(const DistVector& b, DistVector& x,
                                  const FailureSchedule& schedule = {});

  [[nodiscard]] const DistMatrix& matrix() const { return *a_; }
  [[nodiscard]] const RedundancyScheme& redundancy() const { return scheme_; }
  [[nodiscard]] const ResilientPcgOptions& options() const { return opts_; }

  /// Failure-free per-iteration communication overhead of the redundancy
  /// (simulated seconds), i.e. the quantity bounded in Sec. 4.2.
  [[nodiscard]] double redundancy_overhead_per_iteration() const {
    return redundancy_step_cost_;
  }

 private:
  ResilientPcg(Cluster& cluster, const CsrMatrix& a_global,
               MaybeOwned<DistMatrix> a, const Preconditioner& m,
               ResilientPcgOptions opts);

  Cluster& cluster_;
  const CsrMatrix* a_global_;
  const Preconditioner* m_;
  ResilientPcgOptions opts_;
  /// Owns the distributed matrix when the convenience ctor built it,
  /// borrows it otherwise — the same ownership model as engine::Problem.
  MaybeOwned<DistMatrix> a_;
  RedundancyScheme scheme_;
  BackupStore store_;
  double redundancy_step_cost_ = 0.0;  // max_i(base+extra) - max_i(base)
};

}  // namespace rpcg
