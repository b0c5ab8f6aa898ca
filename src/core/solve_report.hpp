// The one result type of every solver engine, and the one end-of-solve
// accounting epilogue that fills it.
//
// Every engine (pcg_solve, ResilientPcg, PipelinedPcg, CheckpointRecoveryPcg,
// TwinPcg, ResilientBicgstab, ResilientStationary) returns a SolveReport and
// closes it through SolveAccounting, so the paper's two per-solve quantities
// — the per-phase simulated time (Table 2) and the residual deviation Delta
// of Eqn. 7 (Table 3) — are computed by one piece of code. The report
// serializes to the JSON dialect of the `rpcg-bench-report` perf reports
// (schema key `rpcg-solve-report/v2`), so per-solve records can be embedded
// into — or diffed against — the bench trajectory snapshots.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"  // CheckpointCostModel
#include "core/events.hpp"      // RecoveryRecord
#include "core/factorization_cache.hpp"
#include "core/failure_scenario.hpp"  // ScenarioKind
#include "sim/cluster.hpp"            // Phase, kNumPhases, ReductionTimes
#include "sim/dist_matrix.hpp"
#include "sim/dist_vector.hpp"
#include "util/timer.hpp"

namespace rpcg {

struct SolveReport {
  /// Registry key of the solver that produced this report ("pcg",
  /// "resilient-pcg", ...) and the preconditioner name it ran with. Empty
  /// when an engine is driven directly rather than through the registry.
  std::string solver;
  std::string preconditioner;

  // Convergence.
  bool converged = false;
  /// Completed iterations, including any redone after a rollback.
  int iterations = 0;
  double rel_residual = 0.0;
  double solver_residual_norm = 0.0;  ///< recurrence residual at termination
  double true_residual_norm = 0.0;    ///< ||b - A x||_2, recomputed
  double delta_metric = 0.0;          ///< Eqn. 7 residual deviation

  // Simulated time spent inside the solve, total and per accounting phase.
  double sim_time = 0.0;
  std::array<double, kNumPhases> sim_time_phase{};
  double wall_seconds = 0.0;

  // Resilience accounting.
  std::vector<RecoveryRecord> recoveries;
  int checkpoints_written = 0;
  int rolled_back_iterations = 0;  ///< work redone by the C/R baseline
  /// Failure-free per-iteration cost of the redundant copies (Sec. 4.2).
  double redundancy_overhead_per_iteration = 0.0;

  /// Split-phase reduction accounting of the solve's cluster (posted =
  /// hidden + exposed; see sim/collectives.hpp).
  ReductionTimes reductions;
  /// Pipeline depth of the solve (1 = one reduction in flight); serialized
  /// inside the reduction_time block next to `reductions.max_in_flight`.
  int reduction_depth = 1;

  /// Snapshot of the Problem's FactorizationCache at the end of the solve
  /// (the cache is problem-lifetime, so counters accumulate across solves of
  /// one Problem). Set only when the solve ran with the cache on.
  std::optional<FactorizationCache::Stats> cache_stats;

  /// Resolved cost model and interval of a solver that checkpointed under
  /// one (the "checkpoint-recovery" family).
  struct Checkpointing {
    CheckpointCostModel costs;
    int interval = 0;
  };
  std::optional<Checkpointing> checkpoint;

  /// The generated failure scenario the solve ran against; set only when a
  /// scenario (not an explicit schedule) produced the failures.
  struct Scenario {
    ScenarioKind kind = ScenarioKind::kNone;
    std::uint64_t seed = 0;
    int events = 0;
  };
  std::optional<Scenario> scenario;

  [[nodiscard]] double recovery_sim_time() const {
    return sim_time_phase[static_cast<std::size_t>(Phase::kRecovery)];
  }
  [[nodiscard]] double redundancy_sim_time() const {
    return sim_time_phase[static_cast<std::size_t>(Phase::kRedundancy)];
  }

  /// Deterministic JSON (stable key order, shortest-round-trip doubles),
  /// schema `rpcg-solve-report/v2`. The reduction_time block is always
  /// written; the factorization_cache, checkpoint and scenario blocks appear
  /// exactly when their optional is set. `indent` shifts every line right by
  /// that many spaces so reports can be embedded in a surrounding document.
  [[nodiscard]] std::string to_json(int indent = 0) const;
};

/// Recomputes the true residual norm ||b - A x||_2 without charging
/// simulated time (diagnostic; used for the Eqn. 7 metric).
[[nodiscard]] double true_residual_norm(Cluster& cluster, const DistMatrix& a,
                                        const DistVector& b,
                                        const DistVector& x);

/// The end-of-solve epilogue shared by every engine. Open it at solve entry
/// (it snapshots the per-phase clocks and starts the wall timer) and close()
/// it at every return, the zero-RHS early exits included.
class SolveAccounting {
 public:
  explicit SolveAccounting(Cluster& cluster);

  /// Fills the true residual (clock paused) and Delta from
  /// `rep.solver_residual_norm`, the per-phase simulated time since entry
  /// and its sum, the wall time, and the cluster's reduction accounting.
  void close(const DistMatrix& a, const DistVector& b, const DistVector& x,
             SolveReport& rep) const;

 private:
  Cluster& cluster_;
  std::array<double, kNumPhases> at_entry_{};
  WallTimer wall_;
};

}  // namespace rpcg
