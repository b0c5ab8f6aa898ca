// Typed event hooks of the solver engines.
//
// A solver accepts a `SolverEvents` bundle and fires the hooks at
// well-defined points of the run. All hooks are optional
// (default-constructed std::function is never invoked) and are called on the
// simulation thread with read-only views of live solver state — the
// pointed-to vectors are only valid for the duration of the call.
#pragma once

#include <functional>
#include <vector>

#include "core/esr.hpp"
#include "core/failure_schedule.hpp"
#include "sim/dist_vector.hpp"
#include "util/types.hpp"

namespace rpcg {

/// Read-only view of the solver state after a completed iteration, passed to
/// `on_iteration`: x^(j+1), r^(j+1), z^(j+1) and the search direction p^(j)
/// the iteration used. Useful for progress monitoring and for testing that
/// recovery preserves the iteration trajectory exactly.
struct IterationSnapshot {
  int iteration = 0;  ///< completed iterations so far
  double rel_residual = 0.0;
  const DistVector* x = nullptr;
  const DistVector* r = nullptr;
  const DistVector* z = nullptr;
  const DistVector* p = nullptr;
};

/// One completed recovery: which nodes were rebuilt at which iteration, and
/// the reconstruction statistics (Alg. 2 costs). Also the element type of
/// SolveReport::recoveries.
struct RecoveryRecord {
  int iteration = 0;
  std::vector<NodeId> nodes;
  RecoveryStats stats;
};

/// Passed to `on_checkpoint` right after a periodic state save (the
/// checkpoint/restart baseline only).
struct CheckpointEvent {
  int iteration = 0;  ///< iteration whose state was saved
  int index = 0;      ///< 0-based count of checkpoints written so far
};

/// Optional hooks fired by the solver engines. Every hook may be empty.
struct SolverEvents {
  /// After every completed iteration (not after rollbacks/restarts).
  std::function<void(const IterationSnapshot&)> on_iteration;
  /// Right after a scheduled failure event is injected (nodes are dead,
  /// recovery has not run yet). Fired once per FailureEvent.
  std::function<void(const FailureEvent&)> on_failure_injected;
  /// After a recovery (ESR reconstruction, checkpoint rollback, or
  /// interpolation restart) has completed.
  std::function<void(const RecoveryRecord&)> on_recovery_complete;
  /// After a periodic checkpoint write.
  std::function<void(const CheckpointEvent&)> on_checkpoint;
};

}  // namespace rpcg
