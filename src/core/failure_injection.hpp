// The one failure-injection point of every solver engine.
//
// Alg. 1 injects fail-stop node failures at a single point per iteration:
// right after the SpMV, where the redundant copies of the current
// generation are in place. Every engine — the blocking PCG strategies, the
// pipelined engines, BiCGSTAB and the stationary sweeps — runs the same
// sequence there: take the scheduled events due now, wipe the failed nodes'
// state, charge the recovery an overlapping event cut short, fire
// on_failure_injected, hand the merged node set to its recovery, and record
// that recovery. The sequence lives here once; an engine supplies only its
// state vectors, the two redundancy-specific steps and the recovery itself.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/events.hpp"
#include "core/failure_schedule.hpp"
#include "core/solve_report.hpp"
#include "sim/cluster.hpp"
#include "sim/dist_vector.hpp"
#include "util/types.hpp"

namespace rpcg {

/// What an engine adds to the shared injection sequence. The referenced
/// cluster, vectors and hooks must outlive the injector.
struct InjectionSite {
  Cluster& cluster;
  /// The live solver state: a fail-stop failure wipes the failed nodes'
  /// blocks of every one of these vectors.
  std::vector<DistVector*> state;
  const SolverEvents& events;
  /// False for a solver without redundancy: any due event throws
  /// UnrecoverableFailure before a node is touched.
  bool recoverable = true;
  /// Drops the redundancy a failed node hosted (its backup copies); called
  /// per failed node after its state blocks are wiped. May be empty.
  std::function<void(NodeId)> invalidate_node;
  /// Charges the recovery of `merged` that an overlapping event cut short
  /// (FailureEvent::during_recovery); the recovery then restarts for the
  /// union. ESR, the pipelined engines, BiCGSTAB and the stationary sweeps
  /// charge the gathers from each of their backup stores; the checkpoint
  /// baselines and twin charge their rollback read or buddy copy. Empty
  /// for checkpoint-restart and interpolation-restart, on purpose: both are
  /// reference baselines kept at their historic cost model (the legacy
  /// checkpoint-restart awaits a deliberate re-baseline onto
  /// checkpoint-recovery, which does charge its aborted read), and a charge
  /// here would move their simulated times. Their aborted work is not
  /// modelled.
  std::function<void(std::span<const NodeId> merged)> charge_aborted;
};

/// Fire-once traversal of a FailureSchedule during a solve: each event is
/// injected exactly once, at its scheduled iteration — rollbacks that
/// revisit an iteration do not re-fire it. The schedule must outlive the
/// injector.
class FailureInjector {
 public:
  FailureInjector(const FailureSchedule& schedule, InjectionSite site);

  /// Whether a not-yet-fired event is scheduled at `iteration` (engines with
  /// reductions in flight complete them before the injection).
  [[nodiscard]] bool due(int iteration) const;

  /// Injects every not-yet-fired event scheduled at `iteration`, in
  /// schedule order, and returns the union of their nodes — the wave the
  /// caller recovers (empty when nothing is due). Per event: if it overlaps
  /// the recovery of the nodes merged so far, charge that aborted recovery;
  /// fail each node and wipe its state and redundancy; fire
  /// on_failure_injected.
  [[nodiscard]] std::vector<NodeId> inject_due(int iteration);

  /// Appends the completed recovery of a wave to the report and fires
  /// on_recovery_complete.
  void record_recovery(SolveReport& res, RecoveryRecord rec) const;

 private:
  const FailureSchedule* schedule_;
  InjectionSite site_;
  std::vector<char> fired_;
};

}  // namespace rpcg
