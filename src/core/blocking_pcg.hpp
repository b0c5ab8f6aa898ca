// The blocking Alg. 1 loop shared by every resilient PCG strategy.
//
// ESR, checkpoint/restart and interpolation-restart (ResilientPcg),
// checkpoint-recovery (CheckpointRecoveryPcg) and twin redundancy (TwinPcg)
// all run the same PCG iteration with the same single failure-injection
// point right after the SpMV. They differ only in what they record each
// iteration (backup copies, a periodic checkpoint, a buddy mirror), in how
// they rebuild the lost state, and in whether the iteration then resumes or
// rolls back. run_blocking_pcg owns everything else — initialization, the
// injection point, the RecoveryRecord and the hook calls, the iteration
// report and the convergence test — and takes the differences as hooks.
// Every step charges in a fixed order; the clock-advance sequence is part
// of the contract (bit-for-bit reproducible reports).
#pragma once

#include <functional>
#include <optional>
#include <span>

#include "core/events.hpp"
#include "core/failure_schedule.hpp"
#include "core/solve_report.hpp"
#include "solver/pcg.hpp"
#include "solver/pcg_kernel.hpp"

namespace rpcg {

/// What one resilience strategy adds to the blocking loop. Every hook may be
/// empty; the defaults are plain PCG.
struct BlockingPcgStrategy {
  /// Keep p^(j) as p_prev before each direction update (ESR reconstructs
  /// from both generations).
  bool keep_previous_direction = false;
  /// Every `checkpoint_interval` iterations (0 = never) the loop top calls
  /// save_checkpoint(j), which saves the state and charges the write.
  int checkpoint_interval = 0;
  std::function<void(int j)> save_checkpoint;
  /// After the SpMV u = A p: distributes this iteration's redundancy.
  std::function<void()> after_spmv;
  /// After initialization and after every direction update: the loop-top
  /// state of the next iteration is in place.
  std::function<void()> direction_ready;
  /// The redundancy-specific steps of the injection (InjectionSite).
  std::function<void(NodeId)> invalidate_node;
  std::function<void(std::span<const NodeId> merged)> charge_aborted;
  /// Rebuilds the state lost on `failed` at the injection point of
  /// iteration j and fills `stats` (pre-filled with psi and lost_rows).
  /// Returns nullopt to resume iteration j — u = A p must then be valid
  /// again — or the iteration the loop restarts at: a rollback target, or j
  /// itself for a restart. Without it (plain PCG) any injected failure
  /// throws UnrecoverableFailure.
  std::function<std::optional<int>(int j, std::span<const NodeId> failed,
                                   RecoveryStats& stats)>
      recover;
};

/// Runs Alg. 1 on `kernel` from the initial guess in x, injecting failures
/// per schedule and handling them with `strategy`. The kernel's cluster must
/// have all nodes alive on entry.
[[nodiscard]] SolveReport run_blocking_pcg(PcgKernel& kernel,
                                           const DistVector& b, DistVector& x,
                                           const FailureSchedule& schedule,
                                           const PcgOptions& opts,
                                           const SolverEvents& events,
                                           const BlockingPcgStrategy& strategy);

}  // namespace rpcg
