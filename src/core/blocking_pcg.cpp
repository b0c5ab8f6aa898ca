#include "core/blocking_pcg.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "core/failure_injection.hpp"
#include "util/check.hpp"

namespace rpcg {

SolveReport run_blocking_pcg(PcgKernel& kernel, const DistVector& b,
                             DistVector& x, const FailureSchedule& schedule,
                             const PcgOptions& opts, const SolverEvents& events,
                             const BlockingPcgStrategy& strategy) {
  Cluster& cluster = kernel.cluster();
  RPCG_CHECK(cluster.alive_count() == cluster.num_nodes(),
             "all nodes must be alive at solve entry");
  const SolveAccounting accounting(cluster);
  const Phase it = Phase::kIteration;

  // Line 1 of Alg. 1: r = b - A x, z = M^{-1} r, p = z. p_prev stays zero
  // (p^(-1) = 0, consistent with beta^(-1) = 0 at a j = 0 failure).
  const double rnorm0 = std::sqrt(kernel.initialize(b, x, it).rr);
  if (strategy.direction_ready) strategy.direction_ready();

  SolveReport res;
  res.converged = rnorm0 == 0.0;
  FailureInjector injector(
      schedule,
      {cluster, kernel.state_vectors(x), events,
       static_cast<bool>(strategy.recover), strategy.invalidate_node,
       strategy.charge_aborted});
  const int interval = strategy.checkpoint_interval;
  int last_checkpoint = -1;

  int j = 0;
  while (!res.converged && j < opts.max_iterations) {
    // Periodic state save at the loop top; a rollback to the saved
    // iteration does not save it again.
    if (interval > 0 && j % interval == 0 && j != last_checkpoint) {
      strategy.save_checkpoint(j);
      last_checkpoint = j;
      ++res.checkpoints_written;
      if (events.on_checkpoint)
        events.on_checkpoint({j, res.checkpoints_written - 1});
    }

    // Lines 3/5 SpMV: u = A p, with the strategy's redundancy riding on it.
    kernel.spmv_direction(it);
    if (strategy.after_spmv) strategy.after_spmv();

    // --- Failure injection point (this iteration's redundancy in place). ---
    const std::vector<NodeId> failed = injector.inject_due(j);
    if (!failed.empty()) {
      RecoveryRecord rec{j, failed, {}};
      rec.stats.psi = static_cast<int>(failed.size());
      rec.stats.lost_rows =
          static_cast<Index>(cluster.partition().rows_of_set(failed).size());
      const std::optional<int> restart =
          strategy.recover(j, failed, rec.stats);
      injector.record_recovery(res, std::move(rec));
      if (restart) {
        res.rolled_back_iterations += j - *restart;
        j = *restart;
        continue;
      }
    }

    // Lines 3-8 of Alg. 1.
    const double pap = kernel.direction_curvature(it);
    const double alpha = kernel.rz / pap;
    kernel.descend(alpha, x, it);
    const DotPair d = kernel.precondition(it);
    ++res.iterations;
    res.rel_residual = std::sqrt(d.rr) / rnorm0;
    res.solver_residual_norm = std::sqrt(d.rr);
    if (events.on_iteration) {
      IterationSnapshot snap;
      snap.iteration = res.iterations;
      snap.rel_residual = res.rel_residual;
      snap.x = &x;
      snap.r = &kernel.r;
      snap.z = &kernel.z;
      snap.p = &kernel.p;
      events.on_iteration(snap);
    }
    if (res.rel_residual <= opts.rtol) {
      res.converged = true;
      break;
    }
    kernel.advance_direction(d, strategy.keep_previous_direction, it);
    if (strategy.direction_ready) strategy.direction_ready();
    ++j;
  }

  accounting.close(kernel.matrix(), b, x, res);
  return res;
}

}  // namespace rpcg
