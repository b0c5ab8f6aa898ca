#include "core/interpolation_restart.hpp"

#include "util/check.hpp"

namespace rpcg {

RecoveryStats interpolation_restart_recover(Cluster& cluster,
                                            const CsrMatrix& a_global,
                                            std::span<const NodeId> failed,
                                            const DistVector& b, DistVector& x,
                                            const EsrOptions& opts) {
  RPCG_CHECK(!failed.empty(), "nothing to recover");
  const Partition& part = cluster.partition();
  const double t_before = cluster.clock().in_phase(Phase::kRecovery);
  RecoveryStats stats;
  stats.psi = static_cast<int>(failed.size());

  esr_replace_and_refetch(cluster, a_global, failed);

  const std::vector<Index> rows = part.rows_of_set(failed);
  stats.lost_rows = static_cast<Index>(rows.size());

  // Interpolate the lost iterate (no residual term: this is the heuristic).
  std::vector<double> x_f(rows.size());
  const LocalSolveOutcome outcome =
      esr_solve_lost_x(cluster, a_global, rows, {}, b, x, x_f, opts);
  stats.local_solve_iterations = outcome.iterations;
  stats.local_solve_rel_residual = outcome.rel_residual;

  const LostRows installs[] = {{&x, x_f}};
  esr_install_lost_rows(part, failed, installs);
  stats.sim_seconds = cluster.clock().in_phase(Phase::kRecovery) - t_before;
  return stats;
}

}  // namespace rpcg
