#include "core/checkpoint_recovery.hpp"

#include <optional>
#include <span>
#include <utility>

#include "core/blocking_pcg.hpp"
#include "core/errors.hpp"
#include "core/esr.hpp"  // esr_replace_and_refetch
#include "solver/pcg_kernel.hpp"
#include "util/check.hpp"

namespace rpcg {

CheckpointRecoveryPcg::CheckpointRecoveryPcg(Cluster& cluster,
                                             const CsrMatrix& a_global,
                                             const DistMatrix& a,
                                             const Preconditioner& m,
                                             CheckpointRecoveryOptions opts)
    : cluster_(cluster),
      a_global_(&a_global),
      a_(&a),
      m_(&m),
      opts_(std::move(opts)) {
  RPCG_CHECK(opts_.interval >= 1, "checkpoint interval must be >= 1");
}

SolveReport CheckpointRecoveryPcg::solve(const DistVector& b, DistVector& x,
                                         const FailureSchedule& schedule) {
  PcgKernel kernel(cluster_, *a_, *m_);
  CheckpointStore ckpt;
  // All nodes access their 3 blocks concurrently; the largest one decides.
  const Index payload = 3 * cluster_.partition().max_block_size();
  const double write_cost = opts_.costs.write_cost(cluster_.comm(), payload);
  const double read_cost = opts_.costs.read_cost(cluster_.comm(), payload);

  BlockingPcgStrategy s;
  s.checkpoint_interval = opts_.interval;
  s.save_checkpoint = [&](int j) {
    ckpt.save(j, {&x, &kernel.r, &kernel.p}, {kernel.rz, kernel.beta_prev});
    cluster_.charge(Phase::kCheckpoint, write_cost);
  };
  s.charge_aborted = [&](std::span<const NodeId>) {
    // The rollback read of the nodes failed so far was underway and is
    // lost; it is redone for the union.
    cluster_.charge(Phase::kRecovery, read_cost);
  };
  s.recover = [&](int, std::span<const NodeId> failed,
                  RecoveryStats& stats) -> std::optional<int> {
    if (static_cast<int>(failed.size()) >= cluster_.num_nodes()) {
      throw UnrecoverableFailure(
          "checkpoint recovery needs at least one survivor to detect the "
          "failure and trigger the rollback");
    }
    // Replacements come online and re-fetch static data, then everyone
    // rolls back to the checkpointed iterate.
    const double t0 = cluster_.clock().in_phase(Phase::kRecovery);
    esr_replace_and_refetch(cluster_, *a_global_, failed);
    ckpt.restore({&x, &kernel.r, &kernel.p}, {&kernel.rz, &kernel.beta_prev});
    cluster_.charge(Phase::kRecovery, read_cost);
    // z is not checkpointed: recompute it from the restored residual
    // through the preconditioner (bit-identical to the z the unfailed run
    // held at the checkpointed iteration).
    for (const NodeId f : failed) {
      kernel.z.revalidate_zero(f);
      kernel.p_prev.revalidate_zero(f);
      kernel.u.revalidate_zero(f);
    }
    m_->apply(cluster_, kernel.r, kernel.z, Phase::kRecovery);
    stats.sim_seconds = cluster_.clock().in_phase(Phase::kRecovery) - t0;
    return ckpt.iteration();
  };
  SolveReport res =
      run_blocking_pcg(kernel, b, x, schedule, opts_.pcg, opts_.events, s);
  res.checkpoint = SolveReport::Checkpointing{resolved_costs(), opts_.interval};
  return res;
}

}  // namespace rpcg
