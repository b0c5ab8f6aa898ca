#include "core/resilient_pcg.hpp"

#include <optional>
#include <span>
#include <utility>

#include "core/blocking_pcg.hpp"
#include "core/checkpoint.hpp"
#include "core/factorization_cache.hpp"
#include "core/interpolation_restart.hpp"
#include "solver/pcg_kernel.hpp"
#include "util/check.hpp"

namespace rpcg {

std::string to_string(RecoveryMethod m) { return enum_to_string(m); }

ResilientPcg::ResilientPcg(Cluster& cluster, const CsrMatrix& a_global,
                           const Preconditioner& m, ResilientPcgOptions opts)
    : ResilientPcg(cluster, a_global,
                   MaybeOwned<DistMatrix>::owned(
                       DistMatrix::distribute(a_global, cluster.partition())),
                   m, std::move(opts)) {}

ResilientPcg::ResilientPcg(Cluster& cluster, const CsrMatrix& a_global,
                           const DistMatrix& a, const Preconditioner& m,
                           ResilientPcgOptions opts)
    : ResilientPcg(cluster, a_global, MaybeOwned<DistMatrix>::borrowed(a), m,
                   std::move(opts)) {}

ResilientPcg::ResilientPcg(Cluster& cluster, const CsrMatrix& a_global,
                           MaybeOwned<DistMatrix> a, const Preconditioner& m,
                           ResilientPcgOptions opts)
    : cluster_(cluster),
      a_global_(&a_global),
      m_(&m),
      opts_(std::move(opts)),
      a_(std::move(a)) {
  if (opts_.method == RecoveryMethod::kEsr) {
    RPCG_CHECK(opts_.phi >= 1, "ESR needs phi >= 1 redundant copies");
  } else {
    RPCG_CHECK(opts_.phi == 0,
               "redundant copies are an ESR feature; set phi = 0 for " +
                   to_string(opts_.method));
  }
  if (opts_.phi > 0) {
    scheme_ = RedundancyScheme::build(a_->scatter_plan(), cluster_.partition(),
                                      opts_.phi, opts_.strategy,
                                      opts_.strategy_seed);
    store_.configure(a_->scatter_plan(), scheme_, cluster_.partition());
    // Per-iteration overhead of the extra traffic, with the paper's
    // round-based accounting (Sec. 4.2): every backup round costs its
    // slowest sender, piggybacked elements cost mu each, fresh messages
    // add the latency lambda.
    redundancy_step_cost_ = scheme_.per_iteration_overhead(cluster_.comm());
  }
}

SolveReport ResilientPcg::solve(const DistVector& b, DistVector& x,
                                const FailureSchedule& schedule) {
  PcgKernel kernel(cluster_, *a_, *m_);
  const EsrReconstructor reconstructor(*a_global_, *m_, opts_.esr);
  CheckpointStore ckpt;
  // The checkpoint/restart baseline's store access: all nodes move their 4
  // blocks concurrently, so the largest block decides.
  const double ckpt_access = cluster_.comm().storage_cost(
      4 * cluster_.partition().max_block_size());

  BlockingPcgStrategy s;
  switch (opts_.method) {
    case RecoveryMethod::kNone:
      break;
    case RecoveryMethod::kEsr:
      // Exact state reconstruction (Alg. 2): the phi redundant copies of
      // p^(j) are piggybacked on the SpMV and every receiver retains two
      // generations (the backup store rotates cur -> prev).
      s.keep_previous_direction = true;
      s.after_spmv = [&] {
        store_.record(kernel.p);
        cluster_.charge(Phase::kRedundancy, redundancy_step_cost_);
      };
      s.invalidate_node = [&](NodeId f) { store_.invalidate_node(f); };
      s.charge_aborted = [&](std::span<const NodeId> merged) {
        // The gather for `merged` (the dominant communication part of the
        // reconstruction) was underway; its cached factorizations are stale
        // — the surviving block structure changed under them.
        (void)store_.gather_lost(cluster_,
                                 cluster_.partition().rows_of_set(merged));
        if (opts_.esr.cache != nullptr)
          (void)opts_.esr.cache->invalidate_overlapping(merged);
      };
      s.recover = [&](int, std::span<const NodeId> failed,
                      RecoveryStats& stats) -> std::optional<int> {
        stats = reconstructor.recover(cluster_, failed, store_,
                                      kernel.beta_prev, b, x, kernel.r,
                                      kernel.z, kernel.p, kernel.p_prev);
        // Resume iteration j: recompute u = A p on the recovered state.
        for (const NodeId f : failed) kernel.u.revalidate_zero(f);
        kernel.spmv_direction(Phase::kRecovery);
        return std::nullopt;
      };
      break;
    case RecoveryMethod::kCheckpointRestart:
      // The full state {x, r, z, p, rz, beta_prev} goes to reliable storage
      // every interval; a failure rolls every node back to it.
      s.checkpoint_interval = opts_.checkpoint_interval;
      s.save_checkpoint = [&](int j) {
        ckpt.save(j, {&x, &kernel.r, &kernel.z, &kernel.p},
                  {kernel.rz, kernel.beta_prev});
        cluster_.charge(Phase::kCheckpoint, ckpt_access);
      };
      s.recover = [&](int, std::span<const NodeId> failed,
                      RecoveryStats& stats) -> std::optional<int> {
        cluster_.charge_allreduce(Phase::kRecovery, 1);  // detection
        for (const NodeId f : failed) cluster_.replace_node(f);
        const double t0 = cluster_.clock().in_phase(Phase::kRecovery);
        ckpt.restore({&x, &kernel.r, &kernel.z, &kernel.p},
                     {&kernel.rz, &kernel.beta_prev});
        cluster_.charge(Phase::kRecovery, ckpt_access);
        for (const NodeId f : failed) {
          kernel.u.revalidate_zero(f);
          kernel.p_prev.revalidate_zero(f);  // never read
        }
        stats.sim_seconds = cluster_.clock().in_phase(Phase::kRecovery) - t0;
        return ckpt.iteration();
      };
      break;
    case RecoveryMethod::kInterpolationRestart:
      s.recover = [&](int j, std::span<const NodeId> failed,
                      RecoveryStats& stats) -> std::optional<int> {
        stats = interpolation_restart_recover(cluster_, *a_global_, failed, b,
                                              x, opts_.esr);
        // Restart CG from the interpolated iterate: the Krylov history is
        // lost (r, z, p rebuilt from scratch).
        for (const NodeId f : failed) {
          for (DistVector* v :
               {&kernel.r, &kernel.z, &kernel.p, &kernel.p_prev, &kernel.u})
            v->revalidate_zero(f);
        }
        (void)kernel.initialize(b, x, Phase::kRecovery);
        kernel.beta_prev = 0.0;
        return j;
      };
      break;
  }
  SolveReport res =
      run_blocking_pcg(kernel, b, x, schedule, opts_.pcg, opts_.events, s);
  res.redundancy_overhead_per_iteration = redundancy_step_cost_;
  return res;
}

}  // namespace rpcg
