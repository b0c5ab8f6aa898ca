#include "core/twin_pcg.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "core/blocking_pcg.hpp"
#include "core/checkpoint.hpp"
#include "core/errors.hpp"
#include "core/esr.hpp"  // esr_replace_and_refetch
#include "solver/pcg_kernel.hpp"
#include "util/check.hpp"

namespace rpcg {

TwinPcg::TwinPcg(Cluster& cluster, const CsrMatrix& a_global,
                 const DistMatrix& a, const Preconditioner& m,
                 TwinPcgOptions opts)
    : cluster_(cluster),
      a_global_(&a_global),
      a_(&a),
      m_(&m),
      opts_(std::move(opts)) {
  RPCG_CHECK(cluster_.num_nodes() >= 2 && cluster_.num_nodes() % 2 == 0,
             "twin-pcg pairs each node with a buddy; the node count must be "
             "even and >= 2");
  // Every node pushes its 3 updated blocks to its buddy each iteration;
  // pushes run concurrently, so a round costs its largest block.
  sync_cost_ =
      cluster_.comm().message_cost(3 * cluster_.partition().max_block_size());
}

SolveReport TwinPcg::solve(const DistVector& b, DistVector& x,
                           const FailureSchedule& schedule) {
  PcgKernel kernel(cluster_, *a_, *m_);
  // Every node mirrors its buddy's loop-top {x, r, p}. Host-side the mirror
  // is one snapshot of the whole state; the simulated placement only
  // matters for the coverage check and charges.
  CheckpointStore mirror;
  // One concurrent round of 3-block buddy transfers for `nodes`.
  const auto copy_cost = [this](std::span<const NodeId> nodes) {
    double cost = 0.0;
    for (const NodeId f : nodes) {
      cost = std::max(cost, cluster_.comm().message_cost(
                                3 * cluster_.partition().size(f)));
    }
    return cost;
  };

  BlockingPcgStrategy s;
  s.direction_ready = [&] {
    // Push the updated {x, r, p} blocks to the buddies: the mirror holds the
    // loop-top state of the next iteration.
    mirror.save(0, {&x, &kernel.r, &kernel.p});
    cluster_.charge(Phase::kRedundancy, sync_cost_);
  };
  s.charge_aborted = [&](std::span<const NodeId> merged) {
    // The buddy copy-back of `merged` was underway; it is redone for the
    // union.
    cluster_.charge(Phase::kRecovery, copy_cost(merged));
  };
  s.recover = [&](int, std::span<const NodeId> failed,
                  RecoveryStats& stats) -> std::optional<int> {
    // Coverage: each failed node's mirror lives on its buddy; losing both
    // members of a pair before the next sync destroys original and copy.
    for (const NodeId f : failed) {
      const NodeId buddy = buddy_of(f, cluster_.num_nodes());
      if (std::find(failed.begin(), failed.end(), buddy) != failed.end()) {
        throw UnrecoverableFailure(
            "twin redundancy does not cover the simultaneous loss of "
            "buddy pair {" + std::to_string(f) + ", " +
            std::to_string(buddy) + "}");
      }
    }
    const double t0 = cluster_.clock().in_phase(Phase::kRecovery);
    esr_replace_and_refetch(cluster_, *a_global_, failed);
    // Forward recovery: replacements copy {x, r, p} from their buddies. The
    // survivors' blocks still equal their mirror at the injection point, so
    // restoring the whole snapshot installs exactly the lost blocks.
    mirror.restore({&x, &kernel.r, &kernel.p});
    for (const NodeId f : failed) {
      kernel.z.revalidate_zero(f);       // recomputed next precondition
      kernel.p_prev.revalidate_zero(f);  // never read
      kernel.u.revalidate_zero(f);       // recomputed below
    }
    // Copies run concurrently (buddies are distinct), so the round costs its
    // largest transfer; the scalars rz/beta_prev are replicated on every
    // survivor and cost nothing.
    const double copy = copy_cost(failed);
    cluster_.charge(Phase::kRecovery, copy);
    // Resume iteration j on the recovered state: u = A p again.
    kernel.spmv_direction(Phase::kRecovery);
    // Re-arm: the fresh nodes push their blocks to their buddies and re-host
    // their buddies' mirrors (two transfers per pair).
    mirror.save(0, {&x, &kernel.r, &kernel.p});
    cluster_.charge(Phase::kRecovery, 2.0 * copy);
    stats.gathered_elements = 3 * stats.lost_rows;
    stats.sim_seconds = cluster_.clock().in_phase(Phase::kRecovery) - t0;
    return std::nullopt;  // no rollback, no restart
  };
  SolveReport res =
      run_blocking_pcg(kernel, b, x, schedule, opts_.pcg, opts_.events, s);
  res.redundancy_overhead_per_iteration = sync_cost_;
  return res;
}

}  // namespace rpcg
