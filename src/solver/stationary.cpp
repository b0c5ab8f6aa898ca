#include "solver/stationary.hpp"

#include <cmath>

#include "core/failure_injection.hpp"
#include "sim/collectives.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace rpcg {

std::string to_string(StationaryMethod m) { return enum_to_string(m); }

ResilientStationary::ResilientStationary(Cluster& cluster,
                                         const CsrMatrix& a_global,
                                         const DistMatrix& a,
                                         StationaryOptions opts)
    : cluster_(cluster), a_global_(&a_global), a_(&a), opts_(opts) {
  RPCG_CHECK(opts_.omega > 0.0 && opts_.omega < 2.0, "omega must be in (0,2)");
  RPCG_CHECK(opts_.phi >= 0 && opts_.phi < cluster.num_nodes(),
             "phi must satisfy 0 <= phi < N");
  inv_diag_.resize(static_cast<std::size_t>(a_global.rows()));
  for (Index i = 0; i < a_global.rows(); ++i) {
    const double d = a_global.value_at(i, i);
    RPCG_CHECK(d > 0.0, "stationary methods need a positive diagonal");
    inv_diag_[static_cast<std::size_t>(i)] = 1.0 / d;
  }
  sweep_flops_scale_ =
      opts_.method == StationaryMethod::kSsor ? 4.0 : 2.0;  // two sweeps

  if (opts_.phi > 0) {
    scheme_ = RedundancyScheme::build(a.scatter_plan(), cluster.partition(),
                                      opts_.phi, opts_.strategy,
                                      opts_.strategy_seed);
    redundancy_step_cost_ = scheme_.per_iteration_overhead(cluster.comm());
    store_.configure(a.scatter_plan(), scheme_, cluster.partition(), 1);
  }
}

void ResilientStationary::local_sweep(NodeId i, std::span<const double> b_own,
                                      std::span<const double> halo,
                                      std::span<double> x_own) const {
  const Partition& part = cluster_.partition();
  const CsrMatrix& rows = a_->local_rows(i);
  const auto remap = a_->remapped_cols(i);
  const auto rp = rows.row_ptr();
  const auto vals = rows.values();
  const Index own = part.size(i);
  const Index base = part.begin(i);

  const auto row_residual = [&](Index r) {
    double acc = b_own[static_cast<std::size_t>(r)];
    for (Index p = rp[static_cast<std::size_t>(r)]; p < rp[static_cast<std::size_t>(r) + 1]; ++p) {
      const Index c = remap[static_cast<std::size_t>(p)];
      const double xv = c < own ? x_own[static_cast<std::size_t>(c)]
                                : halo[static_cast<std::size_t>(c - own)];
      acc -= vals[static_cast<std::size_t>(p)] * xv;
    }
    return acc;
  };

  switch (opts_.method) {
    case StationaryMethod::kJacobi: {
      // All updates from the old iterate: compute increments first.
      std::vector<double> delta(static_cast<std::size_t>(own));
      for (Index r = 0; r < own; ++r)
        delta[static_cast<std::size_t>(r)] =
            opts_.omega * row_residual(r) *
            inv_diag_[static_cast<std::size_t>(base + r)];
      for (Index r = 0; r < own; ++r)
        x_own[static_cast<std::size_t>(r)] += delta[static_cast<std::size_t>(r)];
      break;
    }
    case StationaryMethod::kGaussSeidel:
    case StationaryMethod::kSor: {
      const double w = opts_.method == StationaryMethod::kGaussSeidel
                           ? 1.0
                           : opts_.omega;
      for (Index r = 0; r < own; ++r)
        x_own[static_cast<std::size_t>(r)] +=
            w * row_residual(r) * inv_diag_[static_cast<std::size_t>(base + r)];
      break;
    }
    case StationaryMethod::kSsor: {
      for (Index r = 0; r < own; ++r)
        x_own[static_cast<std::size_t>(r)] +=
            opts_.omega * row_residual(r) *
            inv_diag_[static_cast<std::size_t>(base + r)];
      for (Index r = own - 1; r >= 0; --r)
        x_own[static_cast<std::size_t>(r)] +=
            opts_.omega * row_residual(r) *
            inv_diag_[static_cast<std::size_t>(base + r)];
      break;
    }
  }
}

RecoveryStats ResilientStationary::recover(
    std::span<const NodeId> failed, DistVector& x,
    std::vector<std::vector<double>>& halos) {
  const Partition& part = cluster_.partition();
  const double t_before = cluster_.clock().in_phase(Phase::kRecovery);
  RecoveryStats stats;
  stats.psi = static_cast<int>(failed.size());

  esr_replace_and_refetch(cluster_, *a_global_, failed);

  // Gather the lost iterate blocks from surviving copies and install them.
  const std::vector<Index> rows = part.rows_of_set(failed);
  stats.lost_rows = static_cast<Index>(rows.size());
  const BackupStore::Gathered got = store_.gather_lost(cluster_, rows);
  stats.gathered_elements = got.elements_transferred;
  const LostRows installs[] = {{&x, got.gens[0]}};
  const std::vector<NodeId> sorted =
      esr_install_lost_rows(part, failed, installs);

  // Re-arm the copies hosted on the replacements.
  const DistVector* gens[] = {&x};
  store_.re_arm(cluster_, sorted, gens);

  // Redo the halo exchange on the recovered iterate.
  execute_scatter(cluster_, a_->scatter_plan(), x, halos, Phase::kRecovery);
  stats.sim_seconds = cluster_.clock().in_phase(Phase::kRecovery) - t_before;
  return stats;
}

SolveReport ResilientStationary::solve(const DistVector& b, DistVector& x,
                                       const FailureSchedule& schedule) {
  RPCG_CHECK(cluster_.alive_count() == cluster_.num_nodes(),
             "all nodes must be alive at solve entry");
  const Partition& part = cluster_.partition();
  const SolveAccounting accounting(cluster_);

  std::vector<std::vector<double>> halos;
  DistVector resid(part);
  SolveReport res;

  // ||b - A x|| on the true residual (one SpMV; real implementations
  // amortize the convergence check, we charge it like everyone else).
  const auto residual_norm = [&] {
    a_->spmv(cluster_, x, resid, halos, Phase::kIteration);
    for (NodeId i = 0; i < part.num_nodes(); ++i) {
      auto rb = resid.block(i);
      const auto bb = b.block(i);
      for (std::size_t k = 0; k < rb.size(); ++k) rb[k] = bb[k] - rb[k];
    }
    return std::sqrt(dot(cluster_, resid, resid, Phase::kIteration));
  };
  const double rnorm0 = residual_norm();
  if (rnorm0 == 0.0) {
    res.converged = true;
    accounting.close(*a_, b, x, res);
    return res;
  }

  FailureInjector injector(
      schedule, {cluster_,
                 {&x, &resid},
                 opts_.events,
                 opts_.phi > 0,
                 [this](NodeId f) { store_.invalidate_node(f); },
                 [this](std::span<const NodeId> merged) {
                   // The gather for `merged` was underway; it is redone for
                   // the union.
                   (void)store_.gather_lost(cluster_,
                                            cluster_.partition().rows_of_set(merged));
                 }});
  const int nn = part.num_nodes();
  std::vector<double> sweep_flops(static_cast<std::size_t>(nn));
  for (NodeId i = 0; i < nn; ++i)
    sweep_flops[static_cast<std::size_t>(i)] =
        sweep_flops_scale_ * static_cast<double>(a_->local_rows(i).nnz());

  for (int j = 0; j < opts_.max_iterations; ++j) {
    // Halo exchange of x^(j) (+ redundant copies).
    execute_scatter(cluster_, a_->scatter_plan(), x, halos, Phase::kIteration);
    if (opts_.phi > 0) {
      store_.record(x);
      cluster_.charge(Phase::kRedundancy, redundancy_step_cost_);
    }

    // Failure injection point: x's copies are distributed.
    const std::vector<NodeId> failed = injector.inject_due(j);
    if (!failed.empty()) {
      resid.set_zero();
      injector.record_recovery(res, {j, failed, recover(failed, x, halos)});
    }

    // One sweep per node (embarrassingly parallel given the halo).
    exec_parallel_for(cluster_.execution_policy(), static_cast<std::size_t>(nn),
                      [&](std::size_t i) {
                        const auto node = static_cast<NodeId>(i);
                        local_sweep(node, b.block(node), halos[i], x.block(node));
                      });
    cluster_.charge_compute(Phase::kIteration, sweep_flops);

    const double rnorm = residual_norm();
    res.iterations = j + 1;
    res.rel_residual = rnorm / rnorm0;
    res.solver_residual_norm = rnorm;
    if (opts_.events.on_iteration) {
      IterationSnapshot snap;
      snap.iteration = res.iterations;
      snap.rel_residual = res.rel_residual;
      snap.x = &x;
      snap.r = &resid;
      opts_.events.on_iteration(snap);
    }
    if (res.rel_residual <= opts_.rtol) {
      res.converged = true;
      break;
    }
  }

  accounting.close(*a_, b, x, res);
  return res;
}

}  // namespace rpcg
