#include "core/resilient_bicgstab.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "core/errors.hpp"
#include "core/failure_injection.hpp"
#include "sim/collectives.hpp"
#include "util/check.hpp"

namespace rpcg {

ResilientBicgstab::ResilientBicgstab(Cluster& cluster, const CsrMatrix& a_global,
                                     const DistMatrix& a,
                                     const Preconditioner& m,
                                     BicgstabOptions opts)
    : cluster_(cluster),
      a_global_(&a_global),
      a_(&a),
      m_(&m),
      opts_(opts) {
  RPCG_CHECK(opts_.phi >= 0 && opts_.phi < cluster.num_nodes(),
             "phi must satisfy 0 <= phi < N");
  if (opts_.esr.cache != nullptr && !opts_.esr.matrix_key)
    opts_.esr.matrix_key = FactorizationCache::matrix_key(a_global);
  if (opts_.phi > 0) {
    scheme_ = RedundancyScheme::build(a.scatter_plan(), cluster.partition(),
                                      opts_.phi, opts_.strategy,
                                      opts_.strategy_seed);
    store_phat_.configure(a.scatter_plan(), scheme_, cluster.partition());
    store_shat_.configure(a.scatter_plan(), scheme_, cluster.partition());
    redundancy_step_cost_ = scheme_.per_iteration_overhead(cluster.comm());
  }
}

void ResilientBicgstab::recompute_lost_rows(std::span<const Index> rows,
                                            const DistVector& y,
                                            std::span<const double> y_f,
                                            std::span<double> out) const {
  const Partition& part = cluster_.partition();
  std::map<NodeId, std::vector<Index>> gather;
  double flops = 0.0;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const auto cols = a_global_->row_cols(rows[k]);
    const auto vals = a_global_->row_vals(rows[k]);
    double acc = 0.0;
    for (std::size_t p = 0; p < cols.size(); ++p) {
      const Index c = cols[p];
      const auto it = std::lower_bound(rows.begin(), rows.end(), c);
      if (it != rows.end() && *it == c) {
        acc += vals[p] * y_f[static_cast<std::size_t>(it - rows.begin())];
      } else {
        const NodeId owner = part.owner(c);
        gather[owner].push_back(c);
        acc += vals[p] *
               y.block(owner)[static_cast<std::size_t>(c - part.begin(owner))];
      }
    }
    out[k] = acc;
    flops += 2.0 * static_cast<double>(cols.size());
  }
  esr_charge_survivor_gather(cluster_, std::move(gather));
  cluster_.charge(Phase::kRecovery, cluster_.comm().compute_cost(flops));
}

RecoveryStats ResilientBicgstab::recover(
    const std::vector<NodeId>& failed, double alpha, const DistVector& b,
    const DistVector& r0_pristine, DistVector& x, DistVector& r,
    DistVector& r0, DistVector& p, DistVector& v, DistVector& s,
    DistVector& t, DistVector& phat, DistVector& shat) {
  const Partition& part = cluster_.partition();
  const double t_before = cluster_.clock().in_phase(Phase::kRecovery);
  RecoveryStats stats;
  stats.psi = static_cast<int>(failed.size());

  // Static data: A rows, b rows, and the r̂0 block (static data derived from
  // b and the initial guess).
  esr_replace_and_refetch(cluster_, *a_global_, failed, 2);

  const std::vector<Index> rows = part.rows_of_set(failed);
  stats.lost_rows = static_cast<Index>(rows.size());

  // Gather the redundant copies of p̂ and ŝ (current generation).
  const auto got_phat = store_phat_.gather_lost(cluster_, rows);
  const auto got_shat = store_shat_.gather_lost(cluster_, rows);
  stats.gathered_elements =
      got_phat.elements_transferred / 2 + got_shat.elements_transferred / 2;

  // p_IF = M p̂_IF and s_IF = M ŝ_IF through the preconditioner (the same
  // residual-recovery relation as Alg. 2: given M⁻¹y's block, produce y's).
  std::vector<double> p_f(rows.size()), s_f(rows.size());
  m_->esr_recover_residual(cluster_, rows, got_phat.gens[0], p, phat, p_f);
  m_->esr_recover_residual(cluster_, rows, got_shat.gens[0], s, shat, s_f);

  // v_IF = (A p̂)_IF and t_IF = (A ŝ)_IF recomputed from the lost rows of A.
  std::vector<double> v_f(rows.size()), t_f(rows.size());
  recompute_lost_rows(rows, phat, got_phat.gens[0], v_f);
  recompute_lost_rows(rows, shat, got_shat.gens[0], t_f);

  // r_IF = s_IF + alpha v_IF (from s = r - alpha v; alpha is replicated).
  std::vector<double> r_f(rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) r_f[k] = s_f[k] + alpha * v_f[k];
  cluster_.charge(Phase::kRecovery, cluster_.comm().compute_cost(
                                        2.0 * static_cast<double>(rows.size())));

  // x_IF from the local system (identical to PCG's Alg. 2 lines 7-8).
  std::vector<double> x_f(rows.size());
  const LocalSolveOutcome outcome =
      esr_solve_lost_x(cluster_, *a_global_, rows, r_f, b, x, x_f, opts_.esr);
  stats.local_solve_iterations = outcome.iterations;
  stats.local_solve_rel_residual = outcome.rel_residual;

  // Install the reconstructed blocks; r̂0 comes from reliable storage (cost
  // charged with the static fetch).
  const LostRows installs[] = {{&x, x_f},    {&r, r_f},
                               {&p, p_f},    {&v, v_f},
                               {&s, s_f},    {&t, t_f},
                               {&phat, got_phat.gens[0]},
                               {&shat, got_shat.gens[0]}};
  const std::vector<NodeId> sorted =
      esr_install_lost_rows(part, failed, installs);
  for (const NodeId f : sorted) r0.restore_block(f, r0_pristine.block(f));

  // Restore full redundancy on the replacements.
  store_phat_.re_arm(cluster_, sorted, phat, phat);
  store_shat_.re_arm(cluster_, sorted, shat, shat);

  stats.sim_seconds = cluster_.clock().in_phase(Phase::kRecovery) - t_before;
  return stats;
}

SolveReport ResilientBicgstab::solve(const DistVector& b, DistVector& x,
                                     const FailureSchedule& schedule) {
  RPCG_CHECK(cluster_.alive_count() == cluster_.num_nodes(),
             "all nodes must be alive at solve entry");
  const Partition& part = cluster_.partition();
  const Phase it = Phase::kIteration;
  const SolveAccounting accounting(cluster_);

  DistVector r(part), r0(part), p(part), v(part), s(part), t(part);
  DistVector phat(part), shat(part);
  std::vector<std::vector<double>> halos;

  // r = r̂0 = b - A x0; keep a pristine copy of r̂0 as (derived) static data.
  a_->spmv(cluster_, x, v, halos, it);
  copy(cluster_, b, r, it);
  axpy(cluster_, -1.0, v, r, it);
  copy(cluster_, r, r0, it);
  DistVector r0_pristine(part);
  {
    ClockPause pause(cluster_.clock());
    copy(cluster_, r0, r0_pristine, it);
    v.set_zero();
  }

  const double rnorm0 = std::sqrt(dot(cluster_, r, r, it));
  SolveReport res;
  if (rnorm0 == 0.0) {
    res.converged = true;
    accounting.close(*a_, b, x, res);
    return res;
  }

  FailureInjector injector(
      schedule, {cluster_,
                 {&x, &r, &r0, &p, &v, &s, &t, &phat, &shat},
                 opts_.events,
                 opts_.phi > 0,
                 [this](NodeId f) {
                   store_phat_.invalidate_node(f);
                   store_shat_.invalidate_node(f);
                 },
                 [this](std::span<const NodeId> merged) {
                   // The gathers for `merged` were underway; they are redone
                   // for the union.
                   const std::vector<Index> partial_rows =
                       cluster_.partition().rows_of_set(merged);
                   (void)store_phat_.gather_lost(cluster_, partial_rows);
                   (void)store_shat_.gather_lost(cluster_, partial_rows);
                 }});
  double rho_prev = 1.0, alpha = 1.0, omega = 1.0;

  for (int j = 0; j < opts_.max_iterations; ++j) {
    const double rho = dot(cluster_, r0, r, it);
    if (!(std::abs(rho) > 1e-300)) {
      throw DivergenceError("BiCGSTAB breakdown: rho ~ 0");
    }
    if (j == 0) {
      copy(cluster_, r, p, it);
    } else {
      const double beta = (rho / rho_prev) * (alpha / omega);
      // p = r + beta (p - omega v)
      axpy(cluster_, -omega, v, p, it);
      xpby(cluster_, r, beta, p, it);
    }
    rho_prev = rho;

    m_->apply(cluster_, p, phat, it);      // p̂ = M⁻¹ p
    a_->spmv(cluster_, phat, v, halos, it);  // v = A p̂  (scatters p̂)
    if (opts_.phi > 0) {
      store_phat_.record(phat);
      cluster_.charge(Phase::kRedundancy, redundancy_step_cost_);
    }

    const double r0v = dot(cluster_, r0, v, it);
    if (!(std::abs(r0v) > 1e-300)) {
      throw DivergenceError("BiCGSTAB breakdown: r̂0·v ~ 0");
    }
    alpha = rho / r0v;

    // s = r - alpha v
    copy(cluster_, r, s, it);
    axpy(cluster_, -alpha, v, s, it);

    m_->apply(cluster_, s, shat, it);      // ŝ = M⁻¹ s
    a_->spmv(cluster_, shat, t, halos, it);  // t = A ŝ  (scatters ŝ)
    if (opts_.phi > 0) {
      store_shat_.record(shat);
      cluster_.charge(Phase::kRedundancy, redundancy_step_cost_);
    }

    // --- Failure injection point: copies of p̂ and ŝ are distributed. ---
    const std::vector<NodeId> failed = injector.inject_due(j);
    if (!failed.empty()) {
      injector.record_recovery(
          res, {j, failed,
                recover(failed, alpha, b, r0_pristine, x, r, r0, p, v, s, t,
                        phat, shat)});
    }

    const DotPair ts = dot_pair(cluster_, t, s, it);  // t·s and ||t||²
    if (!(ts.rr > 0.0)) {
      throw DivergenceError("BiCGSTAB breakdown: ||t|| = 0");
    }
    omega = ts.rz / ts.rr;

    // x += alpha p̂ + omega ŝ ;  r = s - omega t
    axpy(cluster_, alpha, phat, x, it);
    axpy(cluster_, omega, shat, x, it);
    copy(cluster_, s, r, it);
    axpy(cluster_, -omega, t, r, it);

    const double rnorm = std::sqrt(dot(cluster_, r, r, it));
    res.iterations = j + 1;
    res.rel_residual = rnorm / rnorm0;
    res.solver_residual_norm = rnorm;
    if (opts_.events.on_iteration) {
      IterationSnapshot snap;
      snap.iteration = res.iterations;
      snap.rel_residual = res.rel_residual;
      snap.x = &x;
      snap.r = &r;
      snap.p = &p;
      opts_.events.on_iteration(snap);
    }
    if (res.rel_residual <= opts_.rtol) {
      res.converged = true;
      break;
    }
    if (!(std::abs(omega) > 1e-300)) {
      throw DivergenceError("BiCGSTAB breakdown: omega ~ 0");
    }
  }

  accounting.close(*a_, b, x, res);
  return res;
}

}  // namespace rpcg
