#include "core/pipelined_pcg.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/errors.hpp"
#include "core/factorization_cache.hpp"
#include "sim/collectives.hpp"
#include "util/check.hpp"

namespace rpcg {

/// The recurrence vectors both loops carry: the current-generation r, u, w,
/// the recurrence vectors s/q/z of the last update, the direction p and its
/// previous generation p_prev (the paper's backup pair). Replicated scalars
/// ride along: gamma_{k-1}, alpha_{k-1} (recovered from any survivor on
/// failure).
struct PipelinedPcg::Recurrences {
  explicit Recurrences(const Partition& part)
      : r(part), u(part), w(part), s(part), q(part), z(part), p(part),
        p_prev(part) {}

  DistVector r, u, w, s, q, z, p, p_prev;
  double gamma_prev = 0.0;
  double alpha_prev = 0.0;
};

/// The depth-1 state at loop top k (k completed updates): the shared
/// recurrences, the in-flight m/n, and u_{k-1} for the period-2 backup.
struct PipelinedPcg::LoopState : Recurrences {
  explicit LoopState(const Partition& part)
      : Recurrences(part), m(part), n(part), u_prev(part) {}

  DistVector m, n, u_prev;

  [[nodiscard]] std::vector<DistVector*> all() {
    return {&r, &u, &w, &m, &n, &z, &q, &s, &p, &p_prev, &u_prev};
  }
};

/// The depth-l iteration state: besides the shared recurrences, the full
/// chains m_i = (M^-1 A)^i u, n_i = A m_i (i = 1..L) and
/// zeta_i = (M^-1 A)^i q, xi_i = A zeta_i (i = 1..L-1) that close the
/// coefficient-space replay, plus the `depth` previous generations of u that
/// the widened backup set keeps reconstructible.
struct PipelinedPcg::DeepState : Recurrences {
  DeepState(const Partition& part, const PipelinedBasisLayout& layout)
      : Recurrences(part) {
    for (int g = 0; g < layout.depth; ++g) u_hist.emplace_back(part);
    for (int i = 0; i < layout.chain; ++i) {
      m.emplace_back(part);
      n.emplace_back(part);
    }
    for (int i = 0; i + 1 < layout.chain; ++i) {
      zeta.emplace_back(part);
      xi.emplace_back(part);
    }
  }

  std::vector<DistVector> u_hist;      // u^(k-1) .. u^(k-depth)
  std::vector<DistVector> m, n;        // m[i] = m_{i+1}, n[i] = n_{i+1}
  std::vector<DistVector> zeta, xi;    // zeta[i] = zeta_{i+1}, likewise xi

  /// Pointers in PipelinedBasisLayout index order — the fused Gram posts
  /// reduce exactly this basis.
  [[nodiscard]] std::vector<const DistVector*> basis() const {
    std::vector<const DistVector*> out = {&r, &u, &w, &s, &q, &z};
    for (const DistVector& v : m) out.push_back(&v);
    for (const DistVector& v : n) out.push_back(&v);
    for (const DistVector& v : zeta) out.push_back(&v);
    for (const DistVector& v : xi) out.push_back(&v);
    return out;
  }

  [[nodiscard]] std::vector<DistVector*> all() {
    std::vector<DistVector*> out = {&r, &u, &w, &s, &q, &z, &p, &p_prev};
    for (DistVector& v : u_hist) out.push_back(&v);
    for (DistVector& v : m) out.push_back(&v);
    for (DistVector& v : n) out.push_back(&v);
    for (DistVector& v : zeta) out.push_back(&v);
    for (DistVector& v : xi) out.push_back(&v);
    return out;
  }
};

namespace {

/// Copies the replacement nodes' blocks of a recomputed full vector into
/// `dst`; the survivors keep their recurrence values.
void install_lost_blocks(DistVector& dst, const DistVector& recomputed,
                         std::span<const NodeId> replacements) {
  for (const NodeId f : replacements)
    dst.restore_block(f, recomputed.block(f));
}

}  // namespace

PipelinedPcg::PipelinedPcg(Cluster& cluster, const CsrMatrix& a_global,
                           const Preconditioner& m, PipelinedPcgOptions opts)
    : PipelinedPcg(cluster, a_global,
                   MaybeOwned<DistMatrix>::owned(
                       DistMatrix::distribute(a_global, cluster.partition())),
                   m, std::move(opts)) {}

PipelinedPcg::PipelinedPcg(Cluster& cluster, const CsrMatrix& a_global,
                           const DistMatrix& a, const Preconditioner& m,
                           PipelinedPcgOptions opts)
    : PipelinedPcg(cluster, a_global, MaybeOwned<DistMatrix>::borrowed(a), m,
                   std::move(opts)) {}

PipelinedPcg::PipelinedPcg(Cluster& cluster, const CsrMatrix& a_global,
                           MaybeOwned<DistMatrix> a, const Preconditioner& m,
                           PipelinedPcgOptions opts)
    : cluster_(cluster),
      a_global_(&a_global),
      m_(&m),
      opts_(std::move(opts)),
      a_(std::move(a)),
      layout_(PipelinedBasisLayout::make(opts_.method, opts_.depth)) {
  RPCG_CHECK(opts_.phi >= 0, "phi must be non-negative");
  if (opts_.esr.cache != nullptr && !opts_.esr.matrix_key)
    opts_.esr.matrix_key = FactorizationCache::matrix_key(a_global);
  if (opts_.phi > 0) {
    scheme_ = RedundancyScheme::build(a_->scatter_plan(), cluster_.partition(),
                                      opts_.phi, opts_.strategy,
                                      opts_.strategy_seed);
    store_p_.configure(a_->scatter_plan(), scheme_, cluster_.partition());
    store_u_.configure(a_->scatter_plan(), scheme_, cluster_.partition(),
                       opts_.depth + 1);
    // 1 + depth vectors ride the per-iteration halo exchange: two p
    // generations share one round, and each of the depth+1 u generations the
    // deeper pipeline must keep reconstructible adds another.
    redundancy_step_cost_ =
        (1.0 + opts_.depth) * scheme_.per_iteration_overhead(cluster_.comm());
  }
}

FailureInjector PipelinedPcg::make_injector(const FailureSchedule& schedule,
                                            DistVector& x,
                                            std::vector<DistVector*> state) {
  state.push_back(&x);
  return FailureInjector(
      schedule,
      {cluster_, std::move(state), opts_.events, opts_.phi > 0,
       [this](NodeId f) {
         store_p_.invalidate_node(f);
         store_u_.invalidate_node(f);
       },
       [this](std::span<const NodeId> merged) {
         // The gathers for `merged` were underway; the changed survivor
         // structure invalidates its cached factorizations (as in the
         // blocking engine).
         const std::vector<Index> partial_rows =
             cluster_.partition().rows_of_set(merged);
         (void)store_u_.gather_lost(cluster_, partial_rows);
         (void)store_p_.gather_lost(cluster_, partial_rows);
         if (opts_.esr.cache != nullptr)
           (void)opts_.esr.cache->invalidate_overlapping(merged);
       }});
}

std::vector<NodeId> PipelinedPcg::recover_front(
    std::span<const NodeId> failed, const DistVector& b, DistVector& x,
    Recurrences& st, std::span<DistVector* const> u_gens,
    RecoveryStats& stats) {
  RPCG_CHECK(!failed.empty(), "nothing to recover");
  const Partition& part = cluster_.partition();
  stats.psi = static_cast<int>(failed.size());

  esr_replace_and_refetch(cluster_, *a_global_, failed);

  const std::vector<Index> rows = part.rows_of_set(failed);
  stats.lost_rows = static_cast<Index>(rows.size());

  // Replicated scalars gamma^(k-1), alpha^(k-1) from any survivor, then every
  // backed-up generation of the lost u blocks and both p generations from
  // the redundant copies.
  cluster_.charge(Phase::kRecovery, cluster_.comm().message_cost(1));
  const BackupStore::Gathered got_u = store_u_.gather_lost(cluster_, rows);
  const BackupStore::Gathered got_p = store_p_.gather_lost(cluster_, rows);
  stats.gathered_elements =
      got_u.elements_transferred + got_p.elements_transferred;

  // r_{IF} through the preconditioner from the backed-up u = M^{-1} r —
  // the same Alg. 2 step the blocking engine applies to z.
  std::vector<double> r_f(rows.size());
  m_->esr_recover_residual(cluster_, rows, got_u.gens[0], st.r, st.u, r_f);

  // x_{IF} from the A_{IF,IF} local system (lines 7-8, cache-served).
  std::vector<double> x_f(rows.size());
  const LocalSolveOutcome outcome =
      esr_solve_lost_x(cluster_, *a_global_, rows, r_f, b, x, x_f, opts_.esr);
  stats.local_solve_iterations = outcome.iterations;
  stats.local_solve_rel_residual = outcome.rel_residual;

  // Install the exactly reconstructed blocks on the replacement nodes.
  std::vector<LostRows> installs = {{&x, x_f},
                                    {&st.r, r_f},
                                    {&st.p, got_p.gens[0]},
                                    {&st.p_prev, got_p.gens[1]}};
  for (std::size_t g = 0; g < u_gens.size(); ++g)
    installs.push_back({u_gens[g], got_u.gens[g]});
  const std::vector<NodeId> sorted =
      esr_install_lost_rows(part, failed, installs);

  // Rebuild the remaining recurrence vectors on the replacements from their
  // defining relations (Levonyak et al.): s = A p, q = M^{-1} s, z = A q,
  // w = A u. Full operator applications charged to recovery — the same
  // resume-recompute accounting as the blocking engine's u = A p.
  DistVector tmp(part);
  std::vector<std::vector<double>> halos;
  a_->spmv(cluster_, st.p, tmp, halos, Phase::kRecovery);
  install_lost_blocks(st.s, tmp, sorted);
  m_->apply(cluster_, st.s, tmp, Phase::kRecovery);
  install_lost_blocks(st.q, tmp, sorted);
  a_->spmv(cluster_, st.q, tmp, halos, Phase::kRecovery);
  install_lost_blocks(st.z, tmp, sorted);
  a_->spmv(cluster_, st.u, tmp, halos, Phase::kRecovery);
  install_lost_blocks(st.w, tmp, sorted);
  return sorted;
}

RecoveryStats PipelinedPcg::recover(std::span<const NodeId> failed,
                                    const DistVector& b, DistVector& x,
                                    LoopState& st) {
  const double t_before = cluster_.clock().in_phase(Phase::kRecovery);
  RecoveryStats stats;
  DistVector* const u_gens[] = {&st.u, &st.u_prev};
  const std::vector<NodeId> sorted =
      recover_front(failed, b, x, st, u_gens, stats);

  // The in-flight m = M^{-1} w, n = A m are recomputed whole — they are
  // minted fresh every iteration, so survivors reproduce their values
  // bit-for-bit and the replacements obtain consistent ones.
  for (const NodeId f : sorted) {
    st.m.revalidate_zero(f);
    st.n.revalidate_zero(f);
  }
  {
    std::vector<std::vector<double>> halos;
    m_->apply(cluster_, st.w, st.m, Phase::kRecovery);
    a_->spmv(cluster_, st.m, st.n, halos, Phase::kRecovery);
  }

  // Restore full phi+1 redundancy of both backup sets right away.
  store_p_.re_arm(cluster_, sorted, st.p, st.p_prev);
  store_u_.re_arm(cluster_, sorted, st.u, st.u_prev);

  stats.sim_seconds = cluster_.clock().in_phase(Phase::kRecovery) - t_before;
  return stats;
}

RecoveryStats PipelinedPcg::recover_deep(std::span<const NodeId> failed,
                                         const DistVector& b, DistVector& x,
                                         DeepState& st) {
  const double t_before = cluster_.clock().in_phase(Phase::kRecovery);
  RecoveryStats stats;
  std::vector<DistVector*> u_gens = {&st.u};
  for (DistVector& uh : st.u_hist) u_gens.push_back(&uh);
  const std::vector<NodeId> sorted =
      recover_front(failed, b, x, st, u_gens, stats);

  // Ladder-rebuild the lost chain blocks: m_i = (M^{-1} A)^i u (seeded from
  // the rebuilt w = A u) and zeta_i = (M^{-1} A)^i q (seeded from z = A q);
  // n_i = A m_i and xi_i = A zeta_i ride each rung. All identities the
  // recurrences preserve exactly, so replacements rejoin consistently.
  DistVector tmp(cluster_.partition());
  std::vector<std::vector<double>> halos;
  const auto rung = [&](const DistVector& from, DistVector& m_i,
                        DistVector& n_i) {
    m_->apply(cluster_, from, tmp, Phase::kRecovery);
    install_lost_blocks(m_i, tmp, sorted);
    a_->spmv(cluster_, m_i, tmp, halos, Phase::kRecovery);
    install_lost_blocks(n_i, tmp, sorted);
  };
  for (std::size_t i = 0; i < st.m.size(); ++i)
    rung(i == 0 ? st.w : st.n[i - 1], st.m[i], st.n[i]);
  for (std::size_t i = 0; i < st.zeta.size(); ++i)
    rung(i == 0 ? st.z : st.xi[i - 1], st.zeta[i], st.xi[i]);

  // Restore full phi+1 redundancy of both backup sets right away.
  store_p_.re_arm(cluster_, sorted, st.p, st.p_prev);
  const std::vector<const DistVector*> ugens(u_gens.begin(), u_gens.end());
  store_u_.re_arm(cluster_, sorted, ugens);

  stats.sim_seconds = cluster_.clock().in_phase(Phase::kRecovery) - t_before;
  return stats;
}

SolveReport PipelinedPcg::solve(const DistVector& b, DistVector& x,
                                const FailureSchedule& schedule) {
  SolveReport res = opts_.depth == 1 ? solve_depth1(b, x, schedule)
                                     : solve_deep(b, x, schedule);
  res.redundancy_overhead_per_iteration = redundancy_step_cost_;
  res.reduction_depth = opts_.depth;
  // Ring reductions still in flight when the depth-l loop exits complete as
  // the ring is destroyed; count them like every other posted reduction.
  res.reductions = cluster_.reduction_times();
  return res;
}

SolveReport PipelinedPcg::solve_depth1(const DistVector& b, DistVector& x,
                                       const FailureSchedule& schedule) {
  RPCG_CHECK(cluster_.alive_count() == cluster_.num_nodes(),
             "all nodes must be alive at solve entry");
  const Partition& part = cluster_.partition();
  const SolveAccounting accounting(cluster_);

  LoopState st(part);
  std::vector<std::vector<double>> halos;
  const Phase it = Phase::kIteration;
  const bool cg = opts_.method == PipelinedMethod::kConjugateGradient;

  // r^(0) = b - A x^(0); u^(0) = M^{-1} r^(0); w^(0) = A u^(0). The first
  // loop turn delivers ||r^(0)|| with its fused reduction, so no separate
  // startup reduction is needed.
  a_->spmv(cluster_, x, st.n, halos, it);  // n as scratch
  copy(cluster_, b, st.r, it);
  axpy(cluster_, -1.0, st.n, st.r, it);
  m_->apply(cluster_, st.r, st.u, it);
  a_->spmv(cluster_, st.u, st.w, halos, it);

  SolveReport res;
  FailureInjector injector = make_injector(schedule, x, st.all());
  double rnorm0 = 0.0;

  for (int k = 0;; ++k) {
    // Post the fused reduction, then hide it behind the work of this
    // iteration. CG posts gamma = r^T u, delta = w^T u before both operator
    // applications; CR's gamma = u^T w, delta = w^T m need m = M^{-1} w
    // first, so only the SpMV overlaps (the CR pipelining trade).
    PendingReduction red;
    if (cg) {
      red = ipipelined_dots(cluster_, st.r, st.u, st.w, it);
      m_->apply(cluster_, st.w, st.m, it);
    } else {
      m_->apply(cluster_, st.w, st.m, it);
      red = ipipelined_cr_dots(cluster_, st.r, st.u, st.w, st.m, it);
    }
    a_->spmv(cluster_, st.m, st.n, halos, it);
    if (opts_.phi > 0) {
      store_p_.record(st.p);
      store_u_.record(st.u);
      cluster_.charge(Phase::kRedundancy, redundancy_step_cost_);
    }

    // --- Failure injection point (backups of both generations in place). ---
    // The posted reduction completes among the survivors before the
    // reconstruction starts.
    if (injector.due(k)) red.wait();
    const std::vector<NodeId> failed = injector.inject_due(k);
    if (!failed.empty())
      injector.record_recovery(res, {k, failed, recover(failed, b, x, st)});

    red.wait();
    const double gamma = red.value(0);
    const double delta = red.value(1);
    const double rr = red.value(2);

    if (k == 0) {
      rnorm0 = std::sqrt(rr);
      if (rnorm0 == 0.0) {
        res.converged = true;
        res.solver_residual_norm = 0.0;
        break;
      }
    } else {
      res.iterations = k;
      res.rel_residual = std::sqrt(rr) / rnorm0;
      res.solver_residual_norm = std::sqrt(rr);
      if (opts_.events.on_iteration) {
        IterationSnapshot snap;
        snap.iteration = res.iterations;
        snap.rel_residual = res.rel_residual;
        snap.x = &x;
        snap.r = &st.r;
        snap.z = &st.u;  // u is the preconditioned residual
        snap.p = &st.p;
        opts_.events.on_iteration(snap);
      }
      if (res.rel_residual <= opts_.pcg.rtol) {
        res.converged = true;
        break;
      }
    }
    if (k >= opts_.pcg.max_iterations) break;

    // Scalar recurrences (replicated on every node; identical for CG and CR,
    // only the inner products defining gamma/delta differ).
    double beta, alpha;
    if (k == 0) {
      beta = 0.0;
      if (!(delta > 0.0))
        throw DivergenceError("matrix is not positive definite along u");
      alpha = gamma / delta;
    } else {
      beta = gamma / st.gamma_prev;
      const double denom = delta - beta * gamma / st.alpha_prev;
      if (!(denom > 0.0))
        throw DivergenceError("matrix is not positive definite along p");
      alpha = gamma / denom;
    }

    // Vector recurrences of update k.
    xpby(cluster_, st.n, beta, st.z, it);  // z = n + beta z
    xpby(cluster_, st.m, beta, st.q, it);  // q = m + beta q
    xpby(cluster_, st.w, beta, st.s, it);  // s = w + beta s
    {
      // Keeping the previous p/u generations is a local pointer swap in a
      // real implementation; it costs no time.
      ClockPause pause(cluster_.clock());
      copy(cluster_, st.p, st.p_prev, it);
      copy(cluster_, st.u, st.u_prev, it);
    }
    xpby(cluster_, st.u, beta, st.p, it);   // p = u + beta p
    axpy(cluster_, alpha, st.p, x, it);     // x += alpha p
    axpy(cluster_, -alpha, st.s, st.r, it); // r -= alpha s
    axpy(cluster_, -alpha, st.q, st.u, it); // u -= alpha q
    axpy(cluster_, -alpha, st.z, st.w, it); // w -= alpha z
    st.gamma_prev = gamma;
    st.alpha_prev = alpha;
  }

  accounting.close(*a_, b, x, res);
  return res;
}

SolveReport PipelinedPcg::solve_deep(const DistVector& b, DistVector& x,
                                     const FailureSchedule& schedule) {
  RPCG_CHECK(cluster_.alive_count() == cluster_.num_nodes(),
             "all nodes must be alive at solve entry");
  const Partition& part = cluster_.partition();
  const SolveAccounting accounting(cluster_);

  DeepState st(part, layout_);
  std::vector<std::vector<double>> halos;
  const Phase it = Phase::kIteration;
  const int d = layout_.steps;  // iterations each reduction stays in flight
  const int L = layout_.chain;

  // r/u/w as in depth 1, then the chains built directly from their
  // definitions (L preconditioner applications + L SpMVs): the startup, and
  // the rebuild of a restart.
  const auto build_from_x = [&] {
    a_->spmv(cluster_, x, st.n[0], halos, it);  // n_1 as scratch
    copy(cluster_, b, st.r, it);
    axpy(cluster_, -1.0, st.n[0], st.r, it);
    m_->apply(cluster_, st.r, st.u, it);
    a_->spmv(cluster_, st.u, st.w, halos, it);
    for (std::size_t i = 0; i < static_cast<std::size_t>(L); ++i) {
      m_->apply(cluster_, i == 0 ? st.w : st.n[i - 1], st.m[i], it);
      a_->spmv(cluster_, st.m[i], st.n[i], halos, it);
    }
  };
  build_from_x();

  const std::vector<const DistVector*> basis = st.basis();
  const int entries = layout_.gram_entries();
  const auto gram_of = [entries](const PendingReduction& red) {
    std::vector<double> gram(static_cast<std::size_t>(entries));
    for (int i = 0; i < entries; ++i)
      gram[static_cast<std::size_t>(i)] = red.value(i);
    return gram;
  };

  SolveReport res;
  FailureInjector injector = make_injector(schedule, x, st.all());
  double rnorm0 = 0.0;

  // Ring of the depth in-flight Gram reductions: H_k lands in slot
  // k % depth, displacing H_{k-depth} (waited d = depth-1 iterations ago).
  struct RingEntry {
    PendingReduction red;
    int iteration = -1;
  };
  std::vector<RingEntry> ring(static_cast<std::size_t>(layout_.depth));
  // The (beta, alpha) of the last d completed updates, oldest first — the
  // prediction replay input. Cleared on recovery (the flushed ring restarts).
  std::vector<IterationCoeffs> history;

  for (int k = 0;; ++k) {
    RingEntry& slot = ring[static_cast<std::size_t>(k % layout_.depth)];
    slot.red = ipipelined_gram(cluster_, basis, it);
    slot.iteration = k;
    if (opts_.phi > 0) {
      store_p_.record(st.p);
      store_u_.record(st.u);
      cluster_.charge(Phase::kRedundancy, redundancy_step_cost_);
    }

    // --- Failure injection point (backups of all generations in place). ---
    // Flush the pipeline: every in-flight reduction completes among the
    // survivors before reconstruction — predicting across a recovery would
    // mix pre- and post-failure bases.
    if (injector.due(k)) {
      for (RingEntry& e : ring) {
        e.red.wait();
        e.iteration = -1;
      }
    }
    const std::vector<NodeId> failed = injector.inject_due(k);
    if (!failed.empty()) {
      injector.record_recovery(res,
                               {k, failed, recover_deep(failed, b, x, st)});
      history.clear();
      // Re-post over the reconstructed basis; the next d iterations warm the
      // ring back up on direct (fully exposed) reductions.
      slot.red = ipipelined_gram(cluster_, basis, it);
      slot.iteration = k;
    }

    // Steady state: wait H_{k-d} (posted d iterations ago, hidden behind d
    // iterations of work) and *predict* this iteration's scalars from it.
    // Warmup (first d turns, and after every flush): wait our own H_k fully
    // exposed and read the scalars directly.
    PipelinedScalars sc;
    RingEntry& old_slot =
        ring[static_cast<std::size_t>((k + 1) % layout_.depth)];
    // A consistent scalar triple has gamma > 0, ||r||^2 > 0, and a positive
    // alpha denominator; anything else is roundoff drift, not the matrix.
    // The predicate reads only replicated reduced values, so every node —
    // and the sequential executor — branches identically.
    const auto inconsistent = [&](const PipelinedScalars& v) {
      if (!(v.gamma > 0.0) || !(v.rr > 0.0)) return true;
      const double beta_hat = v.gamma / st.gamma_prev;
      return !(v.delta - beta_hat * v.gamma / st.alpha_prev > 0.0);
    };
    bool restarted = false;
    if (old_slot.iteration == k - d &&
        static_cast<int>(history.size()) == d) {
      old_slot.red.wait();
      sc = predict_pipelined_scalars(layout_, gram_of(old_slot.red), history);
      // The predicted scalars carry an absolute error of order eps times the
      // d-iterations-old basis norms; near convergence the true values decay
      // below it and the prediction can turn inconsistent. Stall the
      // pipeline for this one iteration: wait our own just-posted reduction
      // (fully exposed, like a warmup turn) and read the scalars directly.
      // The ring itself stays consistent: H_{k-d+1}..H_{k-1} are consumed by
      // later iterations as usual.
      if (inconsistent(sc)) {
        slot.red.wait();
        sc = direct_pipelined_scalars(layout_, gram_of(slot.red));
      }
    } else {
      slot.red.wait();
      sc = direct_pipelined_scalars(layout_, gram_of(slot.red));
    }
    if (k > 0 && inconsistent(sc)) {
      // Even the direct scalars are inconsistent: the auxiliary recurrences
      // (s, q, z, the chains) have drifted away from the true residual — the
      // classical attainable-accuracy wall of deeper pipelines, which
      // Levonyak et al. counter with residual replacement. Restart: flush
      // the ring, rebuild r/u/w and the chains from x, and take a beta = 0
      // step — with beta = 0 every auxiliary recurrence below rebuilds
      // itself from the fresh vectors (s = w, q = m_1, ...), so conjugacy
      // restarts cleanly from the current iterate.
      for (RingEntry& e : ring) {
        e.red.wait();
        e.iteration = -1;
      }
      build_from_x();
      history.clear();
      slot.red = ipipelined_gram(cluster_, basis, it);
      slot.iteration = k;
      slot.red.wait();
      sc = direct_pipelined_scalars(layout_, gram_of(slot.red));
      restarted = true;
    }
    const double gamma = sc.gamma;
    const double delta = sc.delta;
    const double rr = sc.rr;

    if (k == 0) {
      rnorm0 = std::sqrt(rr);
      if (rnorm0 == 0.0) {
        res.converged = true;
        res.solver_residual_norm = 0.0;
        break;
      }
    } else {
      res.iterations = k;
      res.rel_residual = std::sqrt(rr) / rnorm0;
      res.solver_residual_norm = std::sqrt(rr);
      if (opts_.events.on_iteration) {
        IterationSnapshot snap;
        snap.iteration = res.iterations;
        snap.rel_residual = res.rel_residual;
        snap.x = &x;
        snap.r = &st.r;
        snap.z = &st.u;  // u is the preconditioned residual
        snap.p = &st.p;
        opts_.events.on_iteration(snap);
      }
      if (res.rel_residual <= opts_.pcg.rtol) {
        res.converged = true;
        break;
      }
    }
    if (k >= opts_.pcg.max_iterations) break;

    // Scalar recurrences (replicated; the predicted gamma/delta/rr are pure
    // functions of the reduced Gram matrix and the replicated history, so
    // every node computes identical values).
    double beta, alpha;
    if (k == 0 || restarted) {
      beta = 0.0;
      if (!(delta > 0.0))
        throw DivergenceError("matrix is not positive definite along u");
      alpha = gamma / delta;
    } else {
      beta = gamma / st.gamma_prev;
      const double denom = delta - beta * gamma / st.alpha_prev;
      if (!(denom > 0.0))
        throw DivergenceError("matrix is not positive definite along p");
      alpha = gamma / denom;
    }
    history.push_back({beta, alpha});
    if (static_cast<int>(history.size()) > d) history.erase(history.begin());

    // Vector recurrences of update k — the order predict_pipelined_scalars
    // replays in coefficient space, so keep them in lockstep.
    xpby(cluster_, st.w, beta, st.s, it);     // s = w + beta s
    xpby(cluster_, st.m[0], beta, st.q, it);  // q = m_1 + beta q
    xpby(cluster_, st.n[0], beta, st.z, it);  // z = n_1 + beta z
    for (int i = 0; i + 1 < L; ++i) {
      const auto iz = static_cast<std::size_t>(i);
      xpby(cluster_, st.m[iz + 1], beta, st.zeta[iz], it);
      xpby(cluster_, st.n[iz + 1], beta, st.xi[iz], it);
      axpy(cluster_, -alpha, st.zeta[iz], st.m[iz], it);
      axpy(cluster_, -alpha, st.xi[iz], st.n[iz], it);
    }
    {
      // Generation keeping is a pointer rotation in a real implementation.
      ClockPause pause(cluster_.clock());
      for (int g = opts_.depth - 1; g >= 1; --g)
        copy(cluster_, st.u_hist[static_cast<std::size_t>(g) - 1],
             st.u_hist[static_cast<std::size_t>(g)], it);
      copy(cluster_, st.u, st.u_hist[0], it);
      copy(cluster_, st.p, st.p_prev, it);
    }
    xpby(cluster_, st.u, beta, st.p, it);    // p = u + beta p
    axpy(cluster_, alpha, st.p, x, it);      // x += alpha p
    axpy(cluster_, -alpha, st.s, st.r, it);  // r -= alpha s
    axpy(cluster_, -alpha, st.q, st.u, it);  // u -= alpha q
    axpy(cluster_, -alpha, st.z, st.w, it);  // w -= alpha z
    st.gamma_prev = gamma;
    st.alpha_prev = alpha;

    // Fresh deepest chain pair — the one preconditioner application and one
    // SpMV of the iteration; the shallower rungs advanced by recurrence.
    m_->apply(cluster_,
              L == 1 ? st.w : st.n[static_cast<std::size_t>(L) - 2],
              st.m[static_cast<std::size_t>(L) - 1], it);
    a_->spmv(cluster_, st.m[static_cast<std::size_t>(L) - 1],
             st.n[static_cast<std::size_t>(L) - 1], halos, it);
  }

  accounting.close(*a_, b, x, res);
  return res;
}

}  // namespace rpcg
