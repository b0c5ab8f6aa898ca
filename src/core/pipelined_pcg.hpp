// Communication-hiding (pipelined) Krylov engines and their ESR-resilient
// variants — Ghysels & Vanroose's pipelined recurrences on top of the
// split-phase collectives of sim/collectives.hpp, extended to multi-node
// failures and to depth-l pipelining per Levonyak et al. (arXiv:1912.09230).
//
// Depth 1 (the classic pipelined iteration): one fused 3-scalar reduction
// (gamma, delta, ||r||^2) is *posted*, then the preconditioner application
// m = M^{-1} w and the SpMV n = A m execute while it is in flight; wait()
// charges only the non-overlapped remainder of the latency. The recurrences
//
//   z = n + beta z    q = m + beta q    s = w + beta s    p = u + beta p
//   x += alpha p      r -= alpha s      u -= alpha q      w -= alpha z
//
// keep u = M^{-1} r and w = A u without further synchronization. The same
// engine serves pipelined CG (gamma = r^T u, delta = w^T u) and pipelined CR
// (gamma = u^T w, delta = w^T m) — the scalar and vector recurrences are
// identical, only the fused inner products differ.
//
// Depth l >= 2: every iteration posts ONE fused reduction carrying the packed
// Gram matrix of the basis described in solver/pipelined_kernel.hpp, and
// waits the reduction posted l-1 iterations earlier — so l reductions are in
// flight at once and each has ~l-1 full iterations of work to hide behind.
// The scalars of the current iteration are *predicted* from the older Gram
// matrix by replaying the intervening recurrences in coefficient space
// (predict_pipelined_scalars). The first l-1 iterations of the ring — and the
// first l-1 after every recovery, which flushes the in-flight ring — wait
// their own reduction immediately (honestly fully exposed warmup).
//
// Depth 1 keeps its own loop (solve_depth1) instead of running the depth-l
// loop with l = 1. That loop would post the whole nb = 8 basis (36 Gram
// entries, not 3 scalars), and it computes m/n before the post, so no work
// would hide the reduction. Both change the simulated times of depth-1
// pipelined-resilient-pcg, which the benchmark's expected values pin.
//
// Resilience (phi >= 1) reuses the paper's ESR machinery end to end: the
// node backup set grows from {p^(j), p^(j-1)} to also hold the depth+1 most
// recent generations of u (the preconditioned residual seeds reconstruction,
// and the deeper pipeline widens the window that must stay reconstructible),
// piggybacked on the per-iteration halo exchange like the p copies. On
// failure, x and r are reconstructed exactly as in Alg. 2 (r through the
// preconditioner from the backed-up u, x via the A_{IF,IF} local solve,
// FactorizationCache-served), and the remaining recurrence vectors are
// rebuilt on the replacement nodes from their defining relations:
// s = A p, q = M^{-1} s, z = A q, w = A u, plus the chain ladders
// m_i = (M^{-1} A)^i u and zeta_i = (M^{-1} A)^i q at depth >= 2.
#pragma once

#include <cstdint>

#include "core/backup_store.hpp"
#include "core/esr.hpp"
#include "core/events.hpp"
#include "core/failure_injection.hpp"
#include "core/redundancy.hpp"
#include "core/resilient_pcg.hpp"  // PcgOptions, EsrOptions
#include "precond/preconditioner.hpp"
#include "sim/cluster.hpp"
#include "sim/dist_matrix.hpp"
#include "sim/dist_vector.hpp"
#include "solver/pipelined_kernel.hpp"
#include "util/maybe_owned.hpp"

namespace rpcg {

struct PipelinedPcgOptions {
  PcgOptions pcg;
  /// Redundant copies per backed-up vector; 0 = non-resilient (any scheduled
  /// failure throws UnrecoverableFailure), >= 1 enables ESR recovery.
  int phi = 0;
  BackupStrategy strategy = BackupStrategy::kPaperAlternating;
  EsrOptions esr;
  std::uint64_t strategy_seed = 0;
  SolverEvents events;
  /// Pipeline depth l: reductions in flight (1..kMaxPipelineDepth). Depth 1
  /// is the classic Ghysels–Vanroose iteration; deeper rings trade an
  /// l+1-generation u backup charge for l-1 extra iterations of hiding.
  int depth = 1;
  /// Pipelined CG (this paper + PR 4) or pipelined CR (arXiv:1912.09230).
  PipelinedMethod method = PipelinedMethod::kConjugateGradient;
};

/// The pipelined engine. With phi = 0 it runs the plain communication-hiding
/// iteration (the "pipelined-pcg" / "pipelined-cr" registry solvers); with
/// phi >= 1 it is the resilient variant ("pipelined-resilient-pcg" /
/// "pipelined-resilient-cr"). Each method shares one code path across phi,
/// so phi = 0 resilient runs are byte-identical to the plain solver.
class PipelinedPcg {
 public:
  /// Same ownership contract as ResilientPcg: `a_global` is the reliable
  /// static copy kept for reconstruction, `a` its distributed form; both,
  /// the preconditioner, and the cluster must outlive the engine.
  PipelinedPcg(Cluster& cluster, const CsrMatrix& a_global,
               const DistMatrix& a, const Preconditioner& m,
               PipelinedPcgOptions opts);

  /// Convenience constructor that distributes the matrix internally.
  PipelinedPcg(Cluster& cluster, const CsrMatrix& a_global,
               const Preconditioner& m, PipelinedPcgOptions opts);

  /// Solves A x = b from the initial guess in x; failures are injected per
  /// schedule at the loop's SpMV, like the blocking engine.
  [[nodiscard]] SolveReport solve(const DistVector& b, DistVector& x,
                                  const FailureSchedule& schedule = {});

  [[nodiscard]] const PipelinedPcgOptions& options() const { return opts_; }

  /// Failure-free per-iteration cost of distributing the redundant copies of
  /// both backed-up vectors: 2 generations of p plus depth+1 generations of
  /// u ride the halo exchange, so the Sec. 4.2 round-based overhead is
  /// charged (1 + depth) times.
  [[nodiscard]] double redundancy_overhead_per_iteration() const {
    return redundancy_step_cost_;
  }

 private:
  PipelinedPcg(Cluster& cluster, const CsrMatrix& a_global,
               MaybeOwned<DistMatrix> a, const Preconditioner& m,
               PipelinedPcgOptions opts);

  struct Recurrences;  // r/u/w/s/q/z/p/p_prev + replicated scalars
  struct LoopState;    // depth 1: Recurrences + in-flight m/n + u_prev
  struct DeepState;    // depth l: Recurrences + chains + u-generation ring

  /// The shared injection point over x plus the engine state `state`:
  /// failures wipe both backup stores, and an overlapping failure charges
  /// the gathers already performed for the nodes merged so far.
  FailureInjector make_injector(const FailureSchedule& schedule,
                                DistVector& x,
                                std::vector<DistVector*> state);

  /// The recovery steps both depths share, for the merged failure set
  /// `failed`: replacement and static re-fetch, the replicated scalars, the
  /// u and p gathers, r_IF through the preconditioner, x_IF from the local
  /// system, installation of x, r, p, p_prev and the u generations `u_gens`
  /// (newest first, one per store_u_ generation), and the relation-based
  /// rebuild s = A p, q = M^{-1} s, z = A q, w = A u of the lost blocks.
  /// Fills `stats` except sim_seconds; returns the sorted wave.
  std::vector<NodeId> recover_front(std::span<const NodeId> failed,
                                    const DistVector& b, DistVector& x,
                                    Recurrences& st,
                                    std::span<DistVector* const> u_gens,
                                    RecoveryStats& stats);

  /// ESR recovery of the depth-1 pipelined state: the shared front, then a
  /// full recompute of the in-flight m/n on every node. Returns Alg. 2 stats.
  ///
  /// The two chain steps stay apart on purpose. Depth 1 recomputes m and n
  /// whole, on every node; depth l restores only the lost chain blocks. The
  /// rebuilt w = A u differs in rounding from the recurrence w -= alpha z,
  /// so a depth-l-style step at depth 1 would change the survivors' n rows
  /// next to the lost nodes — and with them the simulated values of depth-1
  /// pipelined-resilient-pcg that the benchmark pins.
  RecoveryStats recover(std::span<const NodeId> failed, const DistVector& b,
                        DistVector& x, LoopState& st);

  /// Depth-l counterpart: the shared front, then a ladder rebuild of the
  /// lost blocks of the prediction basis' chain vectors.
  RecoveryStats recover_deep(std::span<const NodeId> failed,
                             const DistVector& b, DistVector& x,
                             DeepState& st);

  /// Depth-1 path (classic one-reduction-in-flight pipelining; the CG branch
  /// is the historic PR 4 loop, bit-for-bit).
  SolveReport solve_depth1(const DistVector& b, DistVector& x,
                           const FailureSchedule& schedule);

  /// Depth >= 2 path: Gram-basis reduction ring with coefficient-space
  /// scalar prediction.
  SolveReport solve_deep(const DistVector& b, DistVector& x,
                         const FailureSchedule& schedule);

  Cluster& cluster_;
  const CsrMatrix* a_global_;
  const Preconditioner* m_;
  PipelinedPcgOptions opts_;
  MaybeOwned<DistMatrix> a_;
  PipelinedBasisLayout layout_;
  RedundancyScheme scheme_;
  BackupStore store_p_;  // p^(j), p^(j-1) — the paper's backup set
  BackupStore store_u_;  // u^(j) .. u^(j-depth) — the pipelined extension
  double redundancy_step_cost_ = 0.0;
};

}  // namespace rpcg
