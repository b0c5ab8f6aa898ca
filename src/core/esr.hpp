// Exact state reconstruction (ESR) after simultaneous or overlapping node
// failures — Alg. 2 of the paper, generalized to the failed index set
// I_F = I_{f1} ∪ ... ∪ I_{fψ}:
//
//   1. replacement nodes come online and re-fetch static data (A, M, b rows)
//   2. beta^(j-1) is recovered from any survivor (replicated scalar)
//   3. p^(j)_{IF}, p^(j-1)_{IF} are gathered from the redundant copies
//   4. z_{IF} = p^(j)_{IF} - beta^(j-1) p^(j-1)_{IF}
//   5. r_{IF} is recovered through the preconditioner (P-given / M-given /
//      split variants; see precond/preconditioner.hpp)
//   6. w = b_{IF} - r_{IF} - A_{IF, I\IF} x_{I\IF}
//   7. A_{IF,IF} x_{IF} = w is solved with IC(0)-PCG to a tight tolerance
//      (the paper's 1e-14), or exactly with sparse LDLᵀ (ablation option)
//   8. the redundant stores hosted on the replacements are re-armed.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/backup_store.hpp"
#include "core/factorization_cache.hpp"
#include "precond/preconditioner.hpp"
#include "sim/cluster.hpp"
#include "sim/dist_vector.hpp"
#include "sparse/csr.hpp"

namespace rpcg {

struct EsrOptions {
  /// Relative residual reduction for the local reconstruction system
  /// (paper: 1e14 reduction -> rtol 1e-14).
  double local_rtol = 1e-14;
  int local_max_iterations = 50000;
  /// Solve the local system exactly with sparse LDLᵀ instead of IC(0)-PCG
  /// (used by tests and the accuracy ablation).
  bool exact_local_solve = false;
  /// Optional non-owning host-side cache: A_{IF,IF} extraction and its
  /// IC(0)/LDLᵀ factorization are reused across reconstructions of the same
  /// failed node set. Simulated costs are charged either way, so results are
  /// byte-identical with and without it (see core/factorization_cache.hpp).
  FactorizationCache* cache = nullptr;
  /// Content key of the matrix handed to esr_solve_lost_x alongside these
  /// options. Deriving the key hashes every stored entry of A, so the
  /// long-lived engines memoize it here at setup; when unset (one-shot
  /// callers, tests) each cached solve derives it on the fly.
  std::optional<FactorizationCache::MatrixKey> matrix_key;
};

struct RecoveryStats {
  int psi = 0;                           ///< number of failed nodes recovered
  Index lost_rows = 0;                   ///< |I_F|
  Index gathered_elements = 0;           ///< redundant copies transferred
  int local_solve_iterations = 0;        ///< PCG iterations on A_{IF,IF}
  double local_solve_rel_residual = 0.0;
  double sim_seconds = 0.0;              ///< recovery time on the model clock
};

/// Solves the lost-iterate system A_{IF,IF} x_{IF} = b_{IF} - r_{IF} -
/// A_{IF,I\IF} x_{I\IF} (lines 7-8 of Alg. 2). `r_f` may be empty, in which
/// case the residual term is dropped — that is exactly the Langou-style
/// interpolation used by the restart baseline. Charges gather and compute
/// costs to Phase::kRecovery. Returns iterations/accuracy of the local solve.
struct LocalSolveOutcome {
  int iterations = 0;
  double rel_residual = 0.0;
};

/// Steps 1-2 of Alg. 2, shared by every engine that rebuilds lost state
/// (ESR, pipelined, BiCGSTAB, stationary, interpolation-restart, twin,
/// checkpoint-recovery): failure detection/agreement (one collective over
/// the survivors, ULFM-style shrink/agree), replacement nodes coming online,
/// and their parallel re-fetch of the static data (A rows, preconditioner
/// rows, and `static_vectors` static vectors per row — b, plus r̂0 for
/// BiCGSTAB) from reliable storage. Charges Phase::kRecovery.
void esr_replace_and_refetch(Cluster& cluster, const CsrMatrix& a_global,
                             std::span<const NodeId> failed,
                             Index static_vectors = 1);

/// One reconstructed vector: `values` holds its lost rows laid out as
/// Partition::rows_of_set returns them (failed nodes ascending).
struct LostRows {
  DistVector* target;
  std::span<const double> values;
};

/// Installs every reconstructed vector's lost rows on the replacement nodes
/// and returns the wave sorted ascending — the order the rows are laid out
/// in, and the replacement list BackupStore::re_arm takes.
std::vector<NodeId> esr_install_lost_rows(const Partition& part,
                                          std::span<const NodeId> failed,
                                          std::span<const LostRows> vectors);

/// Charges the gather of the surviving entries a reconstruction reads:
/// `needed[owner]` lists the columns `owner` sends (duplicates allowed).
/// Each owner sends its distinct columns in one message; the round costs
/// the slowest owner. Charges Phase::kRecovery.
void esr_charge_survivor_gather(Cluster& cluster,
                                std::map<NodeId, std::vector<Index>> needed);

[[nodiscard]] LocalSolveOutcome esr_solve_lost_x(
    Cluster& cluster, const CsrMatrix& a_global, std::span<const Index> rows,
    std::span<const double> r_f, const DistVector& b, const DistVector& x,
    std::span<double> x_f, const EsrOptions& opts);

class EsrReconstructor {
 public:
  /// `a_global` is the reliable static copy of the system matrix; `m` the
  /// preconditioner (also static data). Both must outlive the reconstructor.
  EsrReconstructor(const CsrMatrix& a_global, const Preconditioner& m,
                   EsrOptions opts)
      : a_global_(&a_global), m_(&m), opts_(std::move(opts)) {
    if (opts_.cache != nullptr && !opts_.matrix_key)
      opts_.matrix_key = FactorizationCache::matrix_key(a_global);
  }

  /// Recovers the complete solver state {x, r, z, p, p_prev} of the failed
  /// nodes. On entry the failed nodes are marked failed in the cluster and
  /// their blocks are invalidated; on exit they are replaced and all blocks
  /// are valid again, and the backup store is re-armed. Throws
  /// UnrecoverableFailure when the redundancy does not cover the failure.
  RecoveryStats recover(Cluster& cluster, std::span<const NodeId> failed,
                        BackupStore& store, double beta_prev,
                        const DistVector& b, DistVector& x, DistVector& r,
                        DistVector& z, DistVector& p, DistVector& p_prev) const;

  [[nodiscard]] const EsrOptions& options() const { return opts_; }

 private:
  const CsrMatrix* a_global_;
  const Preconditioner* m_;
  EsrOptions opts_;
};

}  // namespace rpcg
