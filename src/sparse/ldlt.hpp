// Sparse LDLᵀ factorization: supernodal left-looking numeric factorization
// with a supernodal or scalar solve layout, behind a pluggable
// fill-reducing ordering. Provides the *exact* local solves the library
// needs:
//   * block Jacobi preconditioner blocks are "solved exactly" (paper Sec. 6),
//   * the explicit-P variant of Alg. 2 solves P_{If,If} r_{If} = v exactly,
//   * the accuracy ablation solves A_{If,If} x_{If} = w directly instead of
//     iteratively.
// Symbolic analysis first (Davis, "Direct Methods for Sparse Linear
// Systems", ch. 4): the elimination tree, the column counts of L in
// O(|A| log n), and from them the exact supernodes — maximal runs of
// contiguous columns sharing one sub-diagonal pattern — and their row
// structure. The numeric pass then runs over supernodes in the style of
// CHOLMOD, in place in the column-wise storage of L: each gathers its
// descendants' updates with a register-tiled dense kernel scattered through
// a relative row map, and factors its diagonal block and the panel below it
// densely. Every entry takes its updates one product at a time in ascending
// column order, so where the elimination tree is a path (banded factors)
// the factor is bit for bit that of a scalar up-looking factorization
// (Davis, sec. 4.7), and elsewhere it differs from it in rounding only.
// Solves run blocked forward/diagonal/backward sweeps over dense panels of
// the wide supernodes — cache-friendly, auto-vectorizable — and scalar
// per-column sweeps elsewhere. Exact supernodes store no padding zeros, so
// the flop accounting is identical either way and sim-model times shift
// only with the *ordering* (real work), never with the kernels or the
// storage format.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "util/types.hpp"

namespace rpcg {

/// Candidate symmetric orderings of ReorderedLdlt (see below).
enum class LdltOrdering { kNatural, kRcm, kAmd };

[[nodiscard]] const char* to_string(LdltOrdering o);

class SparseLdlt {
 public:
  /// Factorizes the SPD matrix A (full symmetric storage, sorted rows).
  /// Returns std::nullopt if a pivot is not positive (A not numerically
  /// positive definite, or NaN). `supernodal` selects only the solve
  /// layout: with it (the default) the supernodes wide enough to pay off
  /// are also packed into dense solve panels; pass false to force the
  /// scalar column sweeps (micro-benches and equivalence tests). The
  /// factor itself is the same either way.
  [[nodiscard]] static std::optional<SparseLdlt> factor(const CsrMatrix& a,
                                                        bool supernodal = true);

  /// Symbolic-only fill count: the number of entries L would have (excluding
  /// the unit diagonal). Cheap (elimination tree and column counts in
  /// O(|A| log n), no numerics, L never formed); used to choose between
  /// candidate orderings before factorizing once.
  [[nodiscard]] static Index symbolic_nnz(const CsrMatrix& a);

  /// Solves A x = b in place (b becomes x).
  void solve_in_place(std::span<double> b) const;

  /// Convenience out-of-place solve.
  void solve(std::span<const double> b, std::span<double> x) const;

  [[nodiscard]] Index dim() const { return n_; }

  /// Number of stored entries of L (excluding the unit diagonal). Identical
  /// between the scalar and supernodal solve layouts: exact supernodes add
  /// no padding.
  [[nodiscard]] Index l_nnz() const { return static_cast<Index>(li_.size()); }

  /// True when solves run (at least partly) over packed supernode panels.
  [[nodiscard]] bool supernodal() const { return !blk_first_.empty(); }

  /// Number of supernodes (groups of contiguous columns with one shared
  /// sub-diagonal pattern); n_ when every supernode is a singleton. Found
  /// symbolically, so independent of the solve layout.
  [[nodiscard]] Index num_supernodes() const { return num_supernodes_; }

  /// Width of the widest detected supernode (1 for a factor with no
  /// mergeable columns, e.g. a perfect band).
  [[nodiscard]] Index max_supernode_width() const { return max_sn_width_; }

  /// Flop count of one solve (forward + diagonal + backward), used by the
  /// simulated-time cost model. Independent of the storage format.
  [[nodiscard]] double solve_flops() const {
    return 4.0 * static_cast<double>(l_nnz()) + static_cast<double>(n_);
  }

  /// Flops charged for the numeric factorization (cost model for the local
  /// solves set up during reconstruction): Σ c(c-1) + 4c over the column
  /// counts c of L, so independent of the numeric kernel.
  [[nodiscard]] double factor_flops() const { return factor_flops_; }

 private:
  SparseLdlt() = default;

  void pack_panels(const std::vector<Index>& first);
  void solve_in_place_simplicial(std::span<double> b) const;
  void solve_in_place_supernodal(std::span<double> b) const;

  Index n_ = 0;
  // L stored by columns (unit diagonal implicit).
  std::vector<Index> lp_;   // column pointers, size n+1
  std::vector<Index> li_;   // row indices
  std::vector<double> lx_;  // values
  std::vector<double> d_;   // diagonal of D
  double factor_flops_ = 0.0;

  // Supernodal packing. Only supernodes wide enough to amortize the blocked
  // bookkeeping are packed (narrow ones would only add overhead over the
  // scalar column sweep, which stays available through lp_/li_/lx_); solves
  // interleave packed blocks with scalar sweeps over the columns between
  // them. For a packed block of columns [c0, c1) with width w = c1 - c0 the
  // within-supernode coefficients form a dense unit-lower triangle (packed
  // column-major, strictly lower part only) and the shared sub-diagonal rows
  // form a dense |rows| x w panel (row-major, so both the forward row-dot
  // and the backward per-row accumulation stream contiguously).
  Index num_supernodes_ = 0;
  Index max_sn_width_ = 1;
  std::vector<Index> blk_first_;     // packed block -> first column
  std::vector<Index> blk_last_;      // packed block -> one past last column
  std::vector<Index> blk_rowptr_;    // packed block -> start in blk_rows_
  std::vector<Index> blk_rows_;      // concatenated sub-diagonal row indices
  std::vector<Index> blk_triptr_;    // packed block -> start in blk_tri_
  std::vector<double> blk_tri_;      // packed strict-lower triangles
  std::vector<Index> blk_panelptr_;  // packed block -> start in blk_panel_
  std::vector<double> blk_panel_;    // row-major panels
};

/// LDLᵀ behind a fill-reducing symmetric permutation.
///
/// LDLᵀ in the natural ordering is catastrophic for the banded
/// node blocks this library factorizes (a 4x256 grid strip of the M1 FEM
/// matrix fills to ~200k entries; RCM brings it to ~4k), and RCM in turn
/// barely helps random-pattern blocks (M2-style), where the fill-targeting
/// AMD ordering wins by another 2-3x. factor() counts the symbolic fill of
/// every candidate ordering (natural | RCM | AMD) and keeps the sparsest —
/// ties prefer the earlier candidate, so it is never worse than plain
/// SparseLdlt::factor and fully deterministic. The winning choice is exposed
/// via ordering() for diagnostics. Solves apply the permutation through a
/// thread-local workspace, so one instance may be solved from concurrent
/// threads (e.g. cache entries shared across a threaded harness).
class ReorderedLdlt {
 public:
  [[nodiscard]] static std::optional<ReorderedLdlt> factor(const CsrMatrix& a);

  /// Forces one ordering candidate (and optionally the scalar solve layout)
  /// instead of selecting by symbolic fill — the measurement hook for the
  /// micro-benches and the ordering property tests.
  [[nodiscard]] static std::optional<ReorderedLdlt> factor_with(
      const CsrMatrix& a, LdltOrdering ordering, bool supernodal = true);

  /// Solves A x = b; b and x must not alias. Thread-safe.
  void solve(std::span<const double> b, std::span<double> x) const;

  [[nodiscard]] Index dim() const { return ldlt_.dim(); }
  [[nodiscard]] Index l_nnz() const { return ldlt_.l_nnz(); }
  [[nodiscard]] double solve_flops() const { return ldlt_.solve_flops(); }
  [[nodiscard]] double factor_flops() const { return ldlt_.factor_flops(); }
  /// The ordering that won the symbolic-fill selection.
  [[nodiscard]] LdltOrdering ordering() const { return ordering_; }
  [[nodiscard]] const char* ordering_name() const {
    return to_string(ordering_);
  }
  /// True when a fill-reducing ordering beat natural (kept for the PR 3 era
  /// callers; equivalent to ordering() != kNatural).
  [[nodiscard]] bool reordered() const { return !perm_.empty(); }
  /// The underlying factor (supernode diagnostics for tests/benches).
  [[nodiscard]] const SparseLdlt& factorization() const { return ldlt_; }

 private:
  ReorderedLdlt(SparseLdlt ldlt, std::vector<Index> perm, LdltOrdering ordering)
      : ldlt_(std::move(ldlt)),
        perm_(std::move(perm)),
        ordering_(ordering) {}

  SparseLdlt ldlt_;
  std::vector<Index> perm_;  // new-to-old; empty = identity
  LdltOrdering ordering_ = LdltOrdering::kNatural;
};

}  // namespace rpcg
