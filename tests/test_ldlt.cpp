#include "sparse/ldlt.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>

#include "repro/matrices.hpp"
#include "sim/partition.hpp"
#include "sparse/amd.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "sparse/reorder.hpp"
#include "test_util.hpp"

namespace rpcg {
namespace {

using testing::dense_random_spd;
using testing::max_diff;
using testing::random_vector;

void expect_solves(const CsrMatrix& a, double tol) {
  const auto fact = SparseLdlt::factor(a);
  ASSERT_TRUE(fact.has_value());
  const auto x_ref = random_vector(a.rows(), 11);
  std::vector<double> b(static_cast<std::size_t>(a.rows()));
  a.spmv(x_ref, b);
  std::vector<double> x(static_cast<std::size_t>(a.rows()));
  fact->solve(b, x);
  EXPECT_LT(max_diff(x, x_ref), tol);
}

TEST(Ldlt, SolvesDenseRandomSpd) { expect_solves(dense_random_spd(30, 2), 1e-10); }

TEST(Ldlt, SolvesPoisson2d) { expect_solves(poisson2d_5pt(12, 11), 1e-9); }

TEST(Ldlt, SolvesElasticityBlockMatrix) {
  expect_solves(elasticity3d(4, 4, 4, Stencil3d::kFacesCorners14, 0.0, 1), 1e-8);
}

TEST(Ldlt, SolvesCircuitLike) { expect_solves(circuit_like(12, 12, 0.05, 3), 1e-8); }

TEST(Ldlt, RejectsIndefinite) {
  TripletBuilder b;
  b.add(0, 0, 1.0);
  b.add_sym(0, 1, 3.0);
  b.add(1, 1, 1.0);
  EXPECT_FALSE(SparseLdlt::factor(b.build(2, 2)).has_value());
}

TEST(Ldlt, RejectsNanPivot) {
  TripletBuilder b;
  b.add(0, 0, std::nan(""));
  b.add(1, 1, 1.0);
  const CsrMatrix a = b.build(2, 2);
  EXPECT_FALSE(SparseLdlt::factor(a).has_value());
  EXPECT_FALSE(ReorderedLdlt::factor(a).has_value());
}

TEST(Ldlt, TridiagFactorHasNoFill) {
  const CsrMatrix a = tridiag_spd(100);
  const auto fact = SparseLdlt::factor(a);
  ASSERT_TRUE(fact.has_value());
  EXPECT_EQ(fact->l_nnz(), 99);  // exactly the subdiagonal, no fill-in
  EXPECT_GT(fact->factor_flops(), 0.0);
}

TEST(Ldlt, SolveInPlaceMatchesOutOfPlace) {
  const CsrMatrix a = dense_random_spd(15, 8);
  const auto fact = SparseLdlt::factor(a);
  ASSERT_TRUE(fact.has_value());
  const auto b = random_vector(15, 3);
  std::vector<double> x1(b.size());
  fact->solve(b, x1);
  std::vector<double> x2 = b;
  fact->solve_in_place(x2);
  EXPECT_LT(max_diff(x1, x2), 1e-15);
}

TEST(Ldlt, IdentityIsItsOwnFactor) {
  const auto fact = SparseLdlt::factor(CsrMatrix::identity(7));
  ASSERT_TRUE(fact.has_value());
  EXPECT_EQ(fact->l_nnz(), 0);
  std::vector<double> b{1, 2, 3, 4, 5, 6, 7};
  const auto expect = b;
  fact->solve_in_place(b);
  EXPECT_LT(max_diff(b, expect), 1e-15);
}

TEST(LdltSupernodes, DenseFactorIsOneSupernode) {
  const Index n = 20;
  const auto fact = SparseLdlt::factor(dense_random_spd(n, 5));
  ASSERT_TRUE(fact.has_value());
  EXPECT_EQ(fact->num_supernodes(), 1);
  EXPECT_EQ(fact->max_supernode_width(), n);
  EXPECT_TRUE(fact->supernodal());  // one packed block of width n
}

TEST(LdltSupernodes, BandAndIdentityStaySimplicial) {
  // A perfect band's exact supernodes are near-singletons (each column's
  // pattern slides by one row; only the last columns merge as the band runs
  // out of rows), so nothing reaches the packing width and the scalar sweep
  // of the PR 3 code path is kept verbatim.
  const auto band = SparseLdlt::factor(tridiag_spd(50));
  ASSERT_TRUE(band.has_value());
  EXPECT_EQ(band->num_supernodes(), 49);  // the trailing pair merges
  EXPECT_EQ(band->max_supernode_width(), 2);
  EXPECT_FALSE(band->supernodal());

  const auto id = SparseLdlt::factor(CsrMatrix::identity(9));
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(id->num_supernodes(), 9);
  EXPECT_FALSE(id->supernodal());
}

TEST(LdltSupernodes, DetectionCountsAreKernelIndependent) {
  const CsrMatrix a = random_spd(220, 10, 0.5, 40, 0xC4);
  const auto on = SparseLdlt::factor(a, true);
  const auto off = SparseLdlt::factor(a, false);
  ASSERT_TRUE(on.has_value());
  ASSERT_TRUE(off.has_value());
  // The scalar factor skips detection entirely; the supernodal factor's
  // storage never changes the factor itself.
  EXPECT_FALSE(off->supernodal());
  EXPECT_EQ(on->l_nnz(), off->l_nnz());
  EXPECT_EQ(on->solve_flops(), off->solve_flops());
  EXPECT_EQ(on->factor_flops(), off->factor_flops());
}

TEST(LdltSupernodes, SupernodalSolveMatchesSimplicial) {
  // Random SPD matrices with enough fill that wide supernodes get packed;
  // the blocked solve must agree with the scalar sweep to tight tolerance
  // (identical flops, different rounding grouping only).
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const CsrMatrix a = random_spd(260, 12, 0.4, 50, seed);
    const auto on = SparseLdlt::factor(a, true);
    const auto off = SparseLdlt::factor(a, false);
    ASSERT_TRUE(on.has_value());
    ASSERT_TRUE(off.has_value());
    ASSERT_TRUE(on->supernodal()) << "expected packed supernodes, seed "
                                  << seed;
    const auto b = random_vector(a.rows(), seed + 10);
    std::vector<double> x_on(b.size()), x_off(b.size());
    on->solve(b, x_on);
    off->solve(b, x_off);
    EXPECT_LT(max_diff(x_on, x_off), 1e-11) << "seed " << seed;
  }
}

TEST(LdltSupernodes, DenseSupernodalSolveIsExact) {
  const CsrMatrix a = dense_random_spd(40, 7);
  const auto fact = SparseLdlt::factor(a);
  ASSERT_TRUE(fact.has_value());
  ASSERT_TRUE(fact->supernodal());
  const auto x_ref = random_vector(a.rows(), 2);
  std::vector<double> b(x_ref.size());
  a.spmv(x_ref, b);
  std::vector<double> x(b.size());
  fact->solve(b, x);
  EXPECT_LT(max_diff(x, x_ref), 1e-9);
}

// --- The supernodal numeric factorization on the shapes the library
// factors: generator families, block-Jacobi node blocks of the M1/M2/M4
// analogues and an ESR lost block. The structural statistics are the
// symbolic analysis's and were recorded from the up-looking factorization
// this kernel replaced; the kernel must reproduce them exactly. ---

/// Rows of `count` consecutive nodes (from `first`) of a block-row
/// partition of a reproduction matrix, as the principal submatrix.
CsrMatrix node_rows(int matrix, double scale, int nodes, NodeId first,
                    int count) {
  const auto m = repro::make_matrix(matrix, scale);
  const Partition part = Partition::block_rows(m.matrix.rows(), nodes);
  std::vector<NodeId> set;
  for (int k = 0; k < count; ++k) set.push_back(first + k);
  const std::vector<Index> rows = part.rows_of_set(set);
  return m.matrix.submatrix(rows, rows);
}

struct FactorCase {
  std::string name;
  std::function<CsrMatrix()> make;
  Index l_nnz;
  double factor_flops;
  Index num_supernodes;
  Index max_supernode_width;
};

std::vector<FactorCase> factor_cases() {
  return {
      {"random_spd", [] { return random_spd(400, 12, 0.4, 50, 7); }, 26597,
       3462518, 192, 208},
      {"poisson2d", [] { return poisson2d_5pt(40, 30); }, 13859, 362302, 912,
       51},
      {"circuit_like", [] { return circuit_like(30, 30, 0.05, 3); }, 11570,
       350898, 697, 56},
      // Block-Jacobi node blocks: M1 scale 8 / M2 scale 24 on 64 nodes, M4
      // scale 32 on 16 nodes.
      {"m1_node_block", [] { return node_rows(1, 8.0, 64, 0, 1); }, 4078,
       28516, 1020, 3},
      {"m2_node_block", [] { return node_rows(2, 24.0, 64, 0, 1); }, 2662,
       90868, 114, 56},
      {"m4_node_block", [] { return node_rows(4, 32.0, 16, 0, 1); }, 53752,
       2856588, 1756, 111},
      // The first lost block of the recovery-bound benchmark: M2 scale 24,
      // nodes 32..39 of 64 fail together.
      {"m2_lost_block", [] { return node_rows(2, 24.0, 64, 32, 8); }, 211815,
       74515666, 720, 538},
  };
}

double relative_residual(const CsrMatrix& a, const ReorderedLdlt& f) {
  const auto b = random_vector(a.rows(), 5);
  std::vector<double> x(b.size());
  std::vector<double> ax(b.size());
  f.solve(b, x);
  a.spmv(x, ax);
  double rr = 0.0;
  double bb = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    rr += (b[i] - ax[i]) * (b[i] - ax[i]);
    bb += b[i] * b[i];
  }
  return std::sqrt(rr / bb);
}

TEST(LdltSupernodal, StatisticsAndResidualsOnLibraryShapes) {
  for (const FactorCase& c : factor_cases()) {
    SCOPED_TRACE(c.name);
    const CsrMatrix a = c.make();
    const auto f = ReorderedLdlt::factor(a);
    ASSERT_TRUE(f.has_value());
    const SparseLdlt& l = f->factorization();
    EXPECT_EQ(l.l_nnz(), c.l_nnz);
    EXPECT_EQ(l.factor_flops(), c.factor_flops);
    EXPECT_EQ(l.num_supernodes(), c.num_supernodes);
    EXPECT_EQ(l.max_supernode_width(), c.max_supernode_width);
    EXPECT_LE(relative_residual(a, *f), 1e-12);
    // The same factor under the scalar column-sweep solve layout.
    const auto scalar = ReorderedLdlt::factor_with(a, f->ordering(), false);
    ASSERT_TRUE(scalar.has_value());
    EXPECT_FALSE(scalar->factorization().supernodal());
    EXPECT_EQ(scalar->l_nnz(), c.l_nnz);
    EXPECT_LE(relative_residual(a, *scalar), 1e-12);
  }
}

TEST(LdltSupernodal, NonpositivePivotInsideAWideSupernodeFails) {
  // A dense SPD matrix is one supernode of width n. Breaking one pivot deep
  // inside it (past the first recursive split, so the pivot has taken
  // updates through the tiled kernel) must fail the factorization, whether
  // the pivot turns negative, zero or NaN.
  const Index n = 48;
  const CsrMatrix spd = dense_random_spd(n, 9);
  ASSERT_EQ(SparseLdlt::factor(spd)->max_supernode_width(), n);
  for (const Index k : {Index{5}, Index{30}, Index{47}}) {
    for (const double value : {-1e6, 0.0, std::nan("")}) {
      TripletBuilder b;
      for (Index i = 0; i < n; ++i) {
        const auto cols = spd.row_cols(i);
        const auto vals = spd.row_vals(i);
        for (std::size_t p = 0; p < cols.size(); ++p) {
          const bool broken = i == k && cols[p] == k;
          b.add(i, cols[p], broken ? value : vals[p]);
        }
      }
      const CsrMatrix a = b.build(n, n);
      EXPECT_FALSE(SparseLdlt::factor(a).has_value())
          << "pivot " << k << " = " << value;
    }
  }
}

/// Reference up-looking LDLᵀ (row by row, Davis ch. 4) and its scalar
/// solve: the arithmetic the supernodal factorization's narrow paths
/// reproduce operation for operation.
std::vector<double> uplooking_solve(const CsrMatrix& a,
                                    std::vector<double> b) {
  const Index n = a.rows();
  const auto un = static_cast<std::size_t>(n);
  std::vector<Index> parent(un, -1);
  std::vector<Index> flag(un, -1);
  std::vector<Index> lnz(un, 0);
  for (Index k = 0; k < n; ++k) {
    flag[static_cast<std::size_t>(k)] = k;
    for (Index i : a.row_cols(k)) {
      if (i >= k) continue;
      for (; flag[static_cast<std::size_t>(i)] != k;
           i = parent[static_cast<std::size_t>(i)]) {
        if (parent[static_cast<std::size_t>(i)] == -1)
          parent[static_cast<std::size_t>(i)] = k;
        ++lnz[static_cast<std::size_t>(i)];
        flag[static_cast<std::size_t>(i)] = k;
      }
    }
  }
  std::vector<Index> lp(un + 1, 0);
  for (std::size_t j = 0; j < un; ++j) lp[j + 1] = lp[j] + lnz[j];
  std::vector<Index> li(static_cast<std::size_t>(lp.back()));
  std::vector<double> lx(li.size());
  std::vector<double> d(un);
  std::vector<double> y(un, 0.0);
  std::vector<Index> pattern(un);
  std::fill(flag.begin(), flag.end(), -1);
  std::fill(lnz.begin(), lnz.end(), 0);
  for (Index k = 0; k < n; ++k) {
    Index top = n;
    flag[static_cast<std::size_t>(k)] = k;
    const auto cols = a.row_cols(k);
    const auto vals = a.row_vals(k);
    for (std::size_t p = 0; p < cols.size(); ++p) {
      Index i = cols[p];
      if (i > k) continue;
      y[static_cast<std::size_t>(i)] += vals[p];
      Index len = 0;
      for (; flag[static_cast<std::size_t>(i)] != k;
           i = parent[static_cast<std::size_t>(i)]) {
        pattern[static_cast<std::size_t>(len++)] = i;
        flag[static_cast<std::size_t>(i)] = k;
      }
      while (len > 0)
        pattern[static_cast<std::size_t>(--top)] =
            pattern[static_cast<std::size_t>(--len)];
    }
    double dk = y[static_cast<std::size_t>(k)];
    y[static_cast<std::size_t>(k)] = 0.0;
    for (; top < n; ++top) {
      const auto i = static_cast<std::size_t>(pattern[static_cast<std::size_t>(top)]);
      const double yi = y[i];
      y[i] = 0.0;
      const Index p2 = lp[i] + lnz[i];
      for (Index p = lp[i]; p < p2; ++p)
        y[static_cast<std::size_t>(li[static_cast<std::size_t>(p)])] -=
            lx[static_cast<std::size_t>(p)] * yi;
      const double lki = yi / d[i];
      dk -= lki * yi;
      li[static_cast<std::size_t>(p2)] = k;
      lx[static_cast<std::size_t>(p2)] = lki;
      ++lnz[i];
    }
    d[static_cast<std::size_t>(k)] = dk;
  }
  for (std::size_t j = 0; j < un; ++j)
    for (Index p = lp[j]; p < lp[j + 1]; ++p)
      b[static_cast<std::size_t>(li[static_cast<std::size_t>(p)])] -=
          lx[static_cast<std::size_t>(p)] * b[j];
  for (std::size_t j = 0; j < un; ++j) b[j] /= d[j];
  for (std::size_t j = un; j-- > 0;) {
    double s = b[j];
    for (Index p = lp[j]; p < lp[j + 1]; ++p)
      s -= lx[static_cast<std::size_t>(p)] *
           b[static_cast<std::size_t>(li[static_cast<std::size_t>(p)])];
    b[j] = s;
  }
  return b;
}

TEST(LdltSupernodal, PathTreeFactorsRoundExactlyAsUpLooking) {
  // Every target entry takes its updates one product at a time, in
  // ascending column order, with the up-looking pass's products and
  // divisions. Where the elimination tree is a path (banded factors such as
  // the M1 node blocks under RCM, or one dense supernode) the up-looking
  // pass applies them in that same order, so the factor is bit for bit the
  // same, through the scalar loops and the tiled kernel alike. (Where rows
  // have branching subtrees, the up-looking order is a per-row topological
  // order and the two differ in rounding only.)
  const auto check = [](const CsrMatrix& a) {
    const auto f = SparseLdlt::factor(a, false);
    ASSERT_TRUE(f.has_value());
    const auto b = random_vector(a.rows(), 3);
    std::vector<double> x(b.size());
    f->solve(b, x);
    EXPECT_EQ(x, uplooking_solve(a, b));
  };
  check(tridiag_spd(200));
  check(banded_spd(300, 12, 0.5, 6));
  const CsrMatrix dense = dense_random_spd(100, 4);
  ASSERT_EQ(SparseLdlt::factor(dense)->max_supernode_width(), 100);
  check(dense);
  for (const NodeId node : {0, 31, 63}) {
    SCOPED_TRACE(node);
    const CsrMatrix block = node_rows(1, 8.0, 64, node, 1);
    check(block.permuted_symmetric(rcm_ordering(block)));
  }
}

/// The fill of L by the row-subtree walk (Davis, ch. 4): an independent
/// O(|L|) reference for the O(|A|) column counts.
Index walk_fill(const CsrMatrix& a) {
  const Index n = a.rows();
  std::vector<Index> parent(static_cast<std::size_t>(n), -1);
  std::vector<Index> flag(static_cast<std::size_t>(n), -1);
  Index nnz = 0;
  for (Index k = 0; k < n; ++k) {
    flag[static_cast<std::size_t>(k)] = k;
    for (Index i : a.row_cols(k)) {
      if (i >= k) continue;
      for (; flag[static_cast<std::size_t>(i)] != k;
           i = parent[static_cast<std::size_t>(i)]) {
        if (parent[static_cast<std::size_t>(i)] == -1)
          parent[static_cast<std::size_t>(i)] = k;
        ++nnz;
        flag[static_cast<std::size_t>(i)] = k;
      }
    }
  }
  return nnz;
}

TEST(LdltOrdering, SelectionMatchesTheFullFillCountChoice) {
  // The selection rule of ReorderedLdlt::factor, replayed on full fill
  // counts: a later candidate must beat the incumbent by 2%, and a
  // candidate that is the identity permutation is natural.
  const auto is_identity = [](const std::vector<Index>& perm) {
    for (std::size_t i = 0; i < perm.size(); ++i)
      if (perm[i] != static_cast<Index>(i)) return false;
    return true;
  };
  std::vector<std::pair<std::string, CsrMatrix>> mats = {
      {"poisson2d", poisson2d_5pt(20, 17)},
      {"poisson3d", poisson3d_7pt(8, 7, 6)},
      {"fem2d", fem2d_p1(16, 12)},
      {"elasticity", elasticity3d(5, 4, 4, Stencil3d::kFacesCorners14, 0.1, 2)},
      {"circuit_like", circuit_like(20, 18, 0.05, 4)},
      {"random_spd", random_spd(300, 10, 0.5, 30, 3)},
      {"banded", banded_spd(400, 12, 0.5, 6)},
      {"banded_periodic", banded_spd(400, 12, 0.5, 6, true)},
      {"tridiag", tridiag_spd(64)},
  };
  for (const int m : {1, 2, 4}) {
    for (const NodeId node : {0, 7}) {
      char name[32];
      std::snprintf(name, sizeof name, "M%d_block%d", m, node);
      mats.emplace_back(name, node_rows(m, 32.0, 16, node, 1));
    }
  }
  for (const auto& [name, a] : mats) {
    SCOPED_TRACE(name);
    Index best_nnz = walk_fill(a);
    EXPECT_EQ(SparseLdlt::symbolic_nnz(a), best_nnz);
    LdltOrdering best = LdltOrdering::kNatural;
    for (const LdltOrdering o : {LdltOrdering::kRcm, LdltOrdering::kAmd}) {
      const std::vector<Index> perm =
          o == LdltOrdering::kRcm ? rcm_ordering(a) : amd_ordering(a);
      if (is_identity(perm)) continue;
      const CsrMatrix pa = a.permuted_symmetric(perm);
      const Index nnz = walk_fill(pa);
      EXPECT_EQ(SparseLdlt::symbolic_nnz(pa), nnz);
      if (nnz < best_nnz - best_nnz / 50) {
        best_nnz = nnz;
        best = o;
      }
    }
    const auto f = ReorderedLdlt::factor(a);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->ordering(), best);
    EXPECT_EQ(f->l_nnz(), best_nnz);
  }
}

}  // namespace
}  // namespace rpcg
