#include "sparse/ic0.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"

namespace rpcg {
namespace {

using testing::max_diff;
using testing::random_vector;

TEST(Ic0, ExactOnTridiagonal) {
  // IC(0) on a tridiagonal SPD matrix has no discarded fill: it IS the exact
  // Cholesky factorization, so solve() must solve A x = b exactly.
  const CsrMatrix a = tridiag_spd(60);
  const auto ic = Ic0::factor(a);
  ASSERT_TRUE(ic.has_value());
  EXPECT_DOUBLE_EQ(ic->shift_used(), 0.0);
  const auto x_ref = random_vector(60, 5);
  std::vector<double> b(60), x(60);
  a.spmv(x_ref, b);
  ic->solve(b, x);
  EXPECT_LT(max_diff(x, x_ref), 1e-10);
}

TEST(Ic0, MultiplyIsInverseOfSolve) {
  const CsrMatrix a = poisson2d_5pt(9, 8);
  const auto ic = Ic0::factor(a);
  ASSERT_TRUE(ic.has_value());
  const auto v = random_vector(a.rows(), 6);
  std::vector<double> m_v(v.size()), back(v.size());
  ic->multiply(v, m_v);  // M v = L Lᵀ v
  ic->solve(m_v, back);  // M^{-1} (M v) = v
  EXPECT_LT(max_diff(back, v), 1e-11);
}

TEST(Ic0, PreconditionerReducesResidualFast) {
  // One application of IC(0) must approximate A^{-1} much better than the
  // identity does: ||I - M^{-1}A x|| smaller than ||x - A x|| for generic x.
  const CsrMatrix a = poisson2d_5pt(10, 10);
  const auto ic = Ic0::factor(a);
  ASSERT_TRUE(ic.has_value());
  const auto x = random_vector(a.rows(), 7);
  std::vector<double> ax(x.size()), minv_ax(x.size());
  a.spmv(x, ax);
  ic->solve(ax, minv_ax);
  double err_prec = 0.0, err_id = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err_prec += (minv_ax[i] - x[i]) * (minv_ax[i] - x[i]);
    err_id += (ax[i] - x[i]) * (ax[i] - x[i]);
  }
  EXPECT_LT(err_prec, 0.25 * err_id);
}

TEST(Ic0, ShiftRetryOnHardMatrix) {
  // A matrix engineered to break IC(0) without a shift: strong positive
  // off-diagonals with a weak diagonal. The factorization must fall back to
  // a diagonal shift instead of failing.
  TripletBuilder b;
  const Index n = 8;
  for (Index i = 0; i < n; ++i) b.add(i, i, 1.0);
  for (Index i = 0; i < n; ++i)
    for (Index j = i + 1; j < n; ++j) b.add_sym(i, j, -0.9 / static_cast<double>(n));
  // This one is SPD-ish but nearly singular; IC(0) may need the shift.
  const auto ic = Ic0::factor(b.build(n, n));
  ASSERT_TRUE(ic.has_value());
  EXPECT_EQ(ic->dim(), n);
}

TEST(Ic0, MissingDiagonalThrows) {
  TripletBuilder b;
  b.add(0, 0, 1.0);
  b.add_sym(0, 1, 0.5);  // row 1 has no diagonal entry
  EXPECT_THROW((void)Ic0::factor(b.build(2, 2)), std::invalid_argument);
}

TEST(Ic0, RejectsNanPivot) {
  // No diagonal shift can repair a NaN pivot: every retry must fail.
  TripletBuilder b;
  b.add(0, 0, std::nan(""));
  b.add(1, 1, 1.0);
  EXPECT_FALSE(Ic0::factor(b.build(2, 2)).has_value());
}

TEST(Ic0, SolveFlopsPositive) {
  const auto ic = Ic0::factor(poisson2d_5pt(5, 5));
  ASSERT_TRUE(ic.has_value());
  EXPECT_GT(ic->solve_flops(), 0.0);
  EXPECT_EQ(ic->l_nnz(), ic->l().nnz());
}

}  // namespace
}  // namespace rpcg
