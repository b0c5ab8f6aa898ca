#include "sparse/dense.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "test_util.hpp"
#include "util/rng.hpp"

namespace rpcg {
namespace {

TEST(Dense, Multiply) {
  DenseMatrix m(2, 3);
  m(0, 0) = 1.0;
  m(0, 2) = 2.0;
  m(1, 1) = -1.0;
  const std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y(2);
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(Dense, CholeskySolvesSpdSystem) {
  const Index n = 12;
  Rng rng(9);
  DenseMatrix r(n, n);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j) r(i, j) = rng.uniform(-1.0, 1.0);
  DenseMatrix a(n, n);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j) {
      double s = i == j ? static_cast<double>(n) : 0.0;
      for (Index k = 0; k < n; ++k) s += r(i, k) * r(j, k);
      a(i, j) = s;
    }
  const auto chol = DenseCholesky::factor(a);
  ASSERT_TRUE(chol.has_value());

  const auto x_ref = testing::random_vector(n, 4);
  std::vector<double> b(static_cast<std::size_t>(n));
  a.multiply(x_ref, b);
  chol->solve_in_place(b);
  EXPECT_LT(testing::max_diff(b, x_ref), 1e-10);
}

TEST(Dense, CholeskyRejectsIndefinite) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = a(1, 0) = 3.0;
  a(1, 1) = 1.0;  // eigenvalues 4 and -2
  EXPECT_FALSE(DenseCholesky::factor(a).has_value());
}

TEST(Dense, CholeskyRejectsNanPivot) {
  DenseMatrix a(2, 2);
  a(0, 0) = std::nan("");
  a(1, 1) = 1.0;
  EXPECT_FALSE(DenseCholesky::factor(a).has_value());
}

TEST(Dense, IdentityFactor) {
  const auto chol = DenseCholesky::factor(DenseMatrix::identity(5));
  ASSERT_TRUE(chol.has_value());
  std::vector<double> b{1, 2, 3, 4, 5};
  const std::vector<double> expect = b;
  chol->solve_in_place(b);
  EXPECT_LT(testing::max_diff(b, expect), 1e-15);
}

}  // namespace
}  // namespace rpcg
