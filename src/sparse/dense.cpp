#include "sparse/dense.hpp"

#include <cmath>

#include "util/check.hpp"

namespace rpcg {

DenseMatrix DenseMatrix::identity(Index n) {
  DenseMatrix m(n, n);
  for (Index i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void DenseMatrix::multiply(std::span<const double> x, std::span<double> y) const {
  RPCG_CHECK(static_cast<Index>(x.size()) == cols_ &&
                 static_cast<Index>(y.size()) == rows_,
             "dense multiply size mismatch");
  for (Index r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (Index c = 0; c < cols_; ++c) acc += (*this)(r, c) * x[static_cast<std::size_t>(c)];
    y[static_cast<std::size_t>(r)] = acc;
  }
}

std::optional<DenseCholesky> DenseCholesky::factor(const DenseMatrix& a) {
  RPCG_CHECK(a.rows() == a.cols(), "Cholesky needs a square matrix");
  const Index n = a.rows();
  DenseMatrix l(n, n);
  for (Index j = 0; j < n; ++j) {
    double d = a(j, j);
    for (Index k = 0; k < j; ++k) d -= l(j, k) * l(j, k);
    if (!(d > 0.0)) return std::nullopt;  // also rejects NaN
    l(j, j) = std::sqrt(d);
    for (Index i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (Index k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / l(j, j);
    }
  }
  return DenseCholesky(std::move(l));
}

void DenseCholesky::solve_in_place(std::span<double> b) const {
  const Index n = l_.rows();
  RPCG_CHECK(static_cast<Index>(b.size()) == n, "solve size mismatch");
  // Forward substitution L y = b.
  for (Index i = 0; i < n; ++i) {
    double s = b[static_cast<std::size_t>(i)];
    for (Index k = 0; k < i; ++k) s -= l_(i, k) * b[static_cast<std::size_t>(k)];
    b[static_cast<std::size_t>(i)] = s / l_(i, i);
  }
  // Backward substitution Lᵀ x = y.
  for (Index i = n - 1; i >= 0; --i) {
    double s = b[static_cast<std::size_t>(i)];
    for (Index k = i + 1; k < n; ++k) s -= l_(k, i) * b[static_cast<std::size_t>(k)];
    b[static_cast<std::size_t>(i)] = s / l_(i, i);
  }
}

}  // namespace rpcg
