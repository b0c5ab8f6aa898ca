#include "sparse/ic0.hpp"

#include <cmath>

#include "util/check.hpp"

namespace rpcg {

namespace {

// One factorization attempt on the lower pattern of (A + shift*diag(A)).
// Returns the strictly-validated factor or nullopt on pivot breakdown.
std::optional<CsrMatrix> try_factor(const CsrMatrix& a, double shift) {
  const Index n = a.rows();
  std::vector<Index> rp;
  rp.reserve(static_cast<std::size_t>(n) + 1);
  rp.push_back(0);
  std::vector<Index> ci;
  std::vector<double> v;

  // Row-based IC(0):
  //   L(k,j) = (A(k,j) - sum_t L(k,t) L(j,t)) / L(j,j)   for j < k in pattern
  //   L(k,k) = sqrt(A(k,k) - sum_t L(k,t)^2)
  // The row-row dot products run over the already-built sorted rows of L.
  for (Index k = 0; k < n; ++k) {
    const auto cols = a.row_cols(k);
    const auto vals = a.row_vals(k);
    const Index row_start = rp.back();
    double diag = 0.0;
    bool has_diag = false;
    for (std::size_t p = 0; p < cols.size(); ++p) {
      const Index j = cols[p];
      if (j > k) continue;
      if (j == k) {
        diag = vals[p] * (1.0 + shift);
        has_diag = true;
        continue;
      }
      // dot of L row k (built so far) with L row j, over t < j.
      double s = vals[p];
      Index pk = row_start;
      Index pj = rp[static_cast<std::size_t>(j)];
      const Index pk_end = static_cast<Index>(ci.size());
      const Index pj_end = rp[static_cast<std::size_t>(j) + 1] - 1;  // skip L(j,j)
      while (pk < pk_end && pj < pj_end) {
        if (ci[static_cast<std::size_t>(pk)] < ci[static_cast<std::size_t>(pj)]) {
          ++pk;
        } else if (ci[static_cast<std::size_t>(pk)] > ci[static_cast<std::size_t>(pj)]) {
          ++pj;
        } else {
          s -= v[static_cast<std::size_t>(pk)] * v[static_cast<std::size_t>(pj)];
          ++pk;
          ++pj;
        }
      }
      const double ljj = v[static_cast<std::size_t>(rp[static_cast<std::size_t>(j) + 1]) - 1];
      ci.push_back(j);
      v.push_back(s / ljj);
    }
    RPCG_CHECK(has_diag, "IC(0) requires a stored diagonal in every row");
    double s = diag;
    for (Index p = row_start; p < static_cast<Index>(ci.size()); ++p)
      s -= v[static_cast<std::size_t>(p)] * v[static_cast<std::size_t>(p)];
    if (!(s > 0.0)) return std::nullopt;  // also rejects NaN
    ci.push_back(k);
    v.push_back(std::sqrt(s));
    rp.push_back(static_cast<Index>(ci.size()));
  }
  return CsrMatrix(n, n, std::move(rp), std::move(ci), std::move(v));
}

}  // namespace

std::optional<Ic0> Ic0::factor(const CsrMatrix& a, int max_shift_retries) {
  RPCG_CHECK(a.rows() == a.cols(), "IC(0) needs a square matrix");
  double shift = 0.0;
  for (int attempt = 0; attempt <= max_shift_retries; ++attempt) {
    if (auto l = try_factor(a, shift)) {
      CsrMatrix upper = l->transpose();
      return Ic0(std::move(*l), std::move(upper), shift);
    }
    shift = (shift == 0.0) ? 1e-3 : shift * 10.0;
  }
  return std::nullopt;
}

void Ic0::solve(std::span<const double> b, std::span<double> x) const {
  const Index n = lower_.rows();
  RPCG_CHECK(static_cast<Index>(b.size()) == n && b.size() == x.size(),
             "solve size mismatch");
  std::copy(b.begin(), b.end(), x.begin());
  // Forward: L y = b. Row layout of L has the diagonal last in each row.
  for (Index i = 0; i < n; ++i) {
    const auto cols = lower_.row_cols(i);
    const auto vals = lower_.row_vals(i);
    double s = x[static_cast<std::size_t>(i)];
    for (std::size_t p = 0; p + 1 < cols.size(); ++p)
      s -= vals[p] * x[static_cast<std::size_t>(cols[p])];
    x[static_cast<std::size_t>(i)] = s / vals[cols.size() - 1];
  }
  // Backward: Lᵀ x = y. upper_ rows have the diagonal first.
  for (Index i = n - 1; i >= 0; --i) {
    const auto cols = upper_.row_cols(i);
    const auto vals = upper_.row_vals(i);
    double s = x[static_cast<std::size_t>(i)];
    for (std::size_t p = 1; p < cols.size(); ++p)
      s -= vals[p] * x[static_cast<std::size_t>(cols[p])];
    x[static_cast<std::size_t>(i)] = s / vals[0];
  }
}

void Ic0::multiply(std::span<const double> x, std::span<double> y) const {
  const Index n = lower_.rows();
  RPCG_CHECK(static_cast<Index>(x.size()) == n && x.size() == y.size(),
             "multiply size mismatch");
  // y = L (Lᵀ x): upper_ is Lᵀ by rows, lower_ is L by rows.
  std::vector<double> t(static_cast<std::size_t>(n));
  upper_.spmv(x, t);
  lower_.spmv(t, y);
}

}  // namespace rpcg
