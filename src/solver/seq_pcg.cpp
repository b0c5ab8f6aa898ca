#include "solver/seq_pcg.hpp"

#include <cmath>
#include <vector>

#include "core/errors.hpp"
#include "util/check.hpp"

namespace rpcg {

SeqPcgResult seq_pcg_solve(const CsrMatrix& a, std::span<const double> b,
                           std::span<double> x, const SeqPcgOptions& opts,
                           const Ic0* m) {
  const Index n = a.rows();
  RPCG_CHECK(a.rows() == a.cols(), "matrix must be square");
  RPCG_CHECK(static_cast<Index>(b.size()) == n && b.size() == x.size(),
             "size mismatch");
  SeqPcgResult res;
  const auto nsz = static_cast<std::size_t>(n);
  std::vector<double> r(nsz), z(nsz), p(nsz), ap(nsz);

  a.spmv(x, ap);
  for (std::size_t i = 0; i < nsz; ++i) r[i] = b[i] - ap[i];
  if (m != nullptr) {
    m->solve(r, z);
  } else {
    z = r;
  }
  p = z;

  double rz = 0.0, rr0 = 0.0;
  for (std::size_t i = 0; i < nsz; ++i) {
    rz += r[i] * z[i];
    rr0 += r[i] * r[i];
  }
  const double rnorm0 = std::sqrt(rr0);
  if (rnorm0 == 0.0) {
    res.converged = true;
    return res;
  }

  const double spmv_flops = 2.0 * static_cast<double>(a.nnz());
  const double prec_flops = m != nullptr ? m->solve_flops() : 0.0;

  for (int j = 0; j < opts.max_iterations; ++j) {
    a.spmv(p, ap);
    double pap = 0.0;
    for (std::size_t i = 0; i < nsz; ++i) pap += p[i] * ap[i];
    if (!(pap > 0.0))
      throw DivergenceError("matrix is not positive definite along p");
    const double alpha = rz / pap;
    for (std::size_t i = 0; i < nsz; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    if (m != nullptr) {
      m->solve(r, z);
    } else {
      z = r;
    }
    double rz_new = 0.0, rr = 0.0;
    for (std::size_t i = 0; i < nsz; ++i) {
      rz_new += r[i] * z[i];
      rr += r[i] * r[i];
    }
    res.iterations = j + 1;
    res.flops += spmv_flops + prec_flops + 10.0 * static_cast<double>(n);
    res.rel_residual = std::sqrt(rr) / rnorm0;
    if (res.rel_residual <= opts.rtol) {
      res.converged = true;
      return res;
    }
    const double beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < nsz; ++i) p[i] = z[i] + beta * p[i];
  }
  return res;
}

}  // namespace rpcg
