#include "probes.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/backup_store.hpp"
#include "core/redundancy.hpp"
#include "sim/collectives.hpp"
#include "sparse/ldlt.hpp"

namespace perfbench {

using rpcg::DistVector;
using rpcg::Index;
using rpcg::NodeId;
using rpcg::Phase;

namespace {

/// Median seconds per call of `fn` (see probes.hpp).
template <class Fn>
double seconds_per_call(Fn&& fn, int batches = 15, double batch_s = 0.02) {
  const double t0 = now_s();
  fn();
  const double once = std::max(now_s() - t0, 1e-7);
  const int calls = std::max(1, static_cast<int>(batch_s / once));
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const double start = now_s();
    for (int c = 0; c < calls; ++c) fn();
    per_call.push_back((now_s() - start) / calls);
  }
  return median(std::move(per_call));
}

/// Times `fn` inside a span named `name` and returns seconds per call.
template <class Fn>
double probe(Tracer& tracer, const char* name, const char* layer, Fn&& fn) {
  const Tracer::Scope scope(tracer, name, layer);
  return seconds_per_call(fn);
}

}  // namespace

void probe_iteration_kernels(const rpcg::engine::Problem& problem, int phi,
                             std::span<const NodeId> failed, Tracer& tracer,
                             Metrics& out) {
  rpcg::Cluster cluster = problem.make_cluster();
  const rpcg::DistMatrix& a = problem.matrix();
  const rpcg::Preconditioner& m = problem.preconditioner();
  DistVector x = problem.rhs();
  DistVector r = problem.rhs();
  DistVector z = problem.make_x();
  DistVector p = problem.rhs();
  DistVector q = problem.make_x();
  std::vector<std::vector<double>> halos;

  const double spmv_s = probe(tracer, "sim.spmv", "sim", [&] {
    a.spmv(cluster, x, q, halos, Phase::kIteration);
  });
  const double apply_s = probe(tracer, "precond.apply", "precond", [&] {
    m.apply(cluster, r, z, Phase::kIteration);
  });
  // One iteration's updates: x += alpha p, r -= alpha q, p = z + beta p.
  // The tiny alpha and beta < 1 keep repeated calls bounded.
  const double blas1_s = probe(tracer, "sim.blas1", "sim", [&] {
    rpcg::axpy(cluster, 1e-9, p, x, Phase::kIteration);
    rpcg::axpy(cluster, -1e-9, q, r, Phase::kIteration);
    rpcg::xpby(cluster, z, 0.5, p, Phase::kIteration);
  });
  // One iteration's reductions: p'q for alpha, then r'z and r'r.
  double sink = 0.0;
  const double reduction_s = probe(tracer, "sim.reduction", "sim", [&] {
    sink += rpcg::dot(cluster, p, q, Phase::kIteration);
    const rpcg::DotPair d = rpcg::dot_pair(cluster, r, z, Phase::kIteration);
    sink += d.rz + d.rr;
  });
  if (sink != sink) throw std::runtime_error("reduction probe produced NaN");

  const rpcg::Partition& part = problem.partition();
  const rpcg::RedundancyScheme scheme = rpcg::RedundancyScheme::build(
      a.scatter_plan(), part, phi, rpcg::BackupStrategy::kPaperAlternating, 0);
  rpcg::BackupStore store;
  store.configure(a.scatter_plan(), scheme, part);
  const double record_s = probe(tracer, "core.backup_record", "core",
                                [&] { store.record(p); });
  store.record(p);  // both generations hold p before the gather
  for (const NodeId f : failed) {
    cluster.fail_node(f);
    store.invalidate_node(f);
  }
  const std::vector<Index> rows = part.rows_of_set(failed);
  Index gathered = 0;
  const double gather_s = probe(tracer, "core.backup_gather", "core", [&] {
    gathered = store.gather_lost(cluster, rows).elements_transferred;
  });
  if (gathered <= 0) throw std::runtime_error("gather probe moved nothing");

  const double nnz = static_cast<double>(problem.matrix_global().nnz());
  out.set("sim.spmv_ms", spmv_s * 1e3, "ms");
  out.set("sim.spmv_gflops_computed", 2.0 * nnz / spmv_s * 1e-9, "GFLOP/s");
  out.set("precond.apply_ms", apply_s * 1e3, "ms");
  out.set("sim.blas1_ms", blas1_s * 1e3, "ms");
  out.set("sim.reduction_ms", reduction_s * 1e3, "ms");
  out.set("core.backup_record_ms", record_s * 1e3, "ms");
  out.set("core.backup_gather_ms", gather_s * 1e3, "ms");
}

void probe_local_factorization(
    const rpcg::engine::Problem& problem,
    const std::vector<std::vector<NodeId>>& failed_sets, int factor_reps,
    Tracer& tracer, Metrics& out) {
  std::vector<rpcg::CsrMatrix> blocks;
  for (const auto& failed : failed_sets) {
    const std::vector<Index> rows = problem.partition().rows_of_set(failed);
    const Tracer::Scope scope(tracer, "sparse.submatrix", "sparse");
    blocks.push_back(problem.matrix_global().submatrix(rows, rows));
  }
  const double sets = static_cast<double>(blocks.size());
  std::vector<double> factor_s;
  std::vector<double> gflops;
  std::vector<rpcg::ReorderedLdlt> factors;
  for (int rep = 0; rep < factor_reps; ++rep) {
    factors.clear();
    double seconds = 0.0;
    double flops = 0.0;
    for (const rpcg::CsrMatrix& block : blocks) {
      const Tracer::Scope scope(tracer, "sparse.ldlt_factor", "sparse");
      const double t0 = now_s();
      std::optional<rpcg::ReorderedLdlt> ldlt = rpcg::ReorderedLdlt::factor(block);
      seconds += now_s() - t0;
      if (!ldlt) throw std::runtime_error("lost block is not positive definite");
      flops += ldlt->factor_flops();
      factors.push_back(std::move(*ldlt));
    }
    factor_s.push_back(seconds / sets);
    gflops.push_back(flops / seconds * 1e-9);
  }
  double solve_s = 0.0;
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    const std::vector<double> rhs(static_cast<std::size_t>(blocks[k].rows()),
                                  1.0);
    std::vector<double> sol(rhs.size());
    solve_s += probe(tracer, "sparse.ldlt_solve", "sparse",
                     [&] { factors[k].solve(rhs, sol); });
  }
  out.set("sparse.ldlt_factor_s", median(factor_s), "s");
  out.set("sparse.ldlt_factor_gflops", median(gflops), "GFLOP/s");
  out.set("sparse.ldlt_solve_ms", solve_s / sets * 1e3, "ms");
}

}  // namespace perfbench
