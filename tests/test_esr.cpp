// Integration tests of the exact state reconstruction: the resilient solver
// hit by failures must behave like the failure-free solver — same iteration
// trajectory (up to round-off of the local reconstruction solve) and the
// same solution.
#include "core/esr.hpp"

#include <gtest/gtest.h>

#include "core/resilient_pcg.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"

namespace rpcg {
namespace {

using testing::max_diff;
using testing::random_vector;

struct Problem {
  CsrMatrix a;
  Partition part;
  DistVector b;
  std::vector<double> x_ref;

  Problem(CsrMatrix matrix, int nodes)
      : a(std::move(matrix)),
        part(Partition::block_rows(a.rows(), nodes)),
        b(part),
        x_ref(random_vector(a.rows(), 99)) {
    std::vector<double> bg(static_cast<std::size_t>(a.rows()));
    a.spmv(x_ref, bg);
    b.set_global(bg);
  }
};

ResilientPcgOptions esr_options(int phi, bool exact_local = true) {
  ResilientPcgOptions o;
  o.pcg.rtol = 1e-10;
  o.method = RecoveryMethod::kEsr;
  o.phi = phi;
  o.esr.exact_local_solve = exact_local;
  return o;
}

// Failure at various iterations and node sets: the solver must converge to
// the same solution in (nearly) the same number of iterations.
class EsrRecovery
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(EsrRecovery, ExactReconstructionPreservesTrajectory) {
  const auto [psi, first_rank, iteration] = GetParam();
  Problem p(poisson2d_5pt(12, 12), 8);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);

  // Failure-free reference.
  std::vector<double> x_ref_run;
  int ref_iters = 0;
  {
    Cluster cluster(p.part, CommParams{});
    ResilientPcg solver(cluster, p.a, *m, esr_options(psi));
    DistVector x(p.part);
    const auto res = solver.solve(p.b, x, {});
    ASSERT_TRUE(res.converged);
    ref_iters = res.iterations;
    x_ref_run = x.gather_global();
  }

  // Same solve with psi simultaneous failures.
  {
    Cluster cluster(p.part, CommParams{});
    ResilientPcg solver(cluster, p.a, *m, esr_options(psi));
    DistVector x(p.part);
    const auto schedule =
        FailureSchedule::contiguous(iteration, first_rank, psi);
    const auto res = solver.solve(p.b, x, schedule);
    ASSERT_TRUE(res.converged);
    ASSERT_EQ(res.recoveries.size(), 1u);
    EXPECT_EQ(res.recoveries[0].stats.psi, psi);
    // Exact reconstruction: iteration count within round-off wiggle.
    EXPECT_NEAR(res.iterations, ref_iters, 2);
    // Identical solution.
    EXPECT_LT(max_diff(x.gather_global(), x_ref_run), 1e-8);
    // Recovery time was charged.
    EXPECT_GT(res.sim_time_phase[static_cast<int>(Phase::kRecovery)], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PsiRankIteration, EsrRecovery,
    ::testing::Values(std::tuple{1, 0, 1}, std::tuple{1, 3, 5},
                      std::tuple{2, 0, 5}, std::tuple{2, 4, 10},
                      std::tuple{3, 0, 0},   // failure at the very first SpMV
                      std::tuple{3, 5, 15},  // includes the last rank
                      std::tuple{4, 2, 7}));

TEST(Esr, IterativeLocalSolveMatchesPaperSetting) {
  // IC(0)-PCG local solve at rtol 1e-14 (the paper's configuration) is as
  // good as the exact solve for the final result.
  Problem p(circuit_like(10, 10, 0.05, 8), 8);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);

  std::vector<double> x_exact, x_iter;
  int it_exact = 0, it_iter = 0;
  for (const bool exact : {true, false}) {
    Cluster cluster(p.part, CommParams{});
    ResilientPcg solver(cluster, p.a, *m, esr_options(3, exact));
    DistVector x(p.part);
    const auto res =
        solver.solve(p.b, x, FailureSchedule::contiguous(4, 1, 3));
    ASSERT_TRUE(res.converged);
    ASSERT_EQ(res.recoveries.size(), 1u);
    if (exact) {
      x_exact = x.gather_global();
      it_exact = res.iterations;
    } else {
      x_iter = x.gather_global();
      it_iter = res.iterations;
      EXPECT_GT(res.recoveries[0].stats.local_solve_iterations, 1);
      EXPECT_LE(res.recoveries[0].stats.local_solve_rel_residual, 1e-14);
    }
  }
  EXPECT_NEAR(it_iter, it_exact, 2);
  EXPECT_LT(max_diff(x_exact, x_iter), 1e-7);
}

TEST(Esr, SequentialFailuresAtDifferentIterations) {
  Problem p(poisson2d_5pt(12, 12), 8);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  Cluster cluster(p.part, CommParams{});
  ResilientPcg solver(cluster, p.a, *m, esr_options(2));
  DistVector x(p.part);
  FailureSchedule schedule;
  schedule.add({3, {1, 2}, false});
  schedule.add({9, {5}, false});
  schedule.add({15, {1}, false});  // the replacement of node 1 fails again
  const auto res = solver.solve(p.b, x, schedule);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 3u);
  EXPECT_LT(max_diff(x.gather_global(), p.x_ref), 1e-6);
}

TEST(Esr, OverlappingFailuresMergeAndRestartReconstruction) {
  Problem p(poisson2d_5pt(12, 12), 8);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);

  // Reference: simultaneous failure of the same three nodes.
  double t_simultaneous = 0.0;
  {
    Cluster cluster(p.part, CommParams{});
    ResilientPcg solver(cluster, p.a, *m, esr_options(3));
    DistVector x(p.part);
    const auto res = solver.solve(p.b, x, FailureSchedule::contiguous(5, 2, 3));
    ASSERT_TRUE(res.converged);
    t_simultaneous = res.sim_time_phase[static_cast<int>(Phase::kRecovery)];
  }

  // Overlapping: node 4 dies while {2,3} are being reconstructed.
  {
    Cluster cluster(p.part, CommParams{});
    ResilientPcg solver(cluster, p.a, *m, esr_options(3));
    DistVector x(p.part);
    FailureSchedule schedule;
    schedule.add({5, {2, 3}, false});
    schedule.add({5, {4}, true});  // during_recovery
    const auto res = solver.solve(p.b, x, schedule);
    ASSERT_TRUE(res.converged);
    ASSERT_EQ(res.recoveries.size(), 1u);  // merged into one recovery
    EXPECT_EQ(res.recoveries[0].nodes.size(), 3u);
    EXPECT_LT(max_diff(x.gather_global(), p.x_ref), 1e-6);
    // The aborted first attempt costs extra: overlapping recovery is more
    // expensive than the simultaneous one.
    EXPECT_GT(res.sim_time_phase[static_cast<int>(Phase::kRecovery)],
              t_simultaneous);
  }
}

TEST(Esr, MoreFailuresThanPhiAreUnrecoverableOnDiagonalMatrix) {
  // Diagonal matrix: no SpMV traffic, so survival depends solely on the phi
  // designated copies. psi = phi + 1 adjacent failures wipe an element.
  Problem p(CsrMatrix::identity(32), 8);
  const auto m = make_identity_preconditioner();
  Cluster cluster(p.part, CommParams{});
  ResilientPcg solver(cluster, p.a, *m, esr_options(1));
  DistVector x(p.part);
  // CG on the identity converges after one iteration, so the failure must
  // strike at iteration 0 (right after the first SpMV).
  const auto schedule = FailureSchedule::contiguous(0, 2, 2);  // nodes 2,3
  EXPECT_THROW((void)solver.solve(p.b, x, schedule), UnrecoverableFailure);
}

TEST(Esr, RecoveryStatsArepopulated) {
  Problem p(poisson2d_5pt(10, 10), 5);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  Cluster cluster(p.part, CommParams{});
  ResilientPcg solver(cluster, p.a, *m, esr_options(2, /*exact_local=*/false));
  DistVector x(p.part);
  const auto res = solver.solve(p.b, x, FailureSchedule::contiguous(3, 1, 2));
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  const RecoveryStats& s = res.recoveries[0].stats;
  EXPECT_EQ(s.psi, 2);
  EXPECT_EQ(s.lost_rows, p.part.size(1) + p.part.size(2));
  EXPECT_GT(s.gathered_elements, 0);
  EXPECT_GT(s.local_solve_iterations, 0);
  EXPECT_GT(s.sim_seconds, 0.0);
}


TEST(Esr, InstallLostRowsSortsTheWaveAndFillsEachVector) {
  // Rows arrive laid out as rows_of_set returns them (nodes ascending), even
  // when the wave lists its nodes out of order.
  const Partition part = Partition::block_rows(12, 4);
  DistVector u(part), v(part);
  const std::vector<NodeId> failed{3, 1};
  for (const NodeId f : failed) {
    u.invalidate(f);
    v.invalidate(f);
  }
  const std::vector<Index> rows = part.rows_of_set(failed);
  std::vector<double> u_f(rows.size()), v_f(rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    u_f[k] = static_cast<double>(rows[k]);
    v_f[k] = -static_cast<double>(rows[k]);
  }
  const LostRows installs[] = {{&u, u_f}, {&v, v_f}};
  const std::vector<NodeId> sorted = esr_install_lost_rows(part, failed, installs);
  EXPECT_EQ(sorted, (std::vector<NodeId>{1, 3}));
  for (const NodeId f : sorted) {
    ASSERT_TRUE(u.is_valid(f));
    ASSERT_TRUE(v.is_valid(f));
    for (Index r = part.begin(f); r < part.end(f); ++r) {
      const auto k = static_cast<std::size_t>(r - part.begin(f));
      EXPECT_EQ(u.block(f)[k], static_cast<double>(r));
      EXPECT_EQ(v.block(f)[k], -static_cast<double>(r));
    }
  }
}

}  // namespace
}  // namespace rpcg
