// Resilient preconditioned BiCGSTAB (the paper's named Krylov extension):
// convergence, exactness of recovery, multi-failure tolerance.
#include "core/resilient_bicgstab.hpp"

#include <gtest/gtest.h>

#include "core/errors.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"

namespace rpcg {
namespace {

using testing::max_diff;
using testing::random_vector;

struct Problem {
  CsrMatrix a;
  Partition part;
  DistMatrix dist;
  DistVector b;
  std::vector<double> x_ref;

  Problem(CsrMatrix matrix, int nodes)
      : a(std::move(matrix)),
        part(Partition::block_rows(a.rows(), nodes)),
        dist(DistMatrix::distribute(a, part)),
        b(part),
        x_ref(random_vector(a.rows(), 23)) {
    std::vector<double> bg(static_cast<std::size_t>(a.rows()));
    a.spmv(x_ref, bg);
    b.set_global(bg);
  }
};

BicgstabOptions options_with(int phi) {
  BicgstabOptions o;
  o.rtol = 1e-9;
  o.phi = phi;
  o.esr.exact_local_solve = true;
  return o;
}

class BicgstabConvergence : public ::testing::TestWithParam<const char*> {};

TEST_P(BicgstabConvergence, SolvesWithEveryPreconditioner) {
  Problem p(circuit_like(10, 10, 0.05, 9), 8);
  const auto m = make_preconditioner(GetParam(), p.a, p.part);
  Cluster cluster(p.part, CommParams{});
  ResilientBicgstab solver(cluster, p.a, p.dist, *m, options_with(0));
  DistVector x(p.part);
  const auto res = solver.solve(p.b, x, {});
  ASSERT_TRUE(res.converged) << GetParam();
  EXPECT_LT(max_diff(x.gather_global(), p.x_ref), 1e-6) << GetParam();
  EXPECT_LT(res.true_residual_norm, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Preconds, BicgstabConvergence,
                         ::testing::Values("identity", "jacobi", "bjacobi",
                                           "ic0", "ssor"));

TEST(Bicgstab, FewerIterationsThanUnpreconditioned) {
  Problem p(poisson2d_5pt(16, 16), 8);
  Cluster c1(p.part, CommParams{});
  const auto id = make_identity_preconditioner();
  ResilientBicgstab plain(c1, p.a, p.dist, *id, options_with(0));
  DistVector x1(p.part);
  const auto r1 = plain.solve(p.b, x1, {});

  Cluster c2(p.part, CommParams{});
  const auto bj = make_preconditioner("bjacobi", p.a, p.part);
  ResilientBicgstab prec(c2, p.a, p.dist, *bj, options_with(0));
  DistVector x2(p.part);
  const auto r2 = prec.solve(p.b, x2, {});

  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_LT(r2.iterations, r1.iterations);
}

class BicgstabRecovery
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BicgstabRecovery, RecoveryPreservesTrajectory) {
  const auto [psi, iteration] = GetParam();
  Problem p(poisson2d_5pt(12, 12), 8);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);

  int ref_iters = 0;
  std::vector<double> x_ref_run;
  {
    Cluster cluster(p.part, CommParams{});
    ResilientBicgstab solver(cluster, p.a, p.dist, *m, options_with(psi));
    DistVector x(p.part);
    const auto res = solver.solve(p.b, x, {});
    ASSERT_TRUE(res.converged);
    ref_iters = res.iterations;
    x_ref_run = x.gather_global();
  }
  {
    Cluster cluster(p.part, CommParams{});
    ResilientBicgstab solver(cluster, p.a, p.dist, *m, options_with(psi));
    DistVector x(p.part);
    const auto res =
        solver.solve(p.b, x, FailureSchedule::contiguous(iteration, 2, psi));
    ASSERT_TRUE(res.converged);
    ASSERT_EQ(res.recoveries.size(), 1u);
    EXPECT_EQ(res.recoveries[0].stats.psi, psi);
    EXPECT_NEAR(res.iterations, ref_iters, 3);
    EXPECT_LT(max_diff(x.gather_global(), x_ref_run), 1e-6);
    EXPECT_GT(res.sim_time_phase[static_cast<int>(Phase::kRecovery)], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(PsiIteration, BicgstabRecovery,
                         ::testing::Values(std::tuple{1, 3}, std::tuple{2, 0},
                                           std::tuple{2, 7}, std::tuple{3, 5}));

TEST(Bicgstab, UndisturbedRedundancyKeepsNumerics) {
  Problem p(poisson2d_5pt(12, 12), 8);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);

  Cluster c1(p.part, CommParams{});
  ResilientBicgstab plain(c1, p.a, p.dist, *m, options_with(0));
  DistVector x1(p.part);
  const auto r1 = plain.solve(p.b, x1, {});

  Cluster c2(p.part, CommParams{});
  ResilientBicgstab resilient(c2, p.a, p.dist, *m, options_with(3));
  DistVector x2(p.part);
  const auto r2 = resilient.solve(p.b, x2, {});

  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_EQ(x1.gather_global(), x2.gather_global());  // bitwise
  EXPECT_GT(r2.sim_time_phase[static_cast<int>(Phase::kRedundancy)], 0.0);
  EXPECT_GT(r2.sim_time, r1.sim_time);
}

TEST(Bicgstab, SequentialFailures) {
  Problem p(poisson2d_5pt(12, 12), 8);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  Cluster cluster(p.part, CommParams{});
  ResilientBicgstab solver(cluster, p.a, p.dist, *m, options_with(2));
  DistVector x(p.part);
  FailureSchedule schedule;
  schedule.add({2, {0, 1}, false});
  schedule.add({6, {5}, false});
  const auto res = solver.solve(p.b, x, schedule);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.recoveries.size(), 2u);
  EXPECT_LT(max_diff(x.gather_global(), p.x_ref), 1e-6);
}

TEST(Bicgstab, FailureDuringRecoveryCostsMoreThanOneWave) {
  Problem p(poisson2d_5pt(12, 12), 8);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  // Nodes {2, 3, 4} fail as one simultaneous wave.
  double t_simultaneous = 0.0;
  std::vector<double> x_simultaneous;
  {
    Cluster cluster(p.part, CommParams{});
    ResilientBicgstab solver(cluster, p.a, p.dist, *m, options_with(3));
    DistVector x(p.part);
    const auto res =
        solver.solve(p.b, x, FailureSchedule::contiguous(4, 2, 3));
    ASSERT_TRUE(res.converged);
    t_simultaneous = res.sim_time_phase[static_cast<int>(Phase::kRecovery)];
    x_simultaneous = x.gather_global();
  }
  // Node 4 dies while {2, 3} are being recovered: the aborted gathers of p̂
  // and ŝ are redone for the union.
  Cluster cluster(p.part, CommParams{});
  ResilientBicgstab solver(cluster, p.a, p.dist, *m, options_with(3));
  DistVector x(p.part);
  FailureSchedule schedule;
  schedule.add({4, {2, 3}, false});
  schedule.add({4, {4}, true});
  const auto res = solver.solve(p.b, x, schedule);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_EQ(res.recoveries[0].nodes.size(), 3u);
  EXPECT_EQ(x.gather_global(), x_simultaneous);
  EXPECT_GT(res.sim_time_phase[static_cast<int>(Phase::kRecovery)],
            t_simultaneous);
}

TEST(Bicgstab, FailuresWithoutRedundancyThrow) {
  Problem p(poisson2d_5pt(10, 10), 4);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  Cluster cluster(p.part, CommParams{});
  ResilientBicgstab solver(cluster, p.a, p.dist, *m, options_with(0));
  DistVector x(p.part);
  EXPECT_THROW((void)solver.solve(p.b, x, FailureSchedule::contiguous(1, 0, 1)),
               UnrecoverableFailure);
}

TEST(Bicgstab, IterativeLocalSolveAlsoWorks) {
  Problem p(circuit_like(10, 10, 0.04, 4), 8);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  BicgstabOptions o = options_with(2);
  o.esr.exact_local_solve = false;  // the paper's IC(0)-PCG at 1e-14
  Cluster cluster(p.part, CommParams{});
  ResilientBicgstab solver(cluster, p.a, p.dist, *m, o);
  DistVector x(p.part);
  const auto res = solver.solve(p.b, x, FailureSchedule::contiguous(4, 3, 2));
  ASSERT_TRUE(res.converged);
  EXPECT_GT(res.recoveries[0].stats.local_solve_iterations, 1);
  EXPECT_LT(max_diff(x.gather_global(), p.x_ref), 1e-6);
}

}  // namespace
}  // namespace rpcg
