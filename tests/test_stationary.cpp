#include "solver/stationary.hpp"

#include <gtest/gtest.h>

#include "core/backup_store.hpp"
#include "core/errors.hpp"
#include "sparse/generators.hpp"
#include "sparse/ldlt.hpp"
#include "test_util.hpp"

namespace rpcg {
namespace {

using testing::max_diff;
using testing::random_vector;

struct Problem {
  CsrMatrix a = poisson2d_5pt(16, 16);
  Partition part = Partition::block_rows(a.rows(), 8);
  DistMatrix dist = DistMatrix::distribute(a, part);
  DistVector b{part};
  std::vector<double> x_ref;

  Problem() {
    x_ref = random_vector(a.rows(), 12);
    std::vector<double> bg(static_cast<std::size_t>(a.rows()));
    a.spmv(x_ref, bg);
    b.set_global(bg);
  }
};

StationaryOptions options_for(StationaryMethod m, double omega, int phi = 0) {
  StationaryOptions o;
  o.method = m;
  o.omega = omega;
  o.rtol = 1e-8;
  o.max_iterations = 60000;
  o.phi = phi;
  return o;
}

class StationaryConvergence
    : public ::testing::TestWithParam<std::tuple<StationaryMethod, double>> {};

TEST_P(StationaryConvergence, SolvesPoisson) {
  const auto [method, omega] = GetParam();
  Problem p;
  Cluster cluster(p.part, CommParams{});
  ResilientStationary solver(cluster, p.a, p.dist, options_for(method, omega));
  DistVector x(p.part);
  const auto res = solver.solve(p.b, x, {});
  ASSERT_TRUE(res.converged) << to_string(method);
  EXPECT_LT(max_diff(x.gather_global(), p.x_ref), 1e-5) << to_string(method);
  EXPECT_GT(res.sim_time, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndOmegas, StationaryConvergence,
    ::testing::Values(std::tuple{StationaryMethod::kJacobi, 0.8},
                      std::tuple{StationaryMethod::kGaussSeidel, 1.0},
                      std::tuple{StationaryMethod::kSor, 1.5},
                      std::tuple{StationaryMethod::kSsor, 1.2}));

TEST(Stationary, SorFasterThanJacobi) {
  Problem p;
  Cluster c1(p.part, CommParams{});
  ResilientStationary jac(c1, p.a, p.dist,
                          options_for(StationaryMethod::kJacobi, 0.8));
  DistVector x1(p.part);
  const auto rj = jac.solve(p.b, x1, {});
  Cluster c2(p.part, CommParams{});
  ResilientStationary sor(c2, p.a, p.dist,
                          options_for(StationaryMethod::kSor, 1.5));
  DistVector x2(p.part);
  const auto rs = sor.solve(p.b, x2, {});
  ASSERT_TRUE(rj.converged);
  ASSERT_TRUE(rs.converged);
  EXPECT_LT(rs.iterations, rj.iterations);
}

class StationaryRecovery
    : public ::testing::TestWithParam<StationaryMethod> {};

TEST_P(StationaryRecovery, FailureRecoveryPreservesTrajectory) {
  const StationaryMethod method = GetParam();
  // Damped Jacobi (overrelaxed Jacobi diverges: rho(I - w D^-1 A) > 1 for
  // w > 1 on the Poisson operator); mild overrelaxation elsewhere.
  const double omega = method == StationaryMethod::kJacobi          ? 0.8
                       : method == StationaryMethod::kGaussSeidel   ? 1.0
                                                                    : 1.1;
  Problem p;

  // Reference trajectory.
  int ref_iters = 0;
  std::vector<double> x_ref_run;
  {
    Cluster cluster(p.part, CommParams{});
    ResilientStationary solver(cluster, p.a, p.dist,
                               options_for(method, omega, 2));
    DistVector x(p.part);
    const auto res = solver.solve(p.b, x, {});
    ASSERT_TRUE(res.converged);
    ref_iters = res.iterations;
    x_ref_run = x.gather_global();
  }
  // Two simultaneous failures mid-solve: recovery of the iterate is an
  // exact gather, so the trajectory continues bit-for-bit.
  {
    Cluster cluster(p.part, CommParams{});
    ResilientStationary solver(cluster, p.a, p.dist,
                               options_for(method, omega, 2));
    DistVector x(p.part);
    const auto res = solver.solve(
        p.b, x, FailureSchedule::contiguous(ref_iters / 2, 3, 2));
    ASSERT_TRUE(res.converged);
    EXPECT_EQ(res.recoveries.size(), 1u);
    EXPECT_EQ(res.iterations, ref_iters);           // identical trajectory
    EXPECT_EQ(x.gather_global(), x_ref_run);        // bitwise identical
    EXPECT_GT(res.sim_time_phase[static_cast<int>(Phase::kRecovery)], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, StationaryRecovery,
                         ::testing::Values(StationaryMethod::kJacobi,
                                           StationaryMethod::kGaussSeidel,
                                           StationaryMethod::kSor,
                                           StationaryMethod::kSsor));

TEST(Stationary, RedundancyOverheadChargedWhenUndisturbed) {
  Problem p;
  Cluster c1(p.part, CommParams{});
  ResilientStationary plain(c1, p.a, p.dist,
                            options_for(StationaryMethod::kSsor, 1.2, 0));
  DistVector x1(p.part);
  const auto r1 = plain.solve(p.b, x1, {});

  Cluster c2(p.part, CommParams{});
  ResilientStationary resilient(c2, p.a, p.dist,
                                options_for(StationaryMethod::kSsor, 1.2, 3));
  DistVector x2(p.part);
  const auto r2 = resilient.solve(p.b, x2, {});

  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_EQ(x1.gather_global(), x2.gather_global());
  EXPECT_GT(r2.sim_time_phase[static_cast<int>(Phase::kRedundancy)], 0.0);
  EXPECT_GT(r2.sim_time, r1.sim_time);
}

TEST(Stationary, UnrecoverableWithoutRedundancy) {
  Problem p;
  Cluster cluster(p.part, CommParams{});
  ResilientStationary solver(cluster, p.a, p.dist,
                             options_for(StationaryMethod::kJacobi, 0.8, 0));
  DistVector x(p.part);
  EXPECT_THROW((void)solver.solve(p.b, x, FailureSchedule::contiguous(2, 0, 1)),
               UnrecoverableFailure);
}

TEST(Stationary, SequentialFailures) {
  Problem p;
  Cluster cluster(p.part, CommParams{});
  ResilientStationary solver(cluster, p.a, p.dist,
                             options_for(StationaryMethod::kSor, 1.4, 1));
  DistVector x(p.part);
  FailureSchedule schedule;
  schedule.add({4, {1}, false});
  schedule.add({9, {6}, false});
  const auto res = solver.solve(p.b, x, schedule);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.recoveries.size(), 2u);
  EXPECT_LT(max_diff(x.gather_global(), p.x_ref), 1e-5);
}

TEST(Stationary, RecoveryReportsOneGatheredCopyPerLostRow) {
  // The iterate is the whole state, and the store keeps one generation of
  // it: recovery transfers exactly one copy of every lost element.
  Problem p;
  Cluster cluster(p.part, CommParams{});
  ResilientStationary solver(cluster, p.a, p.dist,
                             options_for(StationaryMethod::kJacobi, 0.8, 2));
  DistVector x(p.part);
  const auto res = solver.solve(p.b, x, FailureSchedule::contiguous(5, 2, 2));
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  const RecoveryStats& stats = res.recoveries[0].stats;
  EXPECT_EQ(stats.lost_rows, p.part.size(2) + p.part.size(3));
  EXPECT_EQ(stats.gathered_elements, stats.lost_rows);
}

TEST(Stationary, FailureDuringRecoveryCostsMoreThanOneWave) {
  const StationaryOptions opts = options_for(StationaryMethod::kSor, 1.1, 3);
  Problem p;
  // Nodes {2, 3, 4} fail as one simultaneous wave.
  double t_simultaneous = 0.0;
  std::vector<double> x_simultaneous;
  {
    Cluster cluster(p.part, CommParams{});
    ResilientStationary solver(cluster, p.a, p.dist, opts);
    DistVector x(p.part);
    const auto res =
        solver.solve(p.b, x, FailureSchedule::contiguous(5, 2, 3));
    ASSERT_TRUE(res.converged);
    t_simultaneous = res.sim_time_phase[static_cast<int>(Phase::kRecovery)];
    x_simultaneous = x.gather_global();
  }
  // Node 4 dies while {2, 3} are being recovered: the aborted gather is
  // redone for the union.
  Cluster cluster(p.part, CommParams{});
  ResilientStationary solver(cluster, p.a, p.dist, opts);
  DistVector x(p.part);
  FailureSchedule schedule;
  schedule.add({5, {2, 3}, false});
  schedule.add({5, {4}, true});
  const auto res = solver.solve(p.b, x, schedule);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_EQ(res.recoveries[0].nodes.size(), 3u);
  EXPECT_EQ(x.gather_global(), x_simultaneous);
  EXPECT_GT(res.sim_time_phase[static_cast<int>(Phase::kRecovery)],
            t_simultaneous);
}

TEST(Stationary, OptionValidation) {
  Problem p;
  Cluster cluster(p.part, CommParams{});
  StationaryOptions bad = options_for(StationaryMethod::kSor, 2.5);
  EXPECT_THROW(ResilientStationary(cluster, p.a, p.dist, bad),
               std::invalid_argument);
  StationaryOptions bad_phi = options_for(StationaryMethod::kJacobi, 1.0);
  bad_phi.phi = 8;  // == N
  EXPECT_THROW(ResilientStationary(cluster, p.a, p.dist, bad_phi),
               std::invalid_argument);
}

TEST(Stationary, MethodNames) {
  EXPECT_EQ(to_string(StationaryMethod::kJacobi), "jacobi");
  EXPECT_EQ(to_string(StationaryMethod::kGaussSeidel), "gauss-seidel");
  EXPECT_EQ(to_string(StationaryMethod::kSor), "sor");
  EXPECT_EQ(to_string(StationaryMethod::kSsor), "ssor");
}

}  // namespace
}  // namespace rpcg
