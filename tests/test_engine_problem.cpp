// The Problem bundle and its builder: explicit ownership (owned vs
// borrowed components), validation, defaults, and cluster minting.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <stdexcept>

#include "engine/registry.hpp"
#include "sparse/generators.hpp"
#include "util/maybe_owned.hpp"

namespace rpcg {
namespace {

TEST(MaybeOwned, OwnsAndBorrows) {
  const CsrMatrix m = poisson2d_5pt(4, 4);
  auto borrowed = MaybeOwned<CsrMatrix>::borrowed(m);
  EXPECT_FALSE(borrowed.owns());
  EXPECT_EQ(borrowed.get(), &m);

  auto owned = MaybeOwned<CsrMatrix>::owned(poisson2d_5pt(4, 4));
  EXPECT_TRUE(owned.owns());
  EXPECT_EQ(owned->rows(), m.rows());

  // Moves preserve the aliasing invariant.
  const CsrMatrix* before = owned.get();
  MaybeOwned<CsrMatrix> moved = std::move(owned);
  EXPECT_TRUE(moved.owns());
  EXPECT_EQ(moved.get(), before);
}

TEST(ProblemBuilder, OwnedMatrixSurvivesTheBuilder) {
  // The matrix is a temporary moved into the bundle; if the Problem kept a
  // dangling reference instead of ownership this solve would read freed
  // memory (caught under ASan).
  engine::Problem problem = engine::ProblemBuilder()
                                .matrix(poisson2d_5pt(12, 12))
                                .nodes(6)
                                .preconditioner("jacobi")
                                .build();
  DistVector x = problem.make_x();
  const auto rep =
      engine::SolverRegistry::instance().create("pcg")->solve(problem, x);
  EXPECT_TRUE(rep.converged);
}

TEST(ProblemBuilder, BorrowedMatrixIsShared) {
  const CsrMatrix a = poisson2d_5pt(12, 12);
  engine::Problem problem =
      engine::ProblemBuilder().borrow_matrix(a).nodes(6).build();
  EXPECT_EQ(&problem.matrix_global(), &a);
}

TEST(ProblemBuilder, BorrowedDistMatrixSuppliesThePartition) {
  const CsrMatrix a = poisson2d_5pt(12, 12);
  const Partition part = Partition::block_rows(a.rows(), 9);
  const DistMatrix dist = DistMatrix::distribute(a, part);
  engine::Problem problem = engine::ProblemBuilder()
                                .borrow_matrix(a)
                                .borrow_dist_matrix(dist)
                                .build();
  EXPECT_EQ(&problem.matrix(), &dist);
  EXPECT_EQ(problem.partition().num_nodes(), 9);
  DistVector x = problem.make_x();
  EXPECT_TRUE(engine::SolverRegistry::instance()
                  .create("pcg")
                  ->solve(problem, x)
                  .converged);
}

TEST(ProblemBuilder, MovedProblemSolvesAfterSourceIsDestroyed) {
  // The distributed matrix, the block-Jacobi preconditioner and the RHS all
  // point at the partition. A Problem moved out of a destroyed source must
  // still see it (a by-value partition member would leave them dangling;
  // caught under ASan) and solve exactly like one that never moved.
  const auto build = [] {
    return engine::ProblemBuilder()
        .matrix(poisson2d_5pt(12, 12))
        .nodes(6)
        .preconditioner("bjacobi")
        .build();
  };
  const auto solve = [](engine::Problem& problem) {
    engine::SolverConfig cfg;
    cfg.recovery = RecoveryMethod::kEsr;
    cfg.phi = 2;
    DistVector x = problem.make_x();
    engine::SolveReport rep =
        engine::SolverRegistry::instance()
            .create("resilient-pcg", cfg)
            ->solve(problem, x, FailureSchedule::contiguous(3, 1, 2));
    rep.wall_seconds = 0.0;
    return rep;
  };

  std::optional<engine::Problem> source(build());
  engine::Problem moved = std::move(*source);
  source.reset();
  EXPECT_EQ(moved.matrix().partition().num_nodes(), 6);
  EXPECT_EQ(&moved.matrix().partition(), &moved.partition());

  const engine::SolveReport got = solve(moved);
  EXPECT_TRUE(got.converged);
  engine::Problem reference = build();
  EXPECT_EQ(got.to_json(), solve(reference).to_json());
}

TEST(ProblemBuilder, MissingMatrixThrows) {
  EXPECT_THROW((void)engine::ProblemBuilder().nodes(4).build(),
               std::invalid_argument);
}

TEST(ProblemBuilder, MismatchedRhsThrows) {
  EXPECT_THROW((void)engine::ProblemBuilder()
                   .matrix(poisson2d_5pt(8, 8))
                   .rhs(std::vector<double>(7, 1.0))
                   .build(),
               std::invalid_argument);
  EXPECT_THROW((void)engine::ProblemBuilder()
                   .matrix(poisson2d_5pt(8, 8))
                   .rhs_from_solution(std::vector<double>(9, 1.0))
                   .build(),
               std::invalid_argument);
}

TEST(ProblemBuilder, DefaultRhsIsAtimesOnes) {
  const CsrMatrix a = poisson2d_5pt(8, 8);
  std::vector<double> expected(static_cast<std::size_t>(a.rows()));
  {
    const std::vector<double> ones(static_cast<std::size_t>(a.rows()), 1.0);
    a.spmv(ones, expected);
  }
  engine::Problem problem =
      engine::ProblemBuilder().borrow_matrix(a).nodes(4).build();
  EXPECT_EQ(problem.rhs().gather_global(), expected);
}

TEST(ProblemBuilder, RhsFromSolutionMatchesSpmv) {
  const CsrMatrix a = poisson2d_5pt(8, 8);
  std::vector<double> x_true(static_cast<std::size_t>(a.rows()));
  for (std::size_t i = 0; i < x_true.size(); ++i)
    x_true[i] = static_cast<double>(i % 5) - 2.0;
  std::vector<double> expected(x_true.size());
  a.spmv(x_true, expected);
  engine::Problem problem = engine::ProblemBuilder()
                                .borrow_matrix(a)
                                .nodes(4)
                                .rhs_from_solution(x_true)
                                .build();
  EXPECT_EQ(problem.rhs().gather_global(), expected);
}

TEST(ProblemBuilder, RhsOnesIsTheExplicitDefault) {
  const CsrMatrix a = poisson2d_5pt(8, 8);
  engine::Problem implicit =
      engine::ProblemBuilder().borrow_matrix(a).nodes(4).build();
  engine::Problem explicit_ones = engine::ProblemBuilder()
                                      .borrow_matrix(a)
                                      .nodes(4)
                                      .rhs_ones()
                                      .build();
  EXPECT_EQ(implicit.rhs().gather_global(),
            explicit_ones.rhs().gather_global());
}

TEST(ProblemBuilder, RhsRandomSmoothIsSeededAndSolvable) {
  const CsrMatrix a = poisson2d_5pt(10, 10);
  const auto build = [&](std::uint64_t seed) {
    return engine::ProblemBuilder()
        .borrow_matrix(a)
        .nodes(4)
        .rhs_random_smooth(seed)
        .build();
  };
  // Deterministic per seed, different across seeds, different from ones.
  EXPECT_EQ(build(7).rhs().gather_global(), build(7).rhs().gather_global());
  EXPECT_NE(build(7).rhs().gather_global(), build(8).rhs().gather_global());
  engine::Problem ones =
      engine::ProblemBuilder().borrow_matrix(a).nodes(4).build();
  EXPECT_NE(build(7).rhs().gather_global(), ones.rhs().gather_global());
  // The target is a consistent system: PCG must reach it.
  engine::Problem problem = build(7);
  DistVector x = problem.make_x();
  const auto rep =
      engine::SolverRegistry::instance().create("pcg")->solve(problem, x);
  EXPECT_TRUE(rep.converged);
}

TEST(ProblemBuilder, RhsFromFileReadsAndValidates) {
  const CsrMatrix a = poisson2d_5pt(4, 4);  // 16 rows
  const std::string path = ::testing::TempDir() + "rpcg_rhs_ok.txt";
  {
    std::ofstream out(path);
    out << "# comment line\n% another\n";
    for (int i = 0; i < 16; ++i) out << 0.5 * i << (i % 4 == 3 ? "\n" : " ");
  }
  engine::Problem problem = engine::ProblemBuilder()
                                .borrow_matrix(a)
                                .nodes(4)
                                .rhs_from_file(path)
                                .build();
  const auto rhs = problem.rhs().gather_global();
  ASSERT_EQ(rhs.size(), 16u);
  EXPECT_EQ(rhs[3], 1.5);

  const std::string short_path = ::testing::TempDir() + "rpcg_rhs_short.txt";
  {
    std::ofstream out(short_path);
    out << "1 2 3\n";
  }
  EXPECT_THROW((void)engine::ProblemBuilder()
                   .borrow_matrix(a)
                   .nodes(4)
                   .rhs_from_file(short_path)
                   .build(),
               std::invalid_argument);
  EXPECT_THROW((void)engine::ProblemBuilder()
                   .borrow_matrix(a)
                   .nodes(4)
                   .rhs_from_file(::testing::TempDir() + "rpcg_rhs_nope.txt")
                   .build(),
               std::invalid_argument);
}

TEST(ProblemBuilder, RhsStrategyByNameWithRegistryStyleErrors) {
  const CsrMatrix a = poisson2d_5pt(8, 8);
  engine::Problem by_name = engine::ProblemBuilder()
                                .borrow_matrix(a)
                                .nodes(4)
                                .rhs_strategy("random-smooth:7")
                                .build();
  engine::Problem by_call = engine::ProblemBuilder()
                                .borrow_matrix(a)
                                .nodes(4)
                                .rhs_random_smooth(7)
                                .build();
  EXPECT_EQ(by_name.rhs().gather_global(), by_call.rhs().gather_global());

  engine::ProblemBuilder builder;
  try {
    builder.rhs_strategy("does-not-exist");
    FAIL() << "unknown rhs strategy must throw";
  } catch (const std::invalid_argument& e) {
    // Registry-style UX: the error lists the valid strategies.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("does-not-exist"), std::string::npos);
    EXPECT_NE(msg.find("ones"), std::string::npos);
    EXPECT_NE(msg.find("random-smooth"), std::string::npos);
    EXPECT_NE(msg.find("from-file"), std::string::npos);
  }
  EXPECT_THROW(builder.rhs_strategy("from-file"), std::invalid_argument);
  EXPECT_THROW(builder.rhs_strategy("random-smooth:not-a-seed"),
               std::invalid_argument);
  EXPECT_THROW(builder.rhs_strategy("random-smooth:7abc"),
               std::invalid_argument);  // trailing garbage is not a seed
  EXPECT_THROW(builder.rhs_strategy("random-smooth:-1"),
               std::invalid_argument);  // stoull would silently wrap this
  EXPECT_THROW(builder.rhs_strategy("ones:arg"), std::invalid_argument);
}

TEST(ProblemBuilder, OwnedPreconditionerIsUsedAndNamed) {
  engine::Problem problem = engine::ProblemBuilder()
                                .matrix(poisson2d_5pt(8, 8))
                                .nodes(4)
                                .preconditioner(make_identity_preconditioner())
                                .build();
  EXPECT_EQ(problem.preconditioner_name(), "identity");
  EXPECT_EQ(problem.preconditioner().kind(), PrecondKind::kIdentity);
}

TEST(Problem, MintedClustersAreFreshAndNoisy) {
  engine::Problem problem = engine::ProblemBuilder()
                                .matrix(poisson2d_5pt(8, 8))
                                .nodes(4)
                                .build();
  Cluster c1 = problem.make_cluster();
  EXPECT_EQ(c1.alive_count(), 4);
  EXPECT_EQ(c1.clock().total(), 0.0);
  c1.fail_node(1);

  // A failed node in one cluster never leaks into the next mint.
  Cluster c2 = problem.make_cluster();
  EXPECT_EQ(c2.alive_count(), 4);

  // Noise settings change simulated timings deterministically per seed.
  problem.set_noise(0.05, 7);
  const auto solve = [&problem] {
    DistVector x = problem.make_x();
    return engine::SolverRegistry::instance()
        .create("pcg")
        ->solve(problem, x)
        .sim_time;
  };
  const double t_seed7 = solve();
  problem.set_noise(0.05, 8);
  const double t_seed8 = solve();
  problem.set_noise(0.05, 7);
  const double t_seed7_again = solve();
  EXPECT_NE(t_seed7, t_seed8);
  EXPECT_EQ(t_seed7, t_seed7_again);
}

}  // namespace
}  // namespace rpcg
