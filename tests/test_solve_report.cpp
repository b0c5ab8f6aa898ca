// SolveReport and SolveAccounting: the deterministic JSON serialization
// (golden test), the block-presence rules of rpcg-solve-report/v2, and the
// one end-of-solve epilogue every registered solver runs through.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/solve_report.hpp"
#include "engine/registry.hpp"
#include "sim/collectives.hpp"
#include "sparse/generators.hpp"

namespace rpcg {
namespace {

SolveReport sample_report() {
  SolveReport rep;
  rep.solver = "resilient-pcg";
  rep.preconditioner = "bjacobi";
  rep.converged = true;
  rep.iterations = 42;
  rep.rel_residual = 5e-9;
  rep.solver_residual_norm = 1.25e-6;
  rep.true_residual_norm = 1.5e-6;
  rep.delta_metric = -0.03125;
  rep.sim_time = 1.5;
  rep.sim_time_phase = {1.0, 0.25, 0.0, 0.25};
  rep.wall_seconds = 0.125;
  rep.redundancy_overhead_per_iteration = 0.0078125;
  rep.reductions = {0.5, 0.25, 0.25, 84, 1};
  rep.checkpoints_written = 2;
  rep.rolled_back_iterations = 7;
  RecoveryRecord rec;
  rec.iteration = 21;
  rec.nodes = {3, 4};
  rec.stats.psi = 2;
  rec.stats.lost_rows = 36;
  rec.stats.gathered_elements = 144;
  rec.stats.local_solve_iterations = 17;
  rec.stats.local_solve_rel_residual = 9.5e-15;
  rec.stats.sim_seconds = 0.25;
  rep.recoveries.push_back(rec);
  return rep;
}

// Exact golden string: key order, indentation, and double formatting
// (shortest round-trip) are part of the rpcg-solve-report/v2 contract.
TEST(SolveReport, GoldenJson) {
  const char* expected = R"({
  "schema": "rpcg-solve-report/v2",
  "solver": "resilient-pcg",
  "preconditioner": "bjacobi",
  "converged": true,
  "iterations": 42,
  "rel_residual": 5e-09,
  "solver_residual_norm": 1.25e-06,
  "true_residual_norm": 1.5e-06,
  "delta_metric": -0.03125,
  "sim_time": 1.5,
  "sim_time_phase": {
    "iteration": 1,
    "redundancy": 0.25,
    "checkpoint": 0,
    "recovery": 0.25
  },
  "wall_seconds": 0.125,
  "redundancy_overhead_per_iteration": 0.0078125,
  "reduction_time": {
    "posted": 0.5,
    "hidden": 0.25,
    "exposed": 0.25,
    "count": 84,
    "depth": 1,
    "max_in_flight": 1
  },
  "checkpoints_written": 2,
  "rolled_back_iterations": 7,
  "recoveries": [
    {"iteration": 21, "nodes": [3, 4], "psi": 2, "lost_rows": 36, "gathered_elements": 144, "local_solve_iterations": 17, "local_solve_rel_residual": 9.5e-15, "sim_seconds": 0.25}
  ]
})";
  EXPECT_EQ(sample_report().to_json(), expected);
}

TEST(SolveReport, OptionalBlocksSerializeExactlyWhenSet) {
  SolveReport rep = sample_report();
  rep.cache_stats = FactorizationCache::Stats{5, 2, 1, 3};
  const char* cache_block = R"(  "factorization_cache": {
    "hits": 5,
    "misses": 2,
    "invalidated": 1,
    "entries": 3
  },
  "checkpoints_written": 2,)";
  EXPECT_NE(rep.to_json().find(cache_block), std::string::npos)
      << rep.to_json();

  rep.cache_stats.reset();
  CheckpointCostModel costs;
  costs.medium = CheckpointMedium::kDisk;
  costs.write_per_element_s = 1e-9;
  costs.read_per_element_s = 2e-9;
  costs.access_latency_s = 0.001;
  rep.checkpoint = SolveReport::Checkpointing{costs, 10};
  rep.scenario = SolveReport::Scenario{ScenarioKind::kDuringRecovery, 42, 3};
  const char* both_blocks = R"(  "checkpoint": {
    "medium": "disk",
    "interval": 10,
    "write_per_element": 1e-09,
    "read_per_element": 2e-09,
    "access_latency": 0.001
  },
  "scenario": {
    "kind": "during-recovery",
    "seed": 42,
    "events": 3
  },
  "checkpoints_written": 2,)";
  EXPECT_NE(rep.to_json().find(both_blocks), std::string::npos)
      << rep.to_json();
  EXPECT_EQ(rep.to_json().find("factorization_cache"), std::string::npos);

  // Unset again, the document is the golden one: no empty placeholders.
  rep.checkpoint.reset();
  rep.scenario.reset();
  EXPECT_EQ(rep.to_json(), sample_report().to_json());
}

TEST(SolveReport, IndentShiftsEveryLine) {
  const std::string json = sample_report().to_json(4);
  EXPECT_EQ(json.substr(0, 5), "    {");
  EXPECT_NE(json.find("\n      \"schema\""), std::string::npos);
}

TEST(SolveReport, EmptyReportSerializesWithEmptyRecoveries) {
  const std::string json = SolveReport{}.to_json();
  EXPECT_NE(json.find("\"recoveries\": [\n  ]"), std::string::npos);
  EXPECT_NE(json.find("\"converged\": false"), std::string::npos);
  EXPECT_NE(json.find("\"reduction_time\": {"), std::string::npos);
}

TEST(SolveReport, JsonEscapesSolverNames) {
  SolveReport rep;
  rep.solver = "weird\"name\\x";
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"solver\": \"weird\\\"name\\\\x\""), std::string::npos);
}

// ---- SolveAccounting -----------------------------------------------------

TEST(SolveAccounting, ReportsOnlyTheTimeSpentSinceOpen) {
  const CsrMatrix a = poisson2d_5pt(8, 8);
  const Partition part = Partition::block_rows(a.rows(), 4);
  Cluster cluster(part, CommParams{});
  const DistMatrix dist = DistMatrix::distribute(a, part);
  cluster.charge(Phase::kIteration, 2.0);  // an earlier solve's time

  const SolveAccounting accounting(cluster);
  cluster.charge(Phase::kIteration, 0.5);
  cluster.charge(Phase::kRecovery, 0.25);
  DistVector b(part);
  DistVector x(part);
  b.set_global(std::vector<double>(static_cast<std::size_t>(a.rows()), 1.0));
  SolveReport rep;
  rep.solver_residual_norm = 1.0;
  accounting.close(dist, b, x, rep);

  EXPECT_EQ(rep.sim_time_phase[static_cast<std::size_t>(Phase::kIteration)],
            0.5);
  EXPECT_EQ(rep.recovery_sim_time(), 0.25);
  EXPECT_EQ(rep.sim_time, 0.75);
  // x = 0, so ||b - A x|| = ||b|| = sqrt(n), computed with the clock paused.
  EXPECT_DOUBLE_EQ(rep.true_residual_norm, 8.0);
  EXPECT_DOUBLE_EQ(rep.delta_metric, (1.0 - 8.0) / 8.0);
  EXPECT_EQ(cluster.clock().total(), 2.75);
  EXPECT_GE(rep.wall_seconds, 0.0);
}

engine::Problem accounting_problem(bool zero_rhs) {
  const CsrMatrix a = poisson2d_5pt(12, 12);
  std::vector<double> b(static_cast<std::size_t>(a.rows()),
                        zero_rhs ? 0.0 : 1.0);
  return engine::ProblemBuilder()
      .matrix(poisson2d_5pt(12, 12))
      .nodes(4)
      .preconditioner("bjacobi")
      .rhs(std::move(b))
      .build();
}

engine::SolverConfig accounting_config() {
  engine::SolverConfig c;
  c.rtol = 1e-6;
  c.max_iterations = 2000;
  c.omega = 0.9;
  return c;
}

double phase_sum(const SolveReport& rep) {
  return std::accumulate(rep.sim_time_phase.begin(), rep.sim_time_phase.end(),
                         0.0);
}

// Every registered key, zero right-hand side: the set-up work before the
// convergence check (initial SpMV, reductions) is charged and reported, and
// the phases add up to the total.
TEST(SolveAccounting, ZeroRhsSolveReportsItsSetupTimeForEveryKey) {
  for (const std::string& key : engine::SolverRegistry::instance().names()) {
    engine::Problem problem = accounting_problem(/*zero_rhs=*/true);
    DistVector x = problem.make_x();
    const SolveReport rep = engine::SolverRegistry::instance()
                                .create(key, accounting_config())
                                ->solve(problem, x);
    EXPECT_TRUE(rep.converged) << key;
    EXPECT_EQ(rep.iterations, 0) << key;
    EXPECT_GT(rep.sim_time, 0.0) << key;
    EXPECT_EQ(rep.sim_time, phase_sum(rep)) << key;
  }
}

TEST(SolveAccounting, EveryKeyMeasuresWallTime) {
  for (const std::string& key : engine::SolverRegistry::instance().names()) {
    engine::Problem problem = accounting_problem(/*zero_rhs=*/false);
    DistVector x = problem.make_x();
    const SolveReport rep = engine::SolverRegistry::instance()
                                .create(key, accounting_config())
                                ->solve(problem, x);
    EXPECT_GT(rep.iterations, 0) << key;
    EXPECT_GT(rep.wall_seconds, 0.0) << key;
    EXPECT_EQ(rep.sim_time, phase_sum(rep)) << key;
    EXPECT_EQ(rep.solver, key);
  }
}

// ---- block-presence rules --------------------------------------------------

SolveReport solve_with(const std::string& key, const engine::SolverConfig& c,
                       const FailureSchedule& schedule = {}) {
  engine::Problem problem = accounting_problem(/*zero_rhs=*/false);
  DistVector x = problem.make_x();
  return engine::SolverRegistry::instance().create(key, c)->solve(
      problem, x, schedule);
}

TEST(SolveReportBlocks, CacheBlockFollowsTheCacheSwitch) {
  engine::SolverConfig c = accounting_config();
  EXPECT_TRUE(solve_with("pcg", c).cache_stats.has_value());
  c.factorization_cache = false;
  const SolveReport rep = solve_with("pcg", c);
  EXPECT_FALSE(rep.cache_stats.has_value());
  EXPECT_EQ(rep.to_json().find("factorization_cache"), std::string::npos);
}

TEST(SolveReportBlocks, ScenarioBlockOnlyForGeneratedSchedules) {
  engine::SolverConfig c = accounting_config();
  c.recovery = RecoveryMethod::kEsr;
  c.phi = 2;
  c.scenario.kind = ScenarioKind::kCorrelated;
  c.scenario.seed = 3;
  c.scenario.events = 1;
  c.scenario.max_nodes_per_event = 1;
  c.scenario.horizon = 5;
  const SolveReport generated = solve_with("resilient-pcg", c);
  ASSERT_TRUE(generated.scenario.has_value());
  EXPECT_EQ(generated.scenario->kind, ScenarioKind::kCorrelated);
  EXPECT_EQ(generated.scenario->seed, 3u);
  EXPECT_EQ(generated.scenario->events, 1);

  // An explicit schedule wins over the scenario — and is not described as
  // one.
  const SolveReport explicit_run =
      solve_with("resilient-pcg", c, FailureSchedule::contiguous(3, 1, 1));
  EXPECT_FALSE(explicit_run.scenario.has_value());
  EXPECT_EQ(explicit_run.recoveries.size(), 1u);
  EXPECT_EQ(explicit_run.to_json().find("\"scenario\""), std::string::npos);
}

TEST(SolveReportBlocks, CheckpointBlockOnlyForCheckpointingSolvers) {
  engine::SolverConfig c = accounting_config();
  c.checkpoint_interval = 7;
  c.checkpoint.medium = CheckpointMedium::kDisk;
  const SolveReport ckpt = solve_with("checkpoint-recovery", c);
  ASSERT_TRUE(ckpt.checkpoint.has_value());
  EXPECT_EQ(ckpt.checkpoint->interval, 7);
  EXPECT_EQ(ckpt.checkpoint->costs.medium, CheckpointMedium::kDisk);
  EXPECT_GT(ckpt.checkpoint->costs.write_per_element_s, 0.0);  // resolved

  for (const char* key : {"pcg", "twin-pcg", "pipelined-pcg"}) {
    const SolveReport rep = solve_with(key, c);
    EXPECT_FALSE(rep.checkpoint.has_value()) << key;
    EXPECT_EQ(rep.to_json().find("\"checkpoint\": {"), std::string::npos)
        << key;
  }
}

}  // namespace
}  // namespace rpcg
