// The typed event-hook API: on_iteration / on_failure_injected /
// on_recovery_complete / on_checkpoint fire at the documented points, for
// every engine family — the reference "pcg" key included, whose deadline is
// enforced through the same hook — and every resilient key honours the same
// contract under an overlapping failure chain.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "core/errors.hpp"
#include "core/resilient_pcg.hpp"
#include "engine/registry.hpp"
#include "sparse/generators.hpp"

namespace rpcg {
namespace {

engine::Problem small_poisson() {
  return engine::ProblemBuilder()
      .matrix(poisson2d_5pt(16, 16))
      .nodes(8)
      .preconditioner("bjacobi")
      .build();
}

TEST(SolverEvents, IterationHookFiresOncePerCompletedIteration) {
  engine::Problem problem = small_poisson();
  engine::SolverConfig c;
  int calls = 0;
  int last = 0;
  c.events.on_iteration = [&](const IterationSnapshot& snap) {
    ++calls;
    EXPECT_EQ(snap.iteration, calls);
    last = snap.iteration;
    EXPECT_NE(snap.x, nullptr);
    EXPECT_NE(snap.r, nullptr);
  };
  DistVector x = problem.make_x();
  const auto rep = engine::SolverRegistry::instance()
                       .create("resilient-pcg", c)
                       ->solve(problem, x);
  EXPECT_EQ(calls, rep.iterations);
  EXPECT_EQ(last, rep.iterations);
}

TEST(SolverEvents, FailureAndRecoveryHooksFireOnEsrRecovery) {
  engine::Problem problem = small_poisson();
  engine::SolverConfig c;
  c.recovery = RecoveryMethod::kEsr;
  c.phi = 2;
  std::vector<FailureEvent> failures;
  std::vector<RecoveryRecord> recoveries;
  c.events.on_failure_injected = [&](const FailureEvent& ev) {
    failures.push_back(ev);
  };
  c.events.on_recovery_complete = [&](const RecoveryRecord& rec) {
    recoveries.push_back(rec);
  };
  DistVector x = problem.make_x();
  const auto rep = engine::SolverRegistry::instance()
                       .create("resilient-pcg", c)
                       ->solve(problem, x,
                               FailureSchedule::contiguous(6, 1, 2));
  EXPECT_TRUE(rep.converged);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].iteration, 6);
  EXPECT_EQ(failures[0].nodes, (std::vector<NodeId>{1, 2}));
  ASSERT_EQ(recoveries.size(), 1u);
  EXPECT_EQ(recoveries[0].iteration, 6);
  EXPECT_EQ(recoveries[0].stats.psi, 2);
  // The solver's own record agrees with what the hook saw.
  ASSERT_EQ(rep.recoveries.size(), 1u);
  EXPECT_EQ(rep.recoveries[0].nodes, recoveries[0].nodes);
}

TEST(SolverEvents, CheckpointHookFiresPerWrite) {
  engine::Problem problem = small_poisson();
  engine::SolverConfig c;
  c.recovery = RecoveryMethod::kCheckpointRestart;
  c.checkpoint_interval = 10;
  std::vector<CheckpointEvent> checkpoints;
  c.events.on_checkpoint = [&](const CheckpointEvent& ev) {
    checkpoints.push_back(ev);
  };
  DistVector x = problem.make_x();
  const auto rep = engine::SolverRegistry::instance()
                       .create("resilient-pcg", c)
                       ->solve(problem, x);
  EXPECT_TRUE(rep.converged);
  ASSERT_EQ(static_cast<int>(checkpoints.size()), rep.checkpoints_written);
  ASSERT_FALSE(checkpoints.empty());
  EXPECT_EQ(checkpoints[0].iteration, 0);
  EXPECT_EQ(checkpoints[0].index, 0);
  for (std::size_t i = 1; i < checkpoints.size(); ++i) {
    EXPECT_EQ(checkpoints[i].index, static_cast<int>(i));
    EXPECT_EQ(checkpoints[i].iteration - checkpoints[i - 1].iteration, 10);
  }
}

TEST(SolverEvents, HooksFireForBicgstabAndStationary) {
  engine::Problem problem = small_poisson();
  for (const std::string name : {"resilient-bicgstab", "stationary"}) {
    engine::SolverConfig c;
    c.rtol = 1e-6;
    c.phi = 2;
    if (name == "stationary") c.omega = 0.9;
    int iterations = 0, failures = 0, recoveries = 0;
    c.events.on_iteration = [&](const IterationSnapshot&) { ++iterations; };
    c.events.on_failure_injected = [&](const FailureEvent&) { ++failures; };
    c.events.on_recovery_complete = [&](const RecoveryRecord&) {
      ++recoveries;
    };
    DistVector x = problem.make_x();
    const auto rep = engine::SolverRegistry::instance()
                         .create(name, c)
                         ->solve(problem, x,
                                 FailureSchedule::contiguous(3, 4, 1));
    EXPECT_TRUE(rep.converged) << name;
    EXPECT_EQ(iterations, rep.iterations) << name;
    EXPECT_EQ(failures, 1) << name;
    EXPECT_EQ(recoveries, 1) << name;
  }
}

TEST(SolverEvents, ReferencePcgFiresIterationHook) {
  engine::Problem problem = small_poisson();
  engine::SolverConfig c;
  int calls = 0;
  c.events.on_iteration = [&](const IterationSnapshot& snap) {
    ++calls;
    EXPECT_EQ(snap.iteration, calls);
  };
  DistVector x = problem.make_x();
  const auto rep =
      engine::SolverRegistry::instance().create("pcg", c)->solve(problem, x);
  EXPECT_TRUE(rep.converged);
  EXPECT_GT(calls, 0);
  EXPECT_EQ(calls, rep.iterations);
}

TEST(SolverEvents, ReferencePcgDeadlineAbortsMidSolve) {
  engine::Problem problem = small_poisson();
  engine::SolverConfig c;
  DistVector x = problem.make_x();
  const auto full =
      engine::SolverRegistry::instance().create("pcg", c)->solve(problem, x);
  ASSERT_TRUE(full.converged);
  ASSERT_GT(full.iterations, 4);

  // Half the full solve's simulated time: the cooperative hook must stop the
  // run between iterations, long before the last one.
  c.deadline_sim_seconds = 0.5 * full.sim_time;
  int calls = 0;
  c.events.on_iteration = [&](const IterationSnapshot&) { ++calls; };
  x = problem.make_x();
  const auto solver = engine::SolverRegistry::instance().create("pcg", c);
  EXPECT_THROW((void)solver->solve(problem, x), BudgetExceeded);
  EXPECT_GT(calls, 0);
  EXPECT_LT(calls, full.iterations);
}

/// One resilient registry key with the settings that make it recover.
struct ResilientKey {
  const char* label;
  const char* solver;
  RecoveryMethod recovery = RecoveryMethod::kNone;
  int phi = 0;
  int pipeline_depth = 1;
};

void PrintTo(const ResilientKey& key, std::ostream* os) { *os << key.label; }

class HookContract : public ::testing::TestWithParam<ResilientKey> {};

// Three events strike iteration 3, each during the recovery of the ones
// before it: the engines merge them into one wave {1, 2, 3} (no twin buddy
// pair among them at 8 nodes).
TEST_P(HookContract, OverlappingChainFiresEveryHookInOrder) {
  const ResilientKey& key = GetParam();
  engine::Problem problem = small_poisson();
  FailureSchedule schedule;
  for (const NodeId f : {1, 2, 3})
    schedule.add({3, {f}, /*during_recovery=*/f != 1});

  engine::SolverConfig c;
  c.rtol = 1e-6;
  c.max_iterations = 2000;
  c.recovery = key.recovery;
  c.phi = key.phi;
  c.pipeline_depth = key.pipeline_depth;
  c.omega = 0.9;
  c.checkpoint_interval = 2;
  std::vector<FailureEvent> failures;
  std::vector<RecoveryRecord> recoveries;
  bool recovering = false;
  c.events.on_failure_injected = [&](const FailureEvent& ev) {
    failures.push_back(ev);
    recovering = true;
  };
  c.events.on_recovery_complete = [&](const RecoveryRecord& rec) {
    EXPECT_TRUE(recovering) << "recovery without an injection";
    recoveries.push_back(rec);
    recovering = false;
  };
  c.events.on_iteration = [&](const IterationSnapshot&) {
    EXPECT_FALSE(recovering) << "iteration between injection and recovery";
  };
  DistVector x = problem.make_x();
  const auto rep = engine::SolverRegistry::instance()
                       .create(key.solver, c)
                       ->solve(problem, x, schedule);

  ASSERT_EQ(failures.size(), schedule.events().size());
  for (std::size_t i = 0; i < failures.size(); ++i) {
    EXPECT_EQ(failures[i].iteration, schedule.events()[i].iteration);
    EXPECT_EQ(failures[i].nodes, schedule.events()[i].nodes);
    EXPECT_EQ(failures[i].during_recovery,
              schedule.events()[i].during_recovery);
  }
  ASSERT_EQ(recoveries.size(), 1u);
  EXPECT_EQ(recoveries[0].iteration, 3);
  EXPECT_EQ(recoveries[0].nodes, (std::vector<NodeId>{1, 2, 3}));
  ASSERT_EQ(rep.recoveries.size(), 1u);
  EXPECT_EQ(rep.recoveries[0].nodes, recoveries[0].nodes);
  EXPECT_FALSE(recovering);
}

INSTANTIATE_TEST_SUITE_P(
    EveryResilientKey, HookContract,
    ::testing::Values(
        ResilientKey{"esr", "resilient-pcg", RecoveryMethod::kEsr, 3},
        ResilientKey{"checkpoint_restart", "resilient-pcg",
                     RecoveryMethod::kCheckpointRestart},
        ResilientKey{"interpolation_restart", "resilient-pcg",
                     RecoveryMethod::kInterpolationRestart},
        ResilientKey{"checkpoint_recovery", "checkpoint-recovery"},
        ResilientKey{"twin", "twin-pcg"},
        ResilientKey{"pipelined_depth1", "pipelined-resilient-pcg",
                     RecoveryMethod::kEsr, 3, 1},
        ResilientKey{"pipelined_depth2", "pipelined-resilient-pcg",
                     RecoveryMethod::kEsr, 3, 2},
        ResilientKey{"pipelined_cr", "pipelined-resilient-cr",
                     RecoveryMethod::kEsr, 3},
        ResilientKey{"bicgstab", "resilient-bicgstab", RecoveryMethod::kNone,
                     3},
        ResilientKey{"stationary", "stationary", RecoveryMethod::kNone, 3}),
    [](const ::testing::TestParamInfo<ResilientKey>& param) {
      return std::string(param.param.label);
    });

}  // namespace
}  // namespace rpcg
