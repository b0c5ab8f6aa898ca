// The service-level fault-tolerance battery: the typed error taxonomy,
// per-job budgets (simulated deadlines, iteration caps, the batch wall-clock
// cutoff), retry-with-escalation through fallback solver chains, and the
// seeded fault-injection harness. The overarching contract under test: a
// robust batch never crashes and never hangs — every job streams exactly one
// classified result — and retried runs stay byte-deterministic across worker
// counts in submission order.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/errors.hpp"
#include "engine/registry.hpp"
#include "service/fault_injection.hpp"
#include "service/job.hpp"
#include "service/json_value.hpp"
#include "service/retry.hpp"
#include "service/solver_service.hpp"
#include "sparse/matrix_market.hpp"

namespace {

using rpcg::BudgetExceeded;
using rpcg::CacheBuildFailure;
using rpcg::DivergenceError;
using rpcg::ErrorClass;
using rpcg::SolverError;
using rpcg::UnrecoverableFailure;
using rpcg::service::AttemptRecord;
using rpcg::service::FaultInjectionConfig;
using rpcg::service::FaultInjector;
using rpcg::service::JobResult;
using rpcg::service::JobSpec;
using rpcg::service::JsonValue;
using rpcg::service::RetryPolicy;
using rpcg::service::ServiceOptions;
using rpcg::service::ServiceReport;
using rpcg::service::SolverService;

std::vector<JobSpec> parse_jobs(const std::string& lines) {
  std::istringstream in(lines);
  return rpcg::service::parse_job_lines(in);
}

/// Per-job JSON with the host-time fields (the only nondeterministic ones)
/// zeroed, so runs can be compared byte-for-byte.
std::vector<std::string> normalized_job_reports(const ServiceReport& report) {
  std::vector<std::string> out;
  out.reserve(report.jobs.size());
  for (const JobResult& job : report.jobs) {
    JobResult copy = job;
    copy.wall_seconds = 0.0;
    copy.report.wall_seconds = 0.0;
    out.push_back(copy.to_json());
  }
  return out;
}

// ---- the taxonomy --------------------------------------------------------

TEST(ErrorTaxonomy, EnumRoundTripsAndNamesAreStable) {
  using rpcg::to_string;
  EXPECT_EQ(to_string(ErrorClass::kUnrecoverableFailure),
            "unrecoverable-failure");
  EXPECT_EQ(to_string(ErrorClass::kDivergence), "divergence");
  EXPECT_EQ(to_string(ErrorClass::kBudgetExceeded), "budget-exceeded");
  EXPECT_EQ(to_string(ErrorClass::kInvalidJob), "invalid-job");
  EXPECT_EQ(to_string(ErrorClass::kCacheBuildFailure), "cache-build-failure");
  EXPECT_EQ(to_string(ErrorClass::kInternal), "internal");
}

TEST(ErrorTaxonomy, ClassifiesTypedAndForeignExceptions) {
  using rpcg::classify_exception;
  EXPECT_EQ(classify_exception(UnrecoverableFailure("x")),
            ErrorClass::kUnrecoverableFailure);
  EXPECT_EQ(classify_exception(DivergenceError("x")), ErrorClass::kDivergence);
  EXPECT_EQ(classify_exception(BudgetExceeded("x")),
            ErrorClass::kBudgetExceeded);
  EXPECT_EQ(classify_exception(CacheBuildFailure("x")),
            ErrorClass::kCacheBuildFailure);
  EXPECT_EQ(classify_exception(SolverError(ErrorClass::kDivergence, "x")),
            ErrorClass::kDivergence);
  EXPECT_EQ(classify_exception(std::invalid_argument("bad config")),
            ErrorClass::kInvalidJob);
  EXPECT_EQ(classify_exception(std::runtime_error("anything else")),
            ErrorClass::kInternal);
  EXPECT_EQ(classify_exception(std::logic_error("invariant")),
            ErrorClass::kInternal);
}

TEST(ErrorTaxonomy, OnlyInvalidJobIsNotRetryable) {
  using rpcg::is_retryable;
  EXPECT_TRUE(is_retryable(ErrorClass::kUnrecoverableFailure));
  EXPECT_TRUE(is_retryable(ErrorClass::kDivergence));
  EXPECT_TRUE(is_retryable(ErrorClass::kBudgetExceeded));
  EXPECT_TRUE(is_retryable(ErrorClass::kCacheBuildFailure));
  EXPECT_TRUE(is_retryable(ErrorClass::kInternal));
  EXPECT_FALSE(is_retryable(ErrorClass::kInvalidJob));
}

TEST(ErrorTaxonomy, SolverErrorsAreStillRuntimeErrors) {
  // Pre-taxonomy catch sites (and tests) must keep working unchanged.
  EXPECT_THROW(throw UnrecoverableFailure("x"), std::runtime_error);
  EXPECT_THROW(throw CacheBuildFailure("x"), std::runtime_error);
}

// ---- RetryPolicy ---------------------------------------------------------

TEST(RetryPolicyUnit, AttemptCountCoversTheFallbackChain) {
  RetryPolicy p;
  EXPECT_FALSE(p.enabled());
  EXPECT_EQ(p.attempts(), 1);
  p.max_attempts = 3;
  EXPECT_TRUE(p.enabled());
  EXPECT_EQ(p.attempts(), 3);
  p.max_attempts = 1;
  p.fallbacks = {"a", "b", "c"};
  EXPECT_TRUE(p.enabled());
  EXPECT_EQ(p.attempts(), 4);  // the chain extends the attempt count
  p.max_attempts = 6;
  EXPECT_EQ(p.attempts(), 6);
}

TEST(RetryPolicyUnit, SolverChainEscalatesAndLastFallbackRepeats) {
  RetryPolicy p;
  p.max_attempts = 5;
  p.fallbacks = {"fb1", "fb2"};
  EXPECT_EQ(p.solver_for_attempt("own", 1), "own");
  EXPECT_EQ(p.solver_for_attempt("own", 2), "fb1");
  EXPECT_EQ(p.solver_for_attempt("own", 3), "fb2");
  EXPECT_EQ(p.solver_for_attempt("own", 4), "fb2");  // chain exhausted
  EXPECT_EQ(p.solver_for_attempt("own", 5), "fb2");

  RetryPolicy plain;
  plain.max_attempts = 3;
  EXPECT_EQ(plain.solver_for_attempt("own", 2), "own");  // no chain: rerun
}

TEST(RetryPolicyUnit, BackoffIsGeometricAndDeterministic) {
  RetryPolicy p;
  p.backoff_sim_seconds = 0.5;
  p.backoff_multiplier = 2.0;
  EXPECT_DOUBLE_EQ(p.backoff_before(1), 0.0);  // never before the first
  EXPECT_DOUBLE_EQ(p.backoff_before(2), 0.5);
  EXPECT_DOUBLE_EQ(p.backoff_before(3), 1.0);
  EXPECT_DOUBLE_EQ(p.backoff_before(4), 2.0);
  p.backoff_sim_seconds = 0.0;
  EXPECT_DOUBLE_EQ(p.backoff_before(4), 0.0);
}

// ---- job-file keys -------------------------------------------------------

TEST(JobParsingRobust, RetryKeysFillThePolicy) {
  const JobSpec array_form = rpcg::service::parse_job(JsonValue::parse(
      R"({"solver": "twin-pcg", "retry": 3,
          "fallbacks": ["pipelined-resilient-pcg", "checkpoint-recovery"],
          "retry-backoff": 0.25, "retry-backoff-multiplier": 4,
          "retry-seed-bump": 7, "deadline": 12.5})"));
  EXPECT_EQ(array_form.retry.max_attempts, 3);
  EXPECT_EQ(array_form.retry.fallbacks,
            (std::vector<std::string>{"pipelined-resilient-pcg",
                                      "checkpoint-recovery"}));
  EXPECT_DOUBLE_EQ(array_form.retry.backoff_sim_seconds, 0.25);
  EXPECT_DOUBLE_EQ(array_form.retry.backoff_multiplier, 4.0);
  EXPECT_EQ(array_form.retry.seed_bump, 7u);
  EXPECT_DOUBLE_EQ(array_form.config.deadline_sim_seconds, 12.5);

  const JobSpec comma_form = rpcg::service::parse_job(
      JsonValue::parse(R"({"fallbacks": "a, b,c"})"));
  EXPECT_EQ(comma_form.retry.fallbacks,
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(comma_form.retry.enabled());
}

TEST(JobParsingRobust, RejectsInvalidRetryValues) {
  EXPECT_THROW(
      (void)rpcg::service::parse_job(JsonValue::parse(R"({"retry": 0})")),
      std::invalid_argument);
  EXPECT_THROW((void)rpcg::service::parse_job(
                   JsonValue::parse(R"({"retry-backoff": -1})")),
               std::invalid_argument);
  EXPECT_THROW((void)rpcg::service::parse_job(
                   JsonValue::parse(R"({"retry-backoff-multiplier": 0.5})")),
               std::invalid_argument);
  EXPECT_THROW((void)rpcg::service::parse_job(
                   JsonValue::parse(R"({"fallbacks": ""})")),
               std::invalid_argument);
}

// ---- classification through the service ----------------------------------

/// Every resilient family against a failure shape its redundancy provably
/// cannot cover. The batch must finish (no crash, no hang) with every job
/// classified unrecoverable-failure.
std::vector<JobSpec> uncoverable_batch() {
  return parse_jobs(
      R"({"name": "twin-pair", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "twin-pcg", "failures": [{"iteration": 4, "nodes": [1, 5]}]}
{"name": "esr-all", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 2, "failures": [{"iteration": 3, "first": 0, "psi": 8}]}
{"name": "pipe-all", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "pipelined-resilient-pcg", "recovery": "esr", "phi": 2, "failures": [{"iteration": 3, "first": 0, "psi": 8}]}
{"name": "ckpt-all", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "checkpoint-recovery", "checkpoint-interval": 4, "failures": [{"iteration": 4, "first": 0, "psi": 8}]}
{"name": "stationary-thin", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "stationary", "phi": 1, "failures": [{"iteration": 2, "first": 0, "psi": 7}]})");
}

TEST(Classification, UncoverableFailuresSurfaceTypedThroughTheService) {
  const std::vector<JobSpec> jobs = uncoverable_batch();
  ServiceOptions opts;
  opts.workers = 4;
  const ServiceReport run = SolverService(opts).run(jobs);
  EXPECT_EQ(run.failed, jobs.size());
  for (const JobResult& job : run.jobs) {
    EXPECT_FALSE(job.ok()) << job.name;
    EXPECT_EQ(job.error_class, ErrorClass::kUnrecoverableFailure) << job.name;
    EXPECT_FALSE(job.error.empty()) << job.name;
  }
  // No robustness knob set: every job still records its one attempt and the
  // class of its failure.
  for (const JobResult& job : run.jobs) {
    ASSERT_EQ(job.attempts.size(), 1u) << job.name;
    EXPECT_EQ(job.attempts[0].error_class, ErrorClass::kUnrecoverableFailure)
        << job.name;
  }
  EXPECT_NE(run.to_json().find("\"error_class\": \"unrecoverable-failure\""),
            std::string::npos);
}

TEST(Classification, InvalidJobIsNotRetried) {
  std::vector<JobSpec> jobs = parse_jobs(
      R"({"name": "bad", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "no-such-solver"})");
  jobs[0].retry.max_attempts = 4;
  ServiceOptions opts;
  opts.workers = 1;
  const ServiceReport run = SolverService(opts).run(jobs);
  ASSERT_EQ(run.failed, 1u);
  EXPECT_EQ(run.jobs[0].error_class, ErrorClass::kInvalidJob);
  // The registry rejection is config-shaped: one attempt, no retries.
  ASSERT_EQ(run.jobs[0].attempts.size(), 1u);
  EXPECT_EQ(run.retries, 0u);
}

/// A failure injected into a solver that carries no redundancy is an
/// unrecoverable failure (retryable, escalatable), whichever engine it hits
/// — not an invalid job.
TEST(Classification, FailuresWithoutRedundancyAreUnrecoverable) {
  const std::vector<JobSpec> jobs = parse_jobs(
      R"({"name": "pcg-none", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "none", "failures": [{"iteration": 2, "first": 1, "psi": 1}]}
{"name": "pipe-phi0", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "pipelined-resilient-pcg", "phi": 0, "failures": [{"iteration": 2, "first": 1, "psi": 1}]}
{"name": "bicgstab-phi0", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-bicgstab", "phi": 0, "failures": [{"iteration": 2, "first": 1, "psi": 1}]}
{"name": "stationary-phi0", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "stationary", "phi": 0, "failures": [{"iteration": 2, "first": 1, "psi": 1}]})");
  ServiceOptions opts;
  opts.workers = 2;
  const ServiceReport run = SolverService(opts).run(jobs);
  ASSERT_EQ(run.jobs.size(), jobs.size());
  EXPECT_EQ(run.failed, jobs.size());
  for (const JobResult& job : run.jobs) {
    EXPECT_EQ(job.error_class, ErrorClass::kUnrecoverableFailure)
        << job.name << ": " << job.error;
  }
}

/// A 64-row indefinite tridiagonal matrix (diagonal 1, off-diagonals 2) in
/// Matrix Market form: CG-family iterations break down on it.
std::string indefinite_tridiagonal_mtx() {
  std::ostringstream out;
  out << "%%MatrixMarket matrix coordinate real symmetric\n64 64 127\n";
  for (int i = 1; i <= 64; ++i) {
    out << i << " " << i << " 1\n";
    if (i < 64) out << i + 1 << " " << i << " 2\n";
  }
  return out.str();
}

/// The error class a solve on the indefinite matrix ends with, or nullopt
/// when it returns normally.
std::optional<ErrorClass> breakdown_class(const std::string& solver,
                                          int pipeline_depth) {
  std::istringstream mtx(indefinite_tridiagonal_mtx());
  rpcg::engine::Problem problem = rpcg::engine::ProblemBuilder()
                                      .matrix(rpcg::read_matrix_market(mtx))
                                      .nodes(4)
                                      .preconditioner("none")
                                      .build();
  rpcg::engine::SolverConfig config;
  config.pipeline_depth = pipeline_depth;
  rpcg::DistVector x = problem.make_x();
  try {
    (void)rpcg::engine::SolverRegistry::instance()
        .create(solver, config)
        ->solve(problem, x);
  } catch (const std::exception& e) {
    return rpcg::classify_exception(e);
  }
  return std::nullopt;
}

TEST(Classification, CgBreakdownsAreDivergence) {
  for (const char* solver :
       {"pcg", "resilient-pcg", "checkpoint-recovery", "twin-pcg"}) {
    EXPECT_EQ(breakdown_class(solver, 1), ErrorClass::kDivergence) << solver;
  }
  for (const char* solver : {"pipelined-pcg", "pipelined-resilient-pcg"}) {
    for (const int depth : {1, 2}) {
      EXPECT_EQ(breakdown_class(solver, depth), ErrorClass::kDivergence)
          << solver << " depth " << depth;
    }
  }
  // These converge on the matrix; whatever they do, a data-dependent
  // outcome is never an internal error.
  for (const char* solver : {"pipelined-cr", "resilient-bicgstab"}) {
    EXPECT_NE(breakdown_class(solver, 1), ErrorClass::kInternal) << solver;
  }
}

// ---- budgets -------------------------------------------------------------

TEST(Budgets, SimulatedDeadlineClassifiesBudgetExceeded) {
  // A deadline no solve can meet: the hook throws on the first completed
  // iteration, for the reference pcg key as for resilient-pcg.
  const std::vector<JobSpec> jobs = parse_jobs(
      R"({"name": "hooked", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 2, "deadline": 1e-12}
{"name": "reference", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "pcg", "precond": "jacobi", "deadline": 1e-12}
{"name": "generous", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 2, "deadline": 1e9})");
  ServiceOptions opts;
  opts.workers = 2;
  const ServiceReport run = SolverService(opts).run(jobs);
  EXPECT_EQ(run.failed, 2u);
  EXPECT_EQ(run.jobs[0].error_class, ErrorClass::kBudgetExceeded);
  EXPECT_EQ(run.jobs[1].error_class, ErrorClass::kBudgetExceeded);
  EXPECT_TRUE(run.jobs[2].ok());
  EXPECT_TRUE(run.jobs[2].report.converged);
  EXPECT_EQ(run.deadline_misses, 2u);
  EXPECT_NE(run.to_json().find("rpcg-service-report/v2"), std::string::npos);
}

TEST(Budgets, BatchDefaultDeadlineAppliesToEveryJob) {
  const std::vector<JobSpec> jobs = parse_jobs(
      R"({"name": "a", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 2}
{"name": "b", "matrix": "M2", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 2})");
  ServiceOptions opts;
  opts.workers = 2;
  opts.default_deadline_sim_seconds = 1e-12;
  const ServiceReport run = SolverService(opts).run(jobs);
  EXPECT_EQ(run.failed, jobs.size());
  for (const JobResult& job : run.jobs) {
    EXPECT_EQ(job.error_class, ErrorClass::kBudgetExceeded) << job.name;
    ASSERT_EQ(job.attempts.size(), 1u) << job.name;
    EXPECT_EQ(job.attempts[0].error_class, ErrorClass::kBudgetExceeded);
  }
  EXPECT_EQ(run.deadline_misses, jobs.size());
}

TEST(Budgets, IterationCapUnderRetryPolicyIsClassified) {
  // rtol far below reach with a tiny iteration cap: without a policy this
  // is a non-converged "ok" report (status quo); under one it must become a
  // classified budget failure so escalation can trigger.
  std::vector<JobSpec> jobs = parse_jobs(
      R"({"name": "capped", "matrix": "M5", "scale": 256, "nodes": 8, "solver": "pcg", "precond": "jacobi", "rtol": 1e-14, "max-iterations": 3})");
  ServiceOptions plain;
  plain.workers = 1;
  const ServiceReport status_quo = SolverService(plain).run(jobs);
  EXPECT_EQ(status_quo.failed, 0u);  // no policy: still an ok report
  EXPECT_FALSE(status_quo.jobs[0].report.converged);

  jobs[0].retry.max_attempts = 2;
  const ServiceReport robust = SolverService(plain).run(jobs);
  ASSERT_EQ(robust.failed, 1u);
  EXPECT_EQ(robust.jobs[0].error_class, ErrorClass::kBudgetExceeded);
  ASSERT_EQ(robust.jobs[0].attempts.size(), 2u);  // rerun, then reported
  EXPECT_EQ(robust.retries, 1u);
}

TEST(Budgets, WallClockTimeoutCutsOffJobsWithoutCrashing) {
  const std::vector<JobSpec> jobs = parse_jobs(
      R"({"name": "a", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "pcg", "precond": "jacobi"}
{"name": "b", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "pcg", "precond": "jacobi"}
{"name": "c", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "pcg", "precond": "jacobi"})");
  ServiceOptions opts;
  opts.workers = 1;
  opts.wall_timeout_seconds = 1e-12;  // already spent before the first job
  const ServiceReport run = SolverService(opts).run(jobs);
  EXPECT_EQ(run.failed, jobs.size());
  for (const JobResult& job : run.jobs) {
    EXPECT_EQ(job.error_class, ErrorClass::kBudgetExceeded) << job.name;
    EXPECT_TRUE(job.attempts.empty()) << job.name;  // never started
  }
  EXPECT_EQ(run.deadline_misses, jobs.size());
}

// ---- retry with escalation -----------------------------------------------

TEST(Retry, BuddyPairLossEscalatesToCheckpointRecovery) {
  // The acceptance scenario: twin-pcg against a simultaneous buddy-pair
  // loss (provably uncoverable for the twin strategy) escalates to
  // checkpoint-recovery, which rolls back past the same failure and
  // finishes. failed == 0 with the full attempt history recorded.
  std::vector<JobSpec> jobs = parse_jobs(
      R"({"name": "twin-a", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "twin-pcg", "checkpoint-interval": 4, "failures": [{"iteration": 4, "nodes": [1, 5]}]}
{"name": "twin-b", "matrix": "M2", "scale": 256, "nodes": 8, "solver": "twin-pcg", "checkpoint-interval": 4, "failures": [{"iteration": 4, "nodes": [2, 6]}]})");
  for (JobSpec& job : jobs) job.retry.fallbacks = {"checkpoint-recovery"};

  ServiceOptions opts;
  opts.workers = 2;
  const ServiceReport run = SolverService(opts).run(jobs);
  EXPECT_EQ(run.failed, 0u);
  for (const JobResult& job : run.jobs) {
    EXPECT_TRUE(job.ok()) << job.name;
    EXPECT_EQ(job.solver, "twin-pcg");  // the *requested* solver
    EXPECT_EQ(job.report.solver, "checkpoint-recovery");  // what ran
    EXPECT_TRUE(job.report.converged) << job.name;
    ASSERT_EQ(job.attempts.size(), 2u) << job.name;
    EXPECT_FALSE(job.attempts[0].ok);
    EXPECT_EQ(job.attempts[0].solver, "twin-pcg");
    EXPECT_EQ(job.attempts[0].error_class, ErrorClass::kUnrecoverableFailure);
    EXPECT_TRUE(job.attempts[1].ok);
    EXPECT_EQ(job.attempts[1].solver, "checkpoint-recovery");
  }
  EXPECT_EQ(run.retries, 2u);
  EXPECT_EQ(run.escalations, 2u);
  EXPECT_EQ(run.degraded, 2u);
  EXPECT_EQ(run.deadline_misses, 0u);
}

TEST(Retry, BatchDefaultPolicyAppliesAndJobOverrideWins) {
  // Every attempt of every job is injected to fail, so attempt counts are
  // exactly the policy's grant: batch default 2, per-job override 4.
  std::vector<JobSpec> jobs = parse_jobs(
      R"({"name": "default", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "pcg", "precond": "jacobi"}
{"name": "override", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "pcg", "precond": "jacobi", "retry": 4})");
  ServiceOptions opts;
  opts.workers = 2;
  opts.retry.max_attempts = 2;
  opts.fault_injection.enabled = true;
  opts.fault_injection.worker_fail_first_attempts = 100;
  const ServiceReport run = SolverService(opts).run(jobs);
  EXPECT_EQ(run.failed, 2u);
  ASSERT_EQ(run.jobs[0].attempts.size(), 2u);
  ASSERT_EQ(run.jobs[1].attempts.size(), 4u);
  EXPECT_EQ(run.retries, 4u);
  for (const JobResult& job : run.jobs) {
    EXPECT_EQ(job.error_class, ErrorClass::kInternal) << job.name;
  }
}

TEST(Retry, ScenarioSeedIsBumpedDeterministicallyPerAttempt) {
  std::vector<JobSpec> jobs = parse_jobs(
      R"({"name": "scen", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 3, "scenario": "cascading", "scenario-seed": 5, "scenario-events": 2, "scenario-nodes": 1, "scenario-horizon": 8, "scenario-window": 3, "retry": 2, "retry-seed-bump": 10, "retry-backoff": 0.5})");
  ServiceOptions opts;
  opts.workers = 1;
  opts.fault_injection.enabled = true;
  opts.fault_injection.worker_fail_first_attempts = 1;  // force one retry
  const ServiceReport run = SolverService(opts).run(jobs);
  EXPECT_EQ(run.failed, 0u);
  ASSERT_EQ(run.jobs[0].attempts.size(), 2u);
  EXPECT_EQ(run.jobs[0].attempts[0].scenario_seed, 5u);
  EXPECT_EQ(run.jobs[0].attempts[1].scenario_seed, 15u);  // 5 + 10 * 1
  EXPECT_DOUBLE_EQ(run.jobs[0].attempts[0].backoff_sim_seconds, 0.0);
  EXPECT_DOUBLE_EQ(run.jobs[0].attempts[1].backoff_sim_seconds, 0.5);
  // The backoff is recorded, never charged: the attempt's simulated time is
  // the solve's alone.
  EXPECT_DOUBLE_EQ(run.jobs[0].attempts[1].sim_time,
                   run.jobs[0].report.sim_time);
}

// ---- fault injection -----------------------------------------------------

TEST(FaultInjection, DecisionsArePureFunctionsOfSeedJobAttempt) {
  FaultInjectionConfig cfg;
  cfg.enabled = true;
  cfg.seed = 42;
  cfg.cache_build_failure_rate = 0.5;
  cfg.worker_fault_rate = 0.5;
  const FaultInjector a(cfg);
  const FaultInjector b(cfg);
  int faults = 0;
  for (std::size_t job = 0; job < 64; ++job) {
    for (int attempt = 1; attempt <= 3; ++attempt) {
      EXPECT_EQ(a.worker_fault(job, attempt), b.worker_fault(job, attempt));
      EXPECT_EQ(a.cache_build_fault(job, attempt),
                b.cache_build_fault(job, attempt));
      faults += a.worker_fault(job, attempt) ? 1 : 0;
    }
  }
  // At rate 0.5 over 192 draws, both "never" and "always" would be broken.
  EXPECT_GT(faults, 48);
  EXPECT_LT(faults, 144);

  FaultInjectionConfig off = cfg;
  off.enabled = false;
  const FaultInjector disabled(off);
  EXPECT_FALSE(disabled.worker_fault(0, 1));
  EXPECT_FALSE(disabled.cache_build_fault(0, 1));
}

TEST(FaultInjection, InjectedFaultsAreClassifiedAndRetriesRecover) {
  // One forced fault per site on attempt 1, one retry: every job must
  // recover on attempt 2 with the first attempt's class recorded. The ESR
  // job exercises the cache-build site (its recovery factorizes), the plain
  // job the worker site.
  std::vector<JobSpec> jobs = parse_jobs(
      R"({"name": "esr", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 2, "failures": [{"iteration": 3, "first": 1, "psi": 2}]}
{"name": "plain", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "pcg", "precond": "jacobi"})");

  ServiceOptions cache_faults;
  cache_faults.workers = 2;
  cache_faults.retry.max_attempts = 2;
  cache_faults.fault_injection.enabled = true;
  cache_faults.fault_injection.cache_fail_first_attempts = 1;
  const ServiceReport cache_run = SolverService(cache_faults).run(jobs);
  EXPECT_EQ(cache_run.failed, 0u);
  ASSERT_EQ(cache_run.jobs[0].attempts.size(), 2u);
  EXPECT_EQ(cache_run.jobs[0].attempts[0].error_class,
            ErrorClass::kCacheBuildFailure);
  // The plain pcg job never consults the factorization cache, so the
  // injected upstream is never reached: one clean attempt.
  ASSERT_EQ(cache_run.jobs[1].attempts.size(), 1u);
  EXPECT_TRUE(cache_run.jobs[1].attempts[0].ok);

  ServiceOptions worker_faults;
  worker_faults.workers = 2;
  worker_faults.retry.max_attempts = 2;
  worker_faults.fault_injection.enabled = true;
  worker_faults.fault_injection.worker_fail_first_attempts = 1;
  const ServiceReport worker_run = SolverService(worker_faults).run(jobs);
  EXPECT_EQ(worker_run.failed, 0u);
  for (const JobResult& job : worker_run.jobs) {
    ASSERT_EQ(job.attempts.size(), 2u) << job.name;
    EXPECT_EQ(job.attempts[0].error_class, ErrorClass::kInternal);
    EXPECT_TRUE(job.attempts[1].ok);
  }
  EXPECT_EQ(worker_run.retries, 2u);
}

TEST(FaultInjection, ExhaustedRetriesReportTheLastClassifiedFailure) {
  const std::vector<JobSpec> jobs = parse_jobs(
      R"({"name": "doomed", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "pcg", "precond": "jacobi"})");
  ServiceOptions opts;
  opts.workers = 1;
  opts.retry.max_attempts = 3;
  opts.fault_injection.enabled = true;
  opts.fault_injection.worker_fault_rate = 1.0;  // every attempt, every job
  const ServiceReport run = SolverService(opts).run(jobs);
  ASSERT_EQ(run.failed, 1u);
  ASSERT_EQ(run.jobs[0].attempts.size(), 3u);
  EXPECT_EQ(run.jobs[0].error_class, ErrorClass::kInternal);
  EXPECT_NE(run.jobs[0].error.find("injected worker-task fault"),
            std::string::npos);
}

// ---- determinism ---------------------------------------------------------

TEST(RobustDeterminism, RetriedBatchesAreByteIdenticalAcrossWorkers) {
  // Retries, escalations, scenario re-draws, and injected faults all in one
  // batch: submission-order reports must stay byte-identical whatever the
  // parallelism, because every decision is keyed on (job, attempt), never
  // on scheduling order.
  std::vector<JobSpec> jobs = parse_jobs(
      R"({"name": "twin-esc", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "twin-pcg", "checkpoint-interval": 4, "failures": [{"iteration": 4, "nodes": [1, 5]}], "fallbacks": ["checkpoint-recovery"]}
{"name": "scen", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 3, "scenario": "cascading", "scenario-seed": 5, "scenario-events": 2, "scenario-nodes": 1, "scenario-horizon": 8, "scenario-window": 3, "retry": 2}
{"name": "plain", "matrix": "M2", "scale": 256, "nodes": 8, "solver": "pcg", "precond": "jacobi"}
{"name": "esr", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 2, "failures": [{"iteration": 3, "first": 1, "psi": 2}], "retry": 2}
{"name": "doomed", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "stationary", "phi": 1, "failures": [{"iteration": 2, "first": 0, "psi": 7}], "retry": 2})");

  const auto run_at = [&jobs](int workers) {
    ServiceOptions opts;
    opts.workers = workers;
    opts.retry.max_attempts = 1;
    opts.fault_injection.enabled = true;
    opts.fault_injection.seed = 7;
    opts.fault_injection.worker_fault_rate = 0.25;
    return SolverService(opts).run(jobs);
  };

  const ServiceReport ref = run_at(1);
  const std::vector<std::string> ref_reports = normalized_job_reports(ref);
  for (const int workers : {2, 8}) {
    const ServiceReport run = run_at(workers);
    EXPECT_EQ(run.failed, ref.failed);
    EXPECT_EQ(run.retries, ref.retries);
    EXPECT_EQ(run.escalations, ref.escalations);
    EXPECT_EQ(normalized_job_reports(run), ref_reports)
        << "robust reports diverged at workers=" << workers;
  }
}

// ---- seed-sweep fuzz ------------------------------------------------------

/// Extra repetitions per fuzz test; the nightly workflow deepens the sweep
/// through RPCG_FUZZ_MULTIPLIER=10 exactly as the scenario fuzz battery does
/// (the ctest-discovered test list is fixed at build time, so the sweep
/// scales the in-test loop rather than the parameter range).
int fuzz_multiplier() {
  const char* env = std::getenv("RPCG_FUZZ_MULTIPLIER");
  if (env == nullptr) return 1;
  const int m = std::atoi(env);
  return m > 0 ? m : 1;
}

TEST(FaultInjectionFuzz, SweptSeedsKeepReportsClassifiedAndConsistent) {
  // Whatever the injection seed, every job must end in one of exactly two
  // states: recovered (ok, faults absorbed by retries) or failed with a
  // classified injected error after a full attempt chain. Counters must
  // reconcile with the per-job attempt records, and each swept batch must
  // be bit-deterministic under re-run.
  const std::vector<JobSpec> jobs = parse_jobs(
      R"({"name": "fz-esr", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 2, "failures": [{"iteration": 3, "first": 1, "psi": 2}]}
{"name": "fz-plain", "matrix": "M2", "scale": 256, "nodes": 8, "solver": "pcg", "precond": "jacobi"}
{"name": "fz-twin", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "twin-pcg", "checkpoint-interval": 4, "failures": [{"iteration": 4, "nodes": [1, 4]}]})");
  for (int rep = 0; rep < fuzz_multiplier(); ++rep) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      ServiceOptions opts;
      opts.workers = 4;
      opts.retry.max_attempts = 3;
      opts.fault_injection.enabled = true;
      opts.fault_injection.seed = seed + 100 * static_cast<std::uint64_t>(rep);
      opts.fault_injection.worker_fault_rate = 0.3;
      opts.fault_injection.cache_build_failure_rate = 0.3;
      const ServiceReport run = SolverService(opts).run(jobs);

      std::size_t retries = 0;
      for (const JobResult& job : run.jobs) {
        ASSERT_FALSE(job.attempts.empty());
        if (job.attempts.size() > 1) retries += job.attempts.size() - 1;
        if (job.ok()) {
          EXPECT_TRUE(job.attempts.back().ok);
        } else {
          // Only an exhausted chain may fail, and only with the injected
          // classes (these jobs are all solvable when left alone).
          EXPECT_EQ(job.attempts.size(), 3u) << job.name;
          EXPECT_TRUE(job.error_class == ErrorClass::kInternal ||
                      job.error_class == ErrorClass::kCacheBuildFailure)
              << job.name << ": " << job.error;
          EXPECT_NE(job.error.find("injected"), std::string::npos) << job.name;
        }
      }
      EXPECT_EQ(run.retries, retries);
      const ServiceReport again = SolverService(opts).run(jobs);
      EXPECT_EQ(normalized_job_reports(run), normalized_job_reports(again))
          << "injection seed " << opts.fault_injection.seed;
    }
  }
}

// ---- report schema -------------------------------------------------------

TEST(ReportSchema, V2CarriesCountersAndAttemptBlocks) {
  std::vector<JobSpec> jobs = parse_jobs(
      R"({"name": "twin", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "twin-pcg", "checkpoint-interval": 4, "failures": [{"iteration": 4, "nodes": [1, 5]}], "fallbacks": ["checkpoint-recovery"]})");
  ServiceOptions opts;
  opts.workers = 1;
  const ServiceReport run = SolverService(opts).run(jobs);
  ASSERT_EQ(run.failed, 0u);

  const JsonValue parsed = JsonValue::parse(run.to_json());
  EXPECT_EQ(parsed.find("schema")->as_string(), "rpcg-service-report/v2");
  const JsonValue* summary = parsed.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_DOUBLE_EQ(summary->find("retries")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(summary->find("escalations")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(summary->find("degraded")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(summary->find("deadline_misses")->as_number(), 0.0);

  const JsonValue& job = parsed.find("jobs")->as_array().front();
  const JsonValue* attempts = job.find("attempts");
  ASSERT_NE(attempts, nullptr);
  ASSERT_EQ(attempts->as_array().size(), 2u);
  const JsonValue& first = attempts->as_array().front();
  EXPECT_EQ(first.find("status")->as_string(), "error");
  EXPECT_EQ(first.find("error_class")->as_string(), "unrecoverable-failure");
  EXPECT_EQ(attempts->as_array().back().find("status")->as_string(), "ok");
}

TEST(ReportSchema, PlainBatchCarriesCountersAndAttempts) {
  const std::vector<JobSpec> jobs = parse_jobs(
      R"({"name": "plain", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "pcg", "precond": "jacobi"})");
  ServiceOptions opts;
  opts.workers = 1;
  const ServiceReport run = SolverService(opts).run(jobs);
  const JsonValue parsed = JsonValue::parse(run.to_json());
  EXPECT_EQ(parsed.find("schema")->as_string(), "rpcg-service-report/v2");
  const JsonValue* summary = parsed.find("summary");
  ASSERT_NE(summary, nullptr);
  for (const char* key : {"retries", "escalations", "degraded",
                          "deadline_misses"}) {
    ASSERT_NE(summary->find(key), nullptr) << key;
    EXPECT_DOUBLE_EQ(summary->find(key)->as_number(), 0.0) << key;
  }
  const JsonValue* attempts =
      parsed.find("jobs")->as_array().front().find("attempts");
  ASSERT_NE(attempts, nullptr);
  ASSERT_EQ(attempts->as_array().size(), 1u);
  EXPECT_EQ(attempts->as_array().front().find("status")->as_string(), "ok");
}

TEST(ReportSchema, V2GoldenByteStable) {
  // Values generated from the last v1 revision with every report block
  // switched on (the v2 layout); any diff here is a v2 schema break or a
  // change in what the solves compute.
  const std::vector<JobSpec> jobs = parse_jobs(
      R"({"name": "gold-a", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 2, "failures": [{"iteration": 3, "first": 1, "psi": 2}]}
{"name": "gold-b", "matrix": "M2", "scale": 256, "nodes": 8, "solver": "pcg", "precond": "jacobi"})");
  ServiceOptions opts;
  opts.workers = 2;
  ServiceReport run = SolverService(opts).run(jobs);
  run.wall_seconds = 0.0;
  run.jobs_per_second = 0.0;
  for (JobResult& job : run.jobs) {
    job.wall_seconds = 0.0;
    job.report.wall_seconds = 0.0;
  }
  const std::string golden = R"golden({
  "schema": "rpcg-service-report/v2",
  "workers": 2,
  "order": "submission",
  "shared_cache": true,
  "summary": {
    "jobs": 2,
    "failed": 0,
    "retries": 0,
    "escalations": 0,
    "degraded": 0,
    "deadline_misses": 0,
    "total_factorizations": 1,
    "wall_seconds": 0,
    "jobs_per_second": 0,
    "shared_cache": {
      "hits": 0,
      "misses": 1,
      "evictions": 0,
      "entries": 1
    }
  },
  "jobs": [
    {
      "index": 0,
      "name": "gold-a",
      "matrix": "M1",
      "solver": "resilient-pcg",
      "preconditioner": "bjacobi",
      "status": "ok",
      "wall_seconds": 0,
      "problem_cache": {
        "hits": 0,
        "misses": 1,
        "invalidated": 0,
        "entries": 1
      },
      "attempts": [
        {
          "attempt": 1,
          "solver": "resilient-pcg",
          "scenario_seed": 0,
          "backoff_sim_seconds": 0,
          "status": "ok",
          "iterations": 81,
          "sim_time": 0.0038294193999999972
        }
      ],
      "report": {
        "schema": "rpcg-solve-report/v2",
        "solver": "resilient-pcg",
        "preconditioner": "bjacobi",
        "converged": true,
        "iterations": 81,
        "rel_residual": 7.699623867652437e-09,
        "solver_residual_norm": 1.3859322961772856e-10,
        "true_residual_norm": 1.3859140923256153e-10,
        "delta_metric": 1.3134906247849636e-05,
        "sim_time": 0.0038294193999999972,
        "sim_time_phase": {
          "iteration": 0.002246668199999998,
          "redundancy": 0.0002758535999999994,
          "checkpoint": 0,
          "recovery": 0.0013068975999999996
        },
        "wall_seconds": 0,
        "redundancy_overhead_per_iteration": 3.4056e-06,
        "reduction_time": {
          "posted": 0.0014681759999999994,
          "hidden": 0,
          "exposed": 0.0014681759999999994,
          "count": 163,
          "depth": 1,
          "max_in_flight": 1
        },
        "factorization_cache": {
          "hits": 0,
          "misses": 1,
          "invalidated": 0,
          "entries": 1
        },
        "checkpoints_written": 0,
        "rolled_back_iterations": 0,
        "recoveries": [
          {"iteration": 3, "nodes": [1, 2], "psi": 2, "lost_rows": 506, "gathered_elements": 1012, "local_solve_iterations": 32, "local_solve_rel_residual": 4.5899303109900646e-15, "sim_seconds": 0.0013020729999999997}
        ]
      }
    },
    {
      "index": 1,
      "name": "gold-b",
      "matrix": "M2",
      "solver": "pcg",
      "preconditioner": "jacobi",
      "status": "ok",
      "wall_seconds": 0,
      "problem_cache": {
        "hits": 0,
        "misses": 0,
        "invalidated": 0,
        "entries": 0
      },
      "attempts": [
        {
          "attempt": 1,
          "solver": "pcg",
          "scenario_seed": 0,
          "backoff_sim_seconds": 0,
          "status": "ok",
          "iterations": 26,
          "sim_time": 0.0008439087000000012
        }
      ],
      "report": {
        "schema": "rpcg-solve-report/v2",
        "solver": "pcg",
        "preconditioner": "jacobi",
        "converged": true,
        "iterations": 26,
        "rel_residual": 8.517494269193193e-09,
        "solver_residual_norm": 4.339611088093477e-09,
        "true_residual_norm": 4.33960995267724e-09,
        "delta_metric": 2.616401587812154e-07,
        "sim_time": 0.0008439087000000012,
        "sim_time_phase": {
          "iteration": 0.0008439087000000012,
          "redundancy": 0,
          "checkpoint": 0,
          "recovery": 0
        },
        "wall_seconds": 0,
        "redundancy_overhead_per_iteration": 0,
        "reduction_time": {
          "posted": 0.00047738400000000046,
          "hidden": 0,
          "exposed": 0.00047738400000000046,
          "count": 53,
          "depth": 1,
          "max_in_flight": 1
        },
        "factorization_cache": {
          "hits": 0,
          "misses": 0,
          "invalidated": 0,
          "entries": 0
        },
        "checkpoints_written": 0,
        "rolled_back_iterations": 0,
        "recoveries": [
        ]
      }
    }
  ]
})golden";
  EXPECT_EQ(run.to_json(), golden);
}

}  // namespace
