// The SolverService battery: the JSON-lines job front end, the cross-job
// SharedFactorizationCache (hit/miss/eviction/coalescing), the shared problem
// set-ups (one build per key, lifetime, failed builds), ThreadPool::submit,
// and the service determinism contract — submission-order per-job reports are
// byte-identical no matter how many workers raced to produce them, and
// whether or not set-ups and factorizations are shared.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/failure_scenario.hpp"
#include "service/job.hpp"
#include "service/json_value.hpp"
#include "service/problem_setup.hpp"
#include "service/shared_cache.hpp"
#include "service/solver_service.hpp"
#include "util/thread_pool.hpp"

namespace {

using rpcg::FactorizationCache;
using rpcg::service::JobResult;
using rpcg::service::JobSpec;
using rpcg::service::JsonValue;
using rpcg::service::ProblemSetup;
using rpcg::service::ProblemSetupCache;
using rpcg::service::ServiceOptions;
using rpcg::service::ServiceReport;
using rpcg::service::SharedFactorizationCache;
using rpcg::service::SolverService;

// ---- JsonValue -----------------------------------------------------------

TEST(JsonValue, ParsesScalarsAndNesting) {
  const JsonValue v = JsonValue::parse(
      R"({"a": 1.5, "b": [true, null, "x\n"], "c": {"d": -2e3}})");
  ASSERT_EQ(v.kind(), JsonValue::Kind::kObject);
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->as_number(), 1.5);
  const JsonValue* b = v.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->as_array().size(), 3u);
  EXPECT_TRUE(b->as_array()[0].as_bool());
  EXPECT_EQ(b->as_array()[1].kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(b->as_array()[2].as_string(), "x\n");
  const JsonValue* c = v.find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->as_object().front().second.as_number(), -2000.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonValue, RejectsMalformedDocuments) {
  EXPECT_THROW((void)JsonValue::parse(R"({"a": 1} trailing)"),
               std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse(R"({"a": 1, "a": 2})"),
               std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse(R"("unterminated)"),
               std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse(R"({"a": })"), std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse(""), std::invalid_argument);
}

TEST(JsonValue, KindMismatchNamesActualKind) {
  const JsonValue v = JsonValue::parse(R"({"a": 1})");
  try {
    (void)v.find("a")->as_string();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("number"), std::string::npos);
  }
}

// ---- job parsing ---------------------------------------------------------

TEST(JobParsing, ParsesFullJobWithConfigForwarding) {
  const JobSpec job = rpcg::service::parse_job(JsonValue::parse(
      R"({"name": "m2-esr", "matrix": "M2", "scale": 64, "nodes": 16,
          "solver": "resilient-pcg", "precond": "bjacobi",
          "recovery": "esr", "phi": 2, "rtol": 1e-9,
          "failures": [{"iteration": 10, "first": 0, "psi": 2},
                       {"iteration": 20, "nodes": [3, 5]}]})"));
  EXPECT_EQ(job.name, "m2-esr");
  EXPECT_EQ(job.matrix, 2);
  EXPECT_EQ(job.matrix_id(), "M2");
  EXPECT_DOUBLE_EQ(job.scale, 64.0);
  EXPECT_EQ(job.nodes, 16);
  EXPECT_EQ(job.solver, "resilient-pcg");
  EXPECT_EQ(job.config.recovery, rpcg::RecoveryMethod::kEsr);
  EXPECT_EQ(job.config.phi, 2);
  EXPECT_DOUBLE_EQ(job.config.rtol, 1e-9);
  ASSERT_EQ(job.schedule.events().size(), 2u);
  EXPECT_EQ(job.schedule.events()[1].nodes, (std::vector<rpcg::NodeId>{3, 5}));
}

TEST(JobParsing, UnknownKeyListsValidKeys) {
  try {
    (void)rpcg::service::parse_job(JsonValue::parse(R"({"solvr": "pcg"})"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("solvr"), std::string::npos);
    EXPECT_NE(what.find("solver"), std::string::npos);  // the valid-key list
    EXPECT_NE(what.find("rtol"), std::string::npos);
  }
}

TEST(JobParsing, ReportBlockKeysAreNotJobKeys) {
  // Report blocks follow from what a solve ran; no key switches them.
  for (const char* key :
       {"report-cache-stats", "report-checkpoint", "report-scenario"}) {
    EXPECT_THROW((void)rpcg::service::parse_job(JsonValue::parse(
                     std::string("{\"") + key + "\": true}")),
                 std::invalid_argument)
        << key;
  }
}

TEST(JobParsing, FailureEventShapesAreExclusive) {
  EXPECT_THROW((void)rpcg::service::parse_job(JsonValue::parse(
                   R"({"failures": [{"iteration": 3, "psi": 2,
                                     "nodes": [1]}]})")),
               std::invalid_argument);
  EXPECT_THROW((void)rpcg::service::parse_job(
                   JsonValue::parse(R"({"failures": [{"iteration": 3}]})")),
               std::invalid_argument);
}

TEST(JobParsing, ScenarioKeysForwardToTheGeneratorConfig) {
  const JobSpec job = rpcg::service::parse_job(JsonValue::parse(
      R"({"solver": "checkpoint-recovery", "scenario": "cascading",
          "scenario-seed": 7, "scenario-events": 4, "scenario-nodes": 2,
          "scenario-horizon": 20, "scenario-window": 5})"));
  EXPECT_EQ(job.config.scenario.kind, rpcg::ScenarioKind::kCascading);
  EXPECT_EQ(job.config.scenario.seed, 7u);
  EXPECT_EQ(job.config.scenario.events, 4);
  EXPECT_EQ(job.config.scenario.max_nodes_per_event, 2);
  EXPECT_EQ(job.config.scenario.horizon, 20);
  EXPECT_EQ(job.config.scenario.window, 5);
  // The generator expands at solve time; the parsed spec stays data-only.
  EXPECT_TRUE(job.schedule.events().empty());
}

TEST(JobParsing, FailuresAndScenarioAreMutuallyExclusive) {
  try {
    (void)rpcg::service::parse_job(JsonValue::parse(
        R"({"solver": "resilient-pcg", "scenario": "correlated",
            "failures": [{"iteration": 3, "nodes": [1]}]})"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("not both"), std::string::npos);
  }
}

TEST(JobParsing, LineNumbersPrefixStreamErrors) {
  std::istringstream in(R"({"solver": "pcg"}
# comment line

{"matrix": "M9"})");
  try {
    (void)rpcg::service::parse_job_lines(in);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
  }
}

TEST(JobParsing, MissingJobFileThrows) {
  EXPECT_THROW((void)rpcg::service::read_job_file("/nonexistent/jobs.jsonl"),
               std::invalid_argument);
}

// ---- SharedFactorizationCache --------------------------------------------

FactorizationCache::MatrixKey test_key(int seed) {
  FactorizationCache::MatrixKey key;
  key.rows = key.cols = 4;
  key.nnz = 4;
  key.digest = static_cast<std::uint64_t>(seed);
  return key;
}

TEST(SharedCache, HitsMissesAndLruEviction) {
  SharedFactorizationCache cache(1);
  std::atomic<int> builds{0};
  const auto build = [&builds] {
    ++builds;
    return FactorizationCache::Entry{};
  };
  const std::vector<rpcg::NodeId> nodes{1, 2};
  (void)cache.get_or_build("t", test_key(1), "auto", nodes, build);
  (void)cache.get_or_build("t", test_key(1), "auto", nodes, build);
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Capacity 1: the second key evicts the first, so it misses again.
  (void)cache.get_or_build("t", test_key(2), "auto", nodes, build);
  (void)cache.get_or_build("t", test_key(1), "auto", nodes, build);
  EXPECT_EQ(builds.load(), 3);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(SharedCache, KeyIncludesTagOrderingAndSortedNodes) {
  SharedFactorizationCache cache(8);
  std::atomic<int> builds{0};
  const auto build = [&builds] {
    ++builds;
    return FactorizationCache::Entry{};
  };
  const std::vector<rpcg::NodeId> ab{1, 2};
  const std::vector<rpcg::NodeId> ba{2, 1};
  (void)cache.get_or_build("t", test_key(1), "auto", ab, build);
  (void)cache.get_or_build("t", test_key(1), "auto", ba, build);  // sorted: hit
  EXPECT_EQ(builds.load(), 1);
  (void)cache.get_or_build("u", test_key(1), "auto", ab, build);  // other tag
  (void)cache.get_or_build("t", test_key(1), "amd", ab, build);  // other order
  EXPECT_EQ(builds.load(), 3);
}

TEST(SharedCache, FailedBuildIsRetriedNotCached) {
  SharedFactorizationCache cache(8);
  int calls = 0;
  const std::vector<rpcg::NodeId> nodes{0};
  EXPECT_THROW((void)cache.get_or_build("t", test_key(1), "auto", nodes,
                                        [&calls]() -> FactorizationCache::Entry {
                                          ++calls;
                                          throw std::runtime_error("boom");
                                        }),
               std::runtime_error);
  (void)cache.get_or_build("t", test_key(1), "auto", nodes, [&calls] {
    ++calls;
    return FactorizationCache::Entry{};
  });
  EXPECT_EQ(calls, 2);  // the poisoned slot was withdrawn, not served
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(SharedCache, ConcurrentRequestsCoalesceOntoOneBuild) {
  SharedFactorizationCache cache(8);
  std::atomic<int> builds{0};
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  const std::vector<rpcg::NodeId> nodes{0};

  std::thread builder([&] {
    (void)cache.get_or_build("t", test_key(1), "auto", nodes, [&] {
      ++builds;
      gate.wait();  // hold the build open until the waiter has joined it
      return FactorizationCache::Entry{};
    });
  });
  // The builder has claimed the slot once misses hits 1.
  while (cache.stats().misses == 0) std::this_thread::yield();

  std::thread waiter([&] {
    (void)cache.get_or_build("t", test_key(1), "auto", nodes, [&] {
      ++builds;
      return FactorizationCache::Entry{};
    });
  });
  // The waiter joined the in-flight build (counted as a hit) without
  // starting a second factorization.
  while (cache.stats().hits == 0) std::this_thread::yield();
  EXPECT_EQ(builds.load(), 1);

  release.set_value();
  builder.join();
  waiter.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

// ---- ThreadPool::submit --------------------------------------------------

TEST(ThreadPoolSubmit, FuturesCompleteAndCount) {
  rpcg::ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  futures.reserve(16);
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([&count] { ++count; }));
  }
  for (std::future<void>& f : futures) f.get();
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolSubmit, ExceptionPropagatesThroughFuture) {
  rpcg::ThreadPool pool(2);
  std::future<void> f =
      pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

// ---- the service ---------------------------------------------------------

/// A small mixed batch exercising every layer: plain PCG, resilient runs
/// with contiguous and explicit-node failures (two of them identical, so
/// the shared cache has something to share), a pipelined solver, and one
/// job whose inner loops run threaded (proving the private-pool/shared-pool
/// composition cannot deadlock).
std::vector<JobSpec> mixed_batch() {
  std::istringstream in(R"({"name": "plain", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "pcg", "precond": "jacobi"}
{"name": "esr-a", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 2, "failures": [{"iteration": 3, "first": 1, "psi": 2}]}
{"name": "pipe", "matrix": "M2", "scale": 256, "nodes": 8, "solver": "pipelined-resilient-pcg", "recovery": "esr", "phi": 2, "failures": [{"iteration": 5, "nodes": [4, 5]}]}
{"name": "esr-b", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 2, "failures": [{"iteration": 3, "first": 1, "psi": 2}]}
{"name": "threaded", "matrix": "M2", "scale": 256, "nodes": 8, "solver": "pcg", "precond": "bjacobi", "exec": "threaded", "workers": 2}
{"name": "report-stats", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 2, "failures": [{"iteration": 4, "first": 3, "psi": 1}]})");
  return rpcg::service::parse_job_lines(in);
}

/// Scenario-driven batch: every job names a seeded generator instead of an
/// explicit schedule, covering all four new strategy/scenario pairings
/// through the service front end. Two jobs are byte-identical on purpose.
std::vector<JobSpec> scenario_batch() {
  std::istringstream in(R"({"name": "ckpt-a", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "checkpoint-recovery", "checkpoint-interval": 4, "scenario": "during-recovery", "scenario-seed": 5, "scenario-events": 2, "scenario-nodes": 1, "scenario-horizon": 8}
{"name": "ckpt-b", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "checkpoint-recovery", "checkpoint-interval": 4, "scenario": "during-recovery", "scenario-seed": 5, "scenario-events": 2, "scenario-nodes": 1, "scenario-horizon": 8}
{"name": "twin", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "twin-pcg", "scenario": "correlated", "scenario-seed": 9, "scenario-events": 2, "scenario-nodes": 1, "scenario-horizon": 8}
{"name": "esr", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 3, "scenario": "cascading", "scenario-seed": 11, "scenario-events": 2, "scenario-nodes": 1, "scenario-horizon": 8, "scenario-window": 3})");
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

ServiceReport run_batch(const std::vector<JobSpec>& jobs, int workers,
                        rpcg::service::OutputOrder order,
                        bool shared_cache = true,
                        std::vector<std::size_t>* sink_order = nullptr) {
  ServiceOptions opts;
  opts.workers = workers;
  opts.order = order;
  opts.shared_cache = shared_cache;
  SolverService service(opts);
  if (sink_order == nullptr) return service.run(jobs);
  return service.run(jobs, [sink_order](const JobResult& r) {
    sink_order->push_back(r.index);
  });
}

TEST(SolverService, SubmissionOrderReportsAreByteIdenticalAcrossWorkers) {
  const std::vector<JobSpec> jobs = mixed_batch();
  std::vector<std::size_t> ref_order;
  const ServiceReport ref = run_batch(
      jobs, 1, rpcg::service::OutputOrder::kSubmission, true, &ref_order);
  ASSERT_EQ(ref.failed, 0u);
  const std::vector<std::string> ref_reports = normalized_job_reports(ref);
  for (std::size_t i = 0; i < ref_order.size(); ++i) EXPECT_EQ(ref_order[i], i);

  for (const int workers : {2, 8}) {
    std::vector<std::size_t> order;
    const ServiceReport run = run_batch(
        jobs, workers, rpcg::service::OutputOrder::kSubmission, true, &order);
    EXPECT_EQ(run.failed, 0u);
    EXPECT_EQ(run.workers, workers);
    // The sink streamed submission order even though completion raced.
    ASSERT_EQ(order.size(), jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
    EXPECT_EQ(normalized_job_reports(run), ref_reports)
        << "per-job reports diverged at workers=" << workers;
  }
}

TEST(SolverService, CachedRunsMatchUncachedRuns) {
  // mixed_batch's esr-a and esr-b recover the same failed set, so sharing
  // saves a factorization there; scenario_batch's recoveries are distinct.
  const struct {
    std::vector<JobSpec> jobs;
    bool shares_factorizations;
  } batches[] = {{mixed_batch(), true}, {scenario_batch(), false}};
  for (const auto& [jobs, shares_factorizations] : batches) {
    const ServiceReport cached =
        run_batch(jobs, 4, rpcg::service::OutputOrder::kSubmission, true);
    const ServiceReport uncached =
        run_batch(jobs, 4, rpcg::service::OutputOrder::kSubmission, false);
    ASSERT_EQ(cached.failed, 0u);
    // Sharing set-ups and factorizations changes who builds them, never
    // what any job computes.
    EXPECT_EQ(normalized_job_reports(cached),
              normalized_job_reports(uncached));
    EXPECT_LT(cached.problem_setups, uncached.problem_setups);
    if (shares_factorizations) {
      EXPECT_LT(cached.total_factorizations, uncached.total_factorizations);
    } else {
      EXPECT_EQ(cached.total_factorizations, uncached.total_factorizations);
    }
  }
}

TEST(SolverService, SetupsAreBuiltOncePerKeyWhenShared) {
  // mixed_batch names three set-ups: M1/jacobi, M1/bjacobi and M2/bjacobi,
  // all at scale 256 on 8 nodes.
  const std::vector<JobSpec> jobs = mixed_batch();
  for (const int workers : {1, 4}) {
    const ServiceReport shared =
        run_batch(jobs, workers, rpcg::service::OutputOrder::kSubmission, true);
    EXPECT_EQ(shared.problem_setups, 3u) << "workers=" << workers;
    const ServiceReport unshared = run_batch(
        jobs, workers, rpcg::service::OutputOrder::kSubmission, false);
    EXPECT_EQ(unshared.problem_setups, jobs.size()) << "workers=" << workers;
  }

  // Without sharing every attempt builds its own set-up; with it, retried
  // attempts reuse the job's set-up.
  ServiceOptions opts;
  opts.workers = 2;
  opts.retry.max_attempts = 4;
  opts.fault_injection.enabled = true;
  // The first factorization lookup of every first attempt fails, after its
  // set-up was built: the four recovering jobs retry once.
  opts.fault_injection.cache_fail_first_attempts = 1;
  opts.shared_cache = false;
  const ServiceReport retried = SolverService(opts).run(jobs);
  ASSERT_EQ(retried.failed, 0u);
  ASSERT_EQ(retried.retries, 4u);
  EXPECT_EQ(retried.problem_setups, jobs.size() + retried.retries);
  opts.shared_cache = true;
  EXPECT_EQ(SolverService(opts).run(jobs).problem_setups, 3u);
}

TEST(SolverService, UnknownPreconditionerFailsOnlyTheJobsNamingIt) {
  std::vector<JobSpec> jobs = mixed_batch();
  JobSpec bad = jobs[1];
  bad.precond = "no-such-precond";
  bad.name = "bad-a";
  jobs.insert(jobs.begin() + 1, bad);
  bad.name = "bad-b";
  jobs.push_back(bad);
  // A later job on the same matrix, scale and nodes with a valid key.
  JobSpec good = jobs[0];
  good.name = "after-bad";
  jobs.push_back(good);

  for (const bool shared : {true, false}) {
    for (const int workers : {1, 4}) {
      ServiceOptions opts;
      opts.workers = workers;
      opts.shared_cache = shared;
      opts.retry.max_attempts = 3;
      const ServiceReport run = SolverService(opts).run(jobs);
      EXPECT_EQ(run.failed, 2u);
      for (const JobResult& job : run.jobs) {
        if (job.precond != "no-such-precond") {
          EXPECT_TRUE(job.ok()) << job.name << ": " << job.error;
          continue;
        }
        // The original invalid_argument surfaces, not a retryable wrapped
        // build failure, so the policy's spare attempts stay unused.
        EXPECT_EQ(job.error_class, rpcg::ErrorClass::kInvalidJob) << job.name;
        EXPECT_NE(job.error.find("no-such-precond"), std::string::npos);
        EXPECT_EQ(job.attempts.size(), 1u);
      }
    }
  }
}

// ---- shared problem set-ups ----------------------------------------------

JobSpec setup_job(int matrix, const char* precond) {
  JobSpec spec;
  spec.matrix = matrix;
  spec.scale = 256;
  spec.nodes = 8;
  spec.precond = precond;
  return spec;
}

TEST(ProblemSetupCache, NoSetupOutlivesItsKeysLastJob) {
  const std::vector<JobSpec> jobs{setup_job(1, "bjacobi"),
                                  setup_job(2, "bjacobi"),
                                  setup_job(1, "bjacobi")};
  ProblemSetupCache cache(jobs, true);

  std::weak_ptr<const ProblemSetup> m1;
  std::weak_ptr<const ProblemSetup> m2;
  {
    const auto first = cache.acquire(jobs[0]);
    const auto other = cache.acquire(jobs[1]);
    m1 = first;
    m2 = other;
    EXPECT_EQ(cache.acquire(jobs[2]), first);  // same key, same set-up
    EXPECT_EQ(cache.builds(), 2u);
  }
  cache.release(jobs[0]);
  EXPECT_FALSE(m1.expired());  // jobs[2] still names M1
  cache.release(jobs[1]);
  EXPECT_TRUE(m2.expired());  // M2's only job finished
  EXPECT_EQ(cache.resident(), 1u);

  // An attempt still running keeps its set-up alive past the release, and
  // no longer.
  {
    const auto running = cache.acquire(jobs[2]);
    cache.release(jobs[2]);
    EXPECT_EQ(cache.resident(), 0u);
    EXPECT_FALSE(m1.expired());
  }
  EXPECT_TRUE(m1.expired());
  EXPECT_EQ(cache.builds(), 2u);
}

TEST(ProblemSetupCache, UnsharedBuildsOnePerAcquire) {
  const std::vector<JobSpec> jobs{setup_job(1, "jacobi"),
                                  setup_job(1, "jacobi")};
  ProblemSetupCache cache(jobs, false);
  std::weak_ptr<const ProblemSetup> first = cache.acquire(jobs[0]);
  EXPECT_TRUE(first.expired());  // nothing but the attempt holds it
  const auto a = cache.acquire(jobs[0]);
  const auto b = cache.acquire(jobs[1]);
  EXPECT_NE(a, b);
  EXPECT_EQ(cache.builds(), 3u);
  EXPECT_EQ(cache.resident(), 0u);
}

TEST(ProblemSetupCache, FailedBuildRethrowsTheOriginalAndIsRetried) {
  const std::vector<JobSpec> jobs{setup_job(1, "no-such-precond"),
                                  setup_job(1, "no-such-precond")};
  ProblemSetupCache cache(jobs, true);
  for (const JobSpec& spec : jobs) {
    try {
      (void)cache.acquire(spec);
      FAIL() << "an unknown preconditioner must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("no-such-precond"),
                std::string::npos);
    }
  }
  EXPECT_EQ(cache.builds(), 0u);
  EXPECT_EQ(cache.resident(), 0u);  // the failed slot was withdrawn
}

TEST(SolverService, CompletionOrderStreamsEveryJobOnce) {
  const std::vector<JobSpec> jobs = mixed_batch();
  std::vector<std::size_t> order;
  const ServiceReport run = run_batch(
      jobs, 8, rpcg::service::OutputOrder::kCompletion, true, &order);
  EXPECT_EQ(run.failed, 0u);
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::size_t> expected(jobs.size());
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i;
  EXPECT_EQ(sorted, expected);
  // The summary's jobs array is submission-ordered regardless.
  for (std::size_t i = 0; i < run.jobs.size(); ++i)
    EXPECT_EQ(run.jobs[i].index, i);
}

TEST(SolverService, FailedJobDoesNotAbortBatchAndReportParses) {
  std::vector<JobSpec> jobs = mixed_batch();
  jobs[2].solver = "no-such-solver";
  const ServiceReport run =
      run_batch(jobs, 4, rpcg::service::OutputOrder::kSubmission);
  EXPECT_EQ(run.failed, 1u);
  EXPECT_FALSE(run.jobs[2].ok());
  EXPECT_NE(run.jobs[2].error.find("no-such-solver"), std::string::npos);
  for (const std::size_t i : {0u, 1u, 3u, 4u, 5u}) {
    EXPECT_TRUE(run.jobs[i].ok()) << "job " << i;
  }

  // The emitted service report is valid JSON (parsed by our own parser) and
  // carries the failure through the summary.
  const JsonValue parsed = JsonValue::parse(run.to_json());
  EXPECT_EQ(parsed.find("schema")->as_string(), "rpcg-service-report/v2");
  const JsonValue* summary = parsed.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_DOUBLE_EQ(summary->find("failed")->as_number(), 1.0);
  EXPECT_EQ(parsed.find("jobs")->as_array().size(), jobs.size());
}

TEST(SolverService, DefaultJobNamesUseSubmissionIndex) {
  std::vector<JobSpec> jobs = mixed_batch();
  jobs[0].name.clear();
  const ServiceReport run =
      run_batch(jobs, 1, rpcg::service::OutputOrder::kSubmission);
  EXPECT_EQ(run.jobs[0].name, "job-0");
}

TEST(SolverService, ScenarioJobsRunDeterministicallyAcrossWorkers) {
  const std::vector<JobSpec> jobs = scenario_batch();
  const ServiceReport ref =
      run_batch(jobs, 1, rpcg::service::OutputOrder::kSubmission);
  ASSERT_EQ(ref.failed, 0u);
  for (const JobResult& job : ref.jobs) {
    EXPECT_TRUE(job.report.converged) << job.name;
  }
  // Identical jobs produce identical solves: only the name differs.
  {
    rpcg::engine::SolveReport a = ref.jobs[0].report;
    rpcg::engine::SolveReport b = ref.jobs[1].report;
    a.wall_seconds = b.wall_seconds = 0.0;
    EXPECT_EQ(a.to_json(), b.to_json());
  }
  // Every generated schedule is described by a scenario block.
  EXPECT_NE(ref.jobs[0].report.to_json().find("\"kind\": \"during-recovery\""),
            std::string::npos);
  EXPECT_NE(ref.jobs[3].report.to_json().find("\"kind\": \"cascading\""),
            std::string::npos);

  const std::vector<std::string> ref_reports = normalized_job_reports(ref);
  for (const int workers : {2, 8}) {
    const ServiceReport run =
        run_batch(jobs, workers, rpcg::service::OutputOrder::kSubmission);
    EXPECT_EQ(run.failed, 0u);
    EXPECT_EQ(normalized_job_reports(run), ref_reports)
        << "scenario reports diverged at workers=" << workers;
  }
}

TEST(SolverService, MaxInFlightOneStillCompletes) {
  const std::vector<JobSpec> jobs = mixed_batch();
  ServiceOptions opts;
  opts.workers = 4;
  opts.max_in_flight = 1;
  const ServiceReport run = SolverService(opts).run(jobs);
  EXPECT_EQ(run.failed, 0u);
  EXPECT_EQ(run.jobs.size(), jobs.size());
}

}  // namespace
