#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <cmath>
#include <functional>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "engine/problem.hpp"
#include "engine/registry.hpp"
#include "engine/solver.hpp"
#include "probes.hpp"
#include "repro/matrices.hpp"
#include "service/job.hpp"
#include "service/solver_service.hpp"
#include "util/rng.hpp"

namespace perfbench {

using rpcg::DistVector;
using rpcg::FailureEvent;
using rpcg::FailureSchedule;
using rpcg::NodeId;
using rpcg::Phase;
using rpcg::engine::Problem;
using rpcg::engine::ProblemBuilder;
using rpcg::engine::SolveReport;
using rpcg::engine::SolverConfig;
using rpcg::service::JobResult;
using rpcg::service::JobSpec;
using rpcg::service::JsonValue;
using rpcg::service::ServiceOptions;
using rpcg::service::ServiceReport;
using rpcg::service::SolverService;

void RunResult::miss(const std::string& why) {
  ++failed;
  if (failures.size() < 20) failures.push_back(why);
}

namespace {

constexpr double kRtol = 1e-8;
/// Seeded log-normal jitter on the simulated clock (the reproduction
/// harness's default): sim-time figures stay exact for a seed but differ
/// between seeds, while the host work does not change.
constexpr double kSimNoiseCv = 0.02;
/// True relative residual every converged solve must reach: the paper's
/// 1e-8 termination criterion with room for the residual deviation an
/// exact reconstruction leaves (Table 3 of the paper).
constexpr double kResidualBound = 1e-6;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double phase_s(const SolveReport& r, Phase phase) {
  return r.sim_time_phase[static_cast<std::size_t>(phase)];
}

/// ||b - A x|| / ||b|| on the host, from the global matrix.
double true_rel_residual(const Problem& problem, const DistVector& x) {
  const std::vector<double> xg = x.gather_global();
  const std::vector<double> b = problem.rhs().gather_global();
  std::vector<double> ax(b.size());
  problem.matrix_global().spmv(xg, ax);
  double rr = 0.0;
  double bb = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    rr += (b[i] - ax[i]) * (b[i] - ax[i]);
    bb += b[i] * b[i];
  }
  return std::sqrt(rr / bb);
}

/// The same quantity from a report alone (service jobs return no x): the
/// solvers start from x = 0, so ||b|| = solver residual / relative residual.
double report_true_rel_residual(const SolveReport& r) {
  if (r.solver_residual_norm <= 0.0) return r.true_residual_norm;
  return r.true_residual_norm * r.rel_residual / r.solver_residual_norm;
}

/// Name of the first value of `want` that `got` does not repeat exactly.
std::string first_mismatch(const Metrics& want, const Metrics& got) {
  for (const auto& [name, m] : want.items()) {
    const Metric* g = got.find(name);
    if (g == nullptr || g->value != m.value) {
      return name + " = " + (g ? exact(g->value) : "missing") + ", expected " +
             exact(m.value);
    }
  }
  return {};
}

Metrics from_json(const JsonValue& v) {
  Metrics out;
  for (const auto& [name, value] : v.as_object())
    out.set(name, value.as_number(), "");
  return out;
}

/// Checks each repetition's deterministic values against the recorded ones
/// for this seed, or, when none are recorded, against the first repetition.
class DeterminismCheck {
 public:
  explicit DeterminismCheck(const JsonValue* expected) {
    if (expected != nullptr) {
      want_ = from_json(*expected);
      have_ = true;
      golden_ = true;
    }
  }
  /// Empty when `got` matches.
  std::string check(const Metrics& got) {
    if (!have_) {
      want_ = got;
      have_ = true;
      return {};
    }
    return first_mismatch(want_, got);
  }
  [[nodiscard]] bool golden() const { return golden_; }

 private:
  Metrics want_;
  bool have_ = false;
  bool golden_ = false;
};

/// Wall-clock record of one solve, taken through the SolverEvents hooks.
struct HookTimes {
  std::vector<double> iteration_gaps_s;  ///< iterations without a recovery
  double recovery_s = 0.0;               ///< failure-injected to recovered
  double last_s = 0.0;                   ///< end of the previous iteration
  double fail_s = 0.0;
  bool recovered = false;  ///< a recovery ran since the last iteration
};

/// Installs hooks that time iterations and recoveries into `times` and
/// record them as spans. `times` must outlive every solve with `config`.
void install_hooks(SolverConfig& config, Tracer& tracer, HookTimes& times) {
  config.events.on_iteration = [&](const rpcg::IterationSnapshot&) {
    const double t = now_s();
    tracer.span("solver.iteration", "solver", times.last_s, t);
    if (!times.recovered) times.iteration_gaps_s.push_back(t - times.last_s);
    times.recovered = false;
    times.last_s = t;
  };
  config.events.on_failure_injected = [&](const FailureEvent&) {
    times.fail_s = now_s();
  };
  config.events.on_recovery_complete = [&](const rpcg::RecoveryRecord&) {
    const double t = now_s();
    tracer.span("core.recovery", "core", times.fail_s, t);
    times.recovery_s += t - times.fail_s;
    times.recovered = true;
  };
}

// ---- solve workloads ------------------------------------------------------

struct Wave {
  double progress;  ///< fraction of the reference solve's iterations
  NodeId first;
  int psi;
};

struct SolveWorkload {
  int matrix;
  double scale;
  int nodes;
  int phi;
  bool exact_local_solve;
  std::vector<Wave> waves;
  int setup_reps;
  int factor_reps;  ///< ReorderedLdlt::factor repetitions of the probe
};

SolveWorkload solve_workload(const std::string& name) {
  if (name == "iter-m1") return {1, 8.0, 64, 3, false, {{0.5, 32, 3}}, 7, 3};
  // Scale 24 (10,824 rows): at scale 16 the larger lost-block
  // factorizations swung 30% with the machine's memory contention.
  return {2, 24.0, 64, 8, true,
          {{0.25, 32, 8}, {0.5, 48, 8}, {0.75, 0, 8}}, 7, 3};
}

/// Seeded right-hand side with independent entries in [-1, 1): every seed
/// excites the whole spectrum alike, so iteration counts, and with them the
/// work of a solve, hardly change between seeds.
std::vector<double> random_rhs(rpcg::Index n, std::uint64_t seed) {
  rpcg::Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

/// Matrix generation + ProblemBuilder::build. Returned as a prvalue: the
/// preconditioner points into the Problem, so it must never be moved.
Problem build_problem(const SolveWorkload& w, std::uint64_t seed) {
  rpcg::CsrMatrix a = rpcg::repro::make_matrix(w.matrix, w.scale).matrix;
  std::vector<double> b = random_rhs(a.rows(), seed);
  return ProblemBuilder()
      .matrix(std::move(a))
      .nodes(w.nodes)
      .preconditioner("bjacobi")
      .rhs(std::move(b))
      .build();
}

SolverConfig base_config() {
  SolverConfig c;
  c.rtol = kRtol;
  return c;
}

SolverConfig resilient_config(const SolveWorkload& w) {
  SolverConfig c = base_config();
  c.recovery = rpcg::RecoveryMethod::kEsr;
  c.phi = w.phi;
  c.esr.exact_local_solve = w.exact_local_solve;
  return c;
}

FailureSchedule waves_schedule(const SolveWorkload& w, int ref_iterations) {
  FailureSchedule s;
  for (const Wave& wave : w.waves) {
    FailureEvent e;
    e.iteration = std::max(1, static_cast<int>(wave.progress * ref_iterations));
    for (int k = 0; k < wave.psi; ++k) e.nodes.push_back(wave.first + k);
    s.add(std::move(e));
  }
  return s;
}

struct Solved {
  SolveReport report;
  double wall_s = 0.0;
  double true_rel_residual = 0.0;
  std::uint64_t factorizations = 0;  ///< factorization-cache misses
};

/// One cold solve: the problem's factorization cache is emptied first, so
/// every solve pays its own reconstruction setups. `hooks` is the record the
/// config's hooks write to, if any.
Solved solve(Problem& problem, const SolverConfig& config,
             const FailureSchedule& schedule, Tracer& tracer,
             HookTimes* hooks = nullptr) {
  problem.factorization_cache().clear();
  const std::uint64_t misses0 = problem.factorization_cache().stats().misses;
  const auto solver =
      rpcg::engine::SolverRegistry::instance().create("resilient-pcg", config);
  DistVector x = problem.make_x();
  Solved out;
  const double t0 = now_s();
  if (hooks != nullptr) {
    hooks->recovery_s = 0.0;
    hooks->last_s = t0;
    hooks->recovered = false;
  }
  out.report = solver->solve(problem, x, schedule);
  out.wall_s = now_s() - t0;
  tracer.span("solver.solve", "solver", t0, t0 + out.wall_s);
  out.true_rel_residual = true_rel_residual(problem, x);
  out.factorizations = problem.factorization_cache().stats().misses - misses0;
  return out;
}

/// Checks a solve's convergence and residual; true when it passed.
bool check_converged(const std::string& what, const SolveReport& r,
                     double true_rel, RunResult& result) {
  if (!r.converged) {
    result.miss(what + ": did not converge");
    return false;
  }
  if (!(true_rel <= kResidualBound)) {
    result.miss(what + ": true relative residual " + exact(true_rel) +
                " above " + exact(kResidualBound));
    return false;
  }
  return true;
}

Metrics solve_deterministic(const Solved& s, const SolveReport& ref,
                            std::size_t waves) {
  const SolveReport& r = s.report;
  Metrics d;
  d.set("sim_time_s", r.sim_time, "s");
  d.set("sim_overhead_pct", 100.0 * (r.sim_time - ref.sim_time) / ref.sim_time,
        "%");
  d.set("iterations", r.iterations, "count");
  d.set("sim.phase.iteration_s", phase_s(r, Phase::kIteration), "s");
  d.set("sim.phase.redundancy_s", phase_s(r, Phase::kRedundancy), "s");
  d.set("sim.phase.recovery_s", phase_s(r, Phase::kRecovery), "s");
  d.set("reference_iterations", ref.iterations, "count");
  d.set("reference_sim_time_s", ref.sim_time, "s");
  double gathered = 0.0;
  for (const auto& rec : r.recoveries)
    gathered += static_cast<double>(rec.stats.gathered_elements);
  d.set("recoveries", static_cast<double>(r.recoveries.size()), "count");
  d.set("expected_recoveries", static_cast<double>(waves), "count");
  d.set("core.recovery.gathered_elements", gathered, "count");
  d.set("core.factorization_cache.misses",
        static_cast<double>(s.factorizations), "count");
  return d;
}

/// The workload's resilient solve as a service job: same matrix, solver
/// configuration and failure schedule; a job file names its right-hand
/// side by strategy, so the job uses random-smooth:<seed>.
JobSpec as_job(const SolveWorkload& w, std::uint64_t seed,
               const FailureSchedule& schedule) {
  JobSpec job;
  job.matrix = w.matrix;
  job.scale = w.scale;
  job.nodes = w.nodes;
  job.solver = "resilient-pcg";
  job.rhs = "random-smooth:" + std::to_string(seed);
  job.noise_cv = kSimNoiseCv;
  job.noise_seed = seed;
  job.config = resilient_config(w);
  job.schedule = schedule;
  return job;
}

/// Sets a job shape's right-hand side on a builder for its matrix.
using RhsSetter = std::function<void(ProblemBuilder&, const rpcg::CsrMatrix&)>;

void probe_setup_layers(int matrix, double scale, int nodes,
                        const RhsSetter& rhs, int reps, Tracer& tracer,
                        double weight, double& make_s, double& build_s,
                        double& precond_s);

void probe_service(std::span<const JobSpec> jobs, const ServiceOptions& opts,
                   Tracer& tracer, Metrics& out);

RunResult run_solve_workload(const std::string& name, const RunOptions& opt,
                             Tracer& tracer) {
  const SolveWorkload w = solve_workload(name);
  RunResult result;

  // Set-up: matrix generation + ProblemBuilder::build, repeated; the last
  // one is kept.
  std::vector<double> setup_s;
  for (int rep = 1; rep < w.setup_reps; ++rep) {
    const double t0 = now_s();
    { const Problem discard = build_problem(w, opt.seed); }
    setup_s.push_back(now_s() - t0);
    tracer.span("setup", "engine", t0, t0 + setup_s.back());
  }
  const double setup_t0 = now_s();
  Problem problem = build_problem(w, opt.seed);
  setup_s.push_back(now_s() - setup_t0);
  tracer.span("setup", "engine", setup_t0, setup_t0 + setup_s.back());
  problem.set_noise(kSimNoiseCv, opt.seed);

  // The phi = 0 reference places the failures and is the overhead's base.
  const Solved ref = solve(problem, base_config(), {}, tracer);
  ++result.attempted;
  check_converged("reference solve", ref.report, ref.true_rel_residual,
                  result);
  const FailureSchedule schedule =
      waves_schedule(w, std::max(ref.report.iterations, 2));

  SolverConfig config = resilient_config(w);
  HookTimes hooks;
  if (opt.trace) install_hooks(config, tracer, hooks);

  DeterminismCheck determinism(opt.expected);
  std::vector<double> walls;
  std::vector<double> recovery_walls;
  Solved last;
  const double loop_t0 = now_s();
  do {
    last = solve(problem, config, schedule, tracer, &hooks);
    ++result.attempted;
    walls.push_back(last.wall_s);
    recovery_walls.push_back(hooks.recovery_s);
    const Metrics d = solve_deterministic(last, ref.report, w.waves.size());
    if (result.deterministic.items().empty()) result.deterministic = d;
    if (!check_converged("resilient solve", last.report,
                         last.true_rel_residual, result)) {
      continue;
    }
    if (d.at("recoveries") != d.at("expected_recoveries")) {
      result.miss("resilient solve: " + exact(d.at("recoveries")) +
                  " recoveries for " + exact(d.at("expected_recoveries")) +
                  " waves");
    } else if (const std::string m = determinism.check(d); !m.empty()) {
      result.miss("deterministic value changed: " + m);
    }
  } while (now_s() - loop_t0 < opt.seconds);
  const double loop_s = now_s() - loop_t0;
  result.walls_s = walls;
  result.golden = determinism.golden() && result.failed == 0;

  Metrics& e = result.end_to_end;
  e.set("solve_wall_s", median(walls), "s");
  e.set("setup_s", median(setup_s), "s");
  for (const char* key : {"sim_time_s", "sim_overhead_pct", "iterations"}) {
    const Metric* m = result.deterministic.find(key);
    e.set(key, m->value, m->unit);
  }
  e.set("jobs_per_s", static_cast<double>(walls.size()) / loop_s, "1/s");
  e.set("job_latency_p50_s", quantile(walls, 0.5), "s");
  e.set("job_latency_p90_s", quantile(walls, 0.9), "s");
  // Taken before the traced run's probes, which hold more memory.
  e.set("peak_rss_mb", peak_rss_mb(), "MB");

  if (opt.trace) {
    Metrics& l = result.per_layer;
    double make_s = 0.0;
    double build_s = 0.0;
    double precond_s = 0.0;
    const RhsSetter rhs = [&](ProblemBuilder& b, const rpcg::CsrMatrix& a) {
      b.rhs(random_rhs(a.rows(), opt.seed));
    };
    probe_setup_layers(w.matrix, w.scale, w.nodes, rhs, 3, tracer, 1.0,
                       make_s, build_s, precond_s);
    l.set("repro.make_matrix_s", make_s, "s");
    l.set("engine.problem_build_s", build_s, "s");
    l.set("precond.setup_s", precond_s, "s");

    std::vector<std::vector<NodeId>> wave_nodes;
    for (const Wave& wave : w.waves) {
      wave_nodes.emplace_back();
      for (int k = 0; k < wave.psi; ++k)
        wave_nodes.back().push_back(wave.first + k);
    }
    probe_iteration_kernels(problem, w.phi, wave_nodes.front(), tracer, l);
    probe_local_factorization(problem, wave_nodes, w.factor_reps, tracer, l);
    l.set("solver.iteration_wall_ms", median(hooks.iteration_gaps_s) * 1e3,
          "ms");
    l.set("core.recovery_wall_s", median(recovery_walls), "s");
    for (const char* key :
         {"core.recovery.gathered_elements", "core.factorization_cache.misses",
          "sim.phase.iteration_s", "sim.phase.redundancy_s",
          "sim.phase.recovery_s"}) {
      const Metric* m = result.deterministic.find(key);
      l.set(key, m->value, m->unit);
    }

    // The service layer, serving this workload's solve: one copy per
    // worker (2 to 4, to bound memory), so the copies share their
    // factorizations.
    ServiceOptions sopt;
    sopt.order = rpcg::service::OutputOrder::kCompletion;
    const std::vector<JobSpec> copies(
        std::clamp(std::thread::hardware_concurrency(), 2u, 4u),
        as_job(w, opt.seed, schedule));
    probe_service(copies, sopt, tracer, l);

    // Layer shares of the resilient solve's wall time.
    const double wall = e.at("solve_wall_s");
    const double iters = e.at("iterations");
    const double kernels_ms = l.at("sim.spmv_ms") + l.at("precond.apply_ms") +
                              l.at("sim.blas1_ms") + l.at("sim.reduction_ms") +
                              l.at("core.backup_record_ms");
    result.shares.set("iteration_kernels_of_solve_wall",
                      iters * kernels_ms * 1e-3 / wall, "ratio");
    result.shares.set("iteration_loop_of_solve_wall",
                      iters * l.at("solver.iteration_wall_ms") * 1e-3 / wall,
                      "ratio");
    result.shares.set("recovery_of_solve_wall",
                      l.at("core.recovery_wall_s") / wall, "ratio");
    if (w.exact_local_solve) {
      result.shares.set("ldlt_factor_of_solve_wall",
                        l.at("core.factorization_cache.misses") *
                            l.at("sparse.ldlt_factor_s") / wall,
                        "ratio");
    }
  }
  return result;
}

// ---- layer probes shared by the workloads ---------------------------------

/// Times repro::make_matrix, ProblemBuilder::build with preconditioner
/// "none" and PreconditionerRegistry::create("bjacobi") for one job shape
/// (medians over `reps`) and adds them, times `weight`, to the sums.
void probe_setup_layers(int matrix, double scale, int nodes,
                        const RhsSetter& rhs, int reps, Tracer& tracer,
                        double weight, double& make_s, double& build_s,
                        double& precond_s) {
  std::vector<double> make;
  std::vector<double> build;
  std::vector<double> precond;
  for (int rep = 0; rep < reps; ++rep) {
    double t0 = now_s();
    const rpcg::repro::ReproMatrix mat =
        rpcg::repro::make_matrix(matrix, scale);
    double t1 = now_s();
    tracer.span("repro.make_matrix", "repro", t0, t1);
    make.push_back(t1 - t0);
    t0 = now_s();
    ProblemBuilder builder;
    builder.borrow_matrix(mat.matrix).nodes(nodes).preconditioner("none");
    rhs(builder, mat.matrix);
    const Problem p = builder.build();
    t1 = now_s();
    tracer.span("engine.problem_build", "engine", t0, t1);
    build.push_back(t1 - t0);
    t0 = now_s();
    const auto m = rpcg::engine::PreconditionerRegistry::instance().create(
        "bjacobi", mat.matrix, p.partition());
    t1 = now_s();
    tracer.span("precond.setup", "precond", t0, t1);
    precond.push_back(t1 - t0);
  }
  make_s += weight * median(make);
  build_s += weight * median(build);
  precond_s += weight * median(precond);
}

/// One batch served through SolverService, timed by its sink.
struct Served {
  ServiceReport report;
  double wall_s = 0.0;
  std::vector<double> latency_s;     ///< submit to sink delivery, per job
  std::vector<double> queue_wait_s;  ///< latency minus the job's run time
};

/// Serves `jobs` once with a timestamping sink. Jobs get trace lanes
/// 100 + index.
Served serve(SolverService& service, std::span<const JobSpec> jobs,
             Tracer& tracer) {
  Served out;
  std::mutex mu;
  const double t0 = now_s();
  out.report = service.run(jobs, [&](const JobResult& job) {
    const double t = now_s();
    const std::lock_guard<std::mutex> lock(mu);
    out.latency_s.push_back(t - t0);
    out.queue_wait_s.push_back(std::max(0.0, t - t0 - job.wall_seconds));
    const int lane = 100 + static_cast<int>(job.index);
    tracer.span("service.job", "service", t0, t, lane);
    tracer.span("service.run", "service", t - job.wall_seconds, t, lane);
  });
  out.wall_s = now_s() - t0;
  tracer.span("service.batch", "service", t0, t0 + out.wall_s);
  return out;
}

void service_layer_metrics(const std::vector<Served>& batches, Metrics& out) {
  std::vector<double> waits;
  std::vector<double> runs;
  double hits = 0.0;
  double lookups = 0.0;
  double factorizations = 0.0;
  double attempts = 0.0;
  double jobs = 0.0;
  for (const Served& b : batches) {
    waits.insert(waits.end(), b.queue_wait_s.begin(), b.queue_wait_s.end());
    for (const JobResult& j : b.report.jobs) runs.push_back(j.wall_seconds);
    const auto& s = b.report.shared_stats;
    hits += static_cast<double>(s.hits);
    lookups += static_cast<double>(s.hits + s.misses);
    factorizations += static_cast<double>(b.report.total_factorizations);
    jobs += static_cast<double>(b.report.jobs.size());
    attempts += static_cast<double>(b.report.jobs.size() + b.report.retries);
  }
  const double n = static_cast<double>(batches.size());
  out.set("service.queue_wait_p50_s", median(waits), "s");
  out.set("service.job_run_p50_s", median(runs), "s");
  out.set("service.shared_cache.hit_ratio",
          lookups > 0.0 ? hits / lookups : 0.0, "ratio");
  out.set("service.factorizations", factorizations / n, "count");
  out.set("service.attempts_per_job", attempts / jobs, "ratio");
}

/// Serves `jobs` once and adds the service.* metrics to `out`.
void probe_service(std::span<const JobSpec> jobs, const ServiceOptions& opts,
                   Tracer& tracer, Metrics& out) {
  SolverService service(opts);
  std::vector<Served> batches;
  batches.push_back(serve(service, jobs, tracer));
  service_layer_metrics(batches, out);
}

// ---- service workload -----------------------------------------------------

constexpr double kServiceScale = 32.0;
constexpr int kServiceNodes = 16;
constexpr int kServiceCopies = 9;
/// The tolerance of bench/service_throughput: short solves, so that problem
/// set-up dominates a job's time.
constexpr double kServiceRtol = 1e-6;
constexpr int kServiceMatrices[] = {1, 2, 4};
constexpr const char* kServiceSolvers[] = {
    "resilient-pcg", "pipelined-resilient-pcg", "checkpoint-recovery",
    "twin-pcg"};

/// The batch as a job file: one phi = 0 reference job per matrix, then
/// kServiceCopies rounds of every (solver, matrix) pair under a correlated
/// failure scenario, all with b = A * 1. The composition and order are
/// fixed, so every seed asks for the same amount of work; the seed draws the
/// scenarios, the injected faults and the sim-clock jitter.
std::string make_job_lines(std::uint64_t seed) {
  rpcg::Rng rng(seed);
  std::ostringstream out;
  auto common = [&](const std::string& name, int matrix,
                    const std::string& solver) {
    out << "{\"name\": \"" << name << "\", \"matrix\": \"M" << matrix
        << "\", \"scale\": " << kServiceScale
        << ", \"nodes\": " << kServiceNodes << ", \"rtol\": " << kServiceRtol
        << ", \"rhs\": \"ones\", \"noise\": "
        << kSimNoiseCv << ", \"noise-seed\": " << seed << ", \"solver\": \""
        << solver << "\"";
  };
  for (const int m : kServiceMatrices) {
    common("ref-M" + std::to_string(m), m, "resilient-pcg");
    out << "}\n";
  }
  for (int copy = 0; copy < kServiceCopies; ++copy) {
    for (const std::string solver : kServiceSolvers) {
      for (const int m : kServiceMatrices) {
        common(solver + "-M" + std::to_string(m) + "-" + std::to_string(copy),
               m, solver);
        if (solver == "resilient-pcg" || solver == "pipelined-resilient-pcg")
          out << ", \"recovery\": \"esr\", \"phi\": 3";
        if (solver == "checkpoint-recovery")
          out << ", \"checkpoint-interval\": 10";
        out << ", \"scenario\": \"correlated\", \"scenario-seed\": "
            << rng.uniform_index(1u << 30) << ", \"scenario-events\": 2"
            << ", \"scenario-nodes\": " << 1 + copy % 3
            << ", \"scenario-horizon\": 20}\n";
      }
    }
  }
  return out.str();
}

ServiceOptions service_options(std::uint64_t seed) {
  ServiceOptions opts;  // workers = 0: one per hardware thread
  opts.order = rpcg::service::OutputOrder::kCompletion;
  opts.retry.max_attempts = 4;
  opts.fault_injection.enabled = true;
  opts.fault_injection.seed = seed;
  opts.fault_injection.worker_fault_rate = 0.05;
  return opts;
}

Metrics batch_deterministic(const ServiceReport& report) {
  double sim = 0.0;
  double iterations = 0.0;
  double gathered = 0.0;
  std::array<double, rpcg::kNumPhases> phases{};
  std::map<std::string, double> reference;  // matrix id -> reference sim time
  for (const JobResult& j : report.jobs) {
    if (j.name.rfind("ref-", 0) == 0) reference[j.matrix_id] = j.report.sim_time;
  }
  double overhead_sum = 0.0;
  double resilient = 0.0;
  for (const JobResult& j : report.jobs) {
    sim += j.report.sim_time;
    iterations += j.report.iterations;
    for (std::size_t p = 0; p < phases.size(); ++p)
      phases[p] += j.report.sim_time_phase[p];
    for (const auto& rec : j.report.recoveries)
      gathered += static_cast<double>(rec.stats.gathered_elements);
    if (j.name.rfind("ref-", 0) != 0 && reference.count(j.matrix_id) != 0) {
      overhead_sum += j.report.sim_time / reference[j.matrix_id] - 1.0;
      resilient += 1.0;
    }
  }
  Metrics d;
  d.set("sim_time_s", sim, "s");
  d.set("sim_overhead_pct", resilient > 0 ? 100.0 * overhead_sum / resilient : 0,
        "%");
  d.set("iterations", iterations, "count");
  d.set("sim.phase.iteration_s", phases[0], "s");
  d.set("sim.phase.redundancy_s", phases[1], "s");
  d.set("sim.phase.recovery_s", phases[3], "s");
  d.set("core.recovery.gathered_elements", gathered, "count");
  d.set("service.factorizations",
        static_cast<double>(report.total_factorizations), "count");
  d.set("service.retries", static_cast<double>(report.retries), "count");
  return d;
}

RunResult run_service_workload(const RunOptions& opt, Tracer& tracer) {
  RunResult result;

  // Set-up: job generation, job-file parsing and service construction,
  // repeated before every batch; the last one serves it. One set-up takes
  // about a millisecond, so set-ups taken only at start-up would sample the
  // machine's load of a single moment; spread over the run they sample it
  // as the batches do.
  constexpr int kSetupRepsPerBatch = 50;
  std::vector<double> setup_s;
  std::vector<JobSpec> jobs;
  std::optional<SolverService> service;
  DeterminismCheck determinism(opt.expected);
  std::vector<Served> batches;
  const double loop_t0 = now_s();
  do {
    for (int rep = 0; rep < kSetupRepsPerBatch; ++rep) {
      const double t0 = now_s();
      std::istringstream lines(make_job_lines(opt.seed));
      jobs = rpcg::service::parse_job_lines(lines);
      service.emplace(service_options(opt.seed));
      setup_s.push_back(now_s() - t0);
      tracer.span("setup", "service", t0, t0 + setup_s.back());
    }
    batches.push_back(serve(*service, jobs, tracer));
    const Served& b = batches.back();
    for (const JobResult& j : b.report.jobs) {
      ++result.attempted;
      if (!j.ok()) {
        result.miss(j.name + ": " + j.error);
        continue;
      }
      check_converged(j.name, j.report, report_true_rel_residual(j.report),
                      result);
    }
    const Metrics d = batch_deterministic(b.report);
    if (const std::string m = determinism.check(d); !m.empty())
      result.miss("deterministic value changed: " + m);
    if (result.deterministic.items().empty()) result.deterministic = d;
  } while (now_s() - loop_t0 < opt.seconds);
  result.golden = determinism.golden() && result.failed == 0;

  std::vector<double> walls;
  std::vector<double> latency;
  double jobs_done = 0.0;
  double wall_sum = 0.0;
  for (const Served& b : batches) {
    walls.push_back(b.wall_s);
    wall_sum += b.wall_s;
    jobs_done += static_cast<double>(b.report.jobs.size());
    latency.insert(latency.end(), b.latency_s.begin(), b.latency_s.end());
  }
  result.walls_s = walls;
  Metrics& e = result.end_to_end;
  e.set("solve_wall_s", median(walls), "s");
  e.set("setup_s", median(setup_s), "s");
  for (const char* key : {"sim_time_s", "sim_overhead_pct", "iterations"}) {
    const Metric* m = result.deterministic.find(key);
    e.set(key, m->value, m->unit);
  }
  e.set("jobs_per_s", jobs_done / wall_sum, "1/s");
  e.set("job_latency_p50_s", quantile(latency, 0.5), "s");
  e.set("job_latency_p90_s", quantile(latency, 0.9), "s");
  e.set("peak_rss_mb", peak_rss_mb(), "MB");

  if (opt.trace) {
    Metrics& l = result.per_layer;
    // Set-up layers per job: each distinct job shape once, weighted by how
    // many jobs of the batch use it.
    std::map<int, double> per_matrix;
    for (const JobSpec& j : jobs) per_matrix[j.matrix] += 1.0;
    double make_s = 0.0;
    double build_s = 0.0;
    double precond_s = 0.0;
    for (const auto& [m, count] : per_matrix) {
      const RhsSetter rhs = [](ProblemBuilder& b, const rpcg::CsrMatrix&) {
        b.rhs_ones();
      };
      probe_setup_layers(m, kServiceScale, kServiceNodes, rhs, 2, tracer,
                         count / static_cast<double>(jobs.size()), make_s,
                         build_s, precond_s);
    }
    l.set("repro.make_matrix_s", make_s, "s");
    l.set("engine.problem_build_s", build_s, "s");
    l.set("precond.setup_s", precond_s, "s");

    // Kernel and recovery layers on one representative job shape: the M2
    // analogue with a psi = 3 wave at half the reference iterations (at the
    // solve workloads' rtol).
    const SolveWorkload rep{2, kServiceScale, kServiceNodes, 3, false,
                            {{0.5, kServiceNodes / 2, 3}}, 1, 3};
    Problem problem = build_problem(rep, opt.seed);
    const Solved ref = solve(problem, base_config(), {}, tracer);
    SolverConfig config = resilient_config(rep);
    HookTimes hooks;
    install_hooks(config, tracer, hooks);
    const Solved s = solve(problem, config,
                           waves_schedule(rep, ref.report.iterations), tracer,
                           &hooks);
    std::vector<NodeId> wave;
    for (int k = 0; k < 3; ++k) wave.push_back(kServiceNodes / 2 + k);
    probe_iteration_kernels(problem, rep.phi, wave, tracer, l);
    probe_local_factorization(problem, {wave}, rep.factor_reps, tracer, l);
    l.set("solver.iteration_wall_ms", median(hooks.iteration_gaps_s) * 1e3,
          "ms");
    l.set("core.recovery_wall_s", hooks.recovery_s, "s");
    double gathered = 0.0;
    for (const auto& rec : s.report.recoveries)
      gathered += static_cast<double>(rec.stats.gathered_elements);
    l.set("core.recovery.gathered_elements", gathered, "count");
    l.set("core.factorization_cache.misses",
          static_cast<double>(s.factorizations), "count");
    for (const char* key : {"sim.phase.iteration_s", "sim.phase.redundancy_s",
                            "sim.phase.recovery_s"}) {
      const Metric* m = result.deterministic.find(key);
      l.set(key, m->value, m->unit);
    }
    service_layer_metrics(batches, l);

    // Shares of the mean job run time (the set-up figures are job means).
    double run_sum = 0.0;
    for (const Served& b : batches)
      for (const JobResult& j : b.report.jobs) run_sum += j.wall_seconds;
    const double mean_run = run_sum / jobs_done;
    result.shares.set("problem_setup_of_job_run",
                      (make_s + build_s + precond_s) / mean_run, "ratio");
    result.shares.set("precond_setup_of_job_run", precond_s / mean_run,
                      "ratio");
  }
  return result;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"iter-m1", "recovery-m2", "service-batch"};
}

RunResult run_workload(const RunOptions& options, Tracer& tracer) {
  if (options.workload == "iter-m1" || options.workload == "recovery-m2")
    return run_solve_workload(options.workload, options, tracer);
  if (options.workload == "service-batch")
    return run_service_workload(options, tracer);
  std::string valid;
  for (const std::string& n : workload_names()) valid += " " + n;
  throw std::invalid_argument("unknown workload '" + options.workload +
                              "'; valid:" + valid);
}

}  // namespace perfbench
