// The benchmark's workloads (see README.md for why each was chosen).
//
//   iter-m1        iteration-bound: M1 analogue, ESR phi=3, one psi=3 wave
//   recovery-m2    recovery-bound: M2 analogue, exact LDLT recovery of three
//                  psi=8 waves
//   service-batch  a closed batch of seeded jobs through SolverService
//
// A run sets up its inputs from the seed, then solves (or serves) back to
// back until the requested seconds have passed, checking every result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/json_value.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Recorded deterministic values of this workload and seed, or null.
  const rpcg::service::JsonValue* expected = nullptr;
};

struct RunResult {
  long attempted = 0;  ///< solves or jobs run, reference solves included
  long failed = 0;     ///< of those, the ones that missed a check
  std::vector<std::string> failures;  ///< first few miss descriptions
  Metrics end_to_end;
  Metrics per_layer;      ///< traced runs only
  Metrics deterministic;  ///< exact values the seed determines
  Metrics shares;         ///< traced runs: layer shares of an e2e metric
  std::vector<double> walls_s;  ///< every timed solve (or batch), in order
  bool golden = false;    ///< deterministic values matched recorded ones

  void miss(const std::string& why);
};

[[nodiscard]] std::vector<std::string> workload_names();

/// Runs one workload; throws std::invalid_argument for an unknown name.
[[nodiscard]] RunResult run_workload(const RunOptions& options,
                                     Tracer& tracer);

}  // namespace perfbench
