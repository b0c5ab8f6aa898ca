// Per-layer probes: time the library's public kernels on a workload's own
// data, from outside the library.
//
// A probe calls one public function back to back (after one untimed warm-up
// call) in batches of about 20 ms and reports the median per-call time over
// the batches, so one slow batch does not move the figure.
#pragma once

#include <span>
#include <vector>

#include "engine/problem.hpp"
#include "trace.hpp"
#include "util/types.hpp"

namespace perfbench {

/// Times one PCG iteration's kernels on `problem`: DistMatrix::spmv,
/// Preconditioner::apply, the sim/collectives BLAS1 updates and reductions,
/// BackupStore::record with `phi` copies and BackupStore::gather_lost of the
/// rows of `failed`. Adds the sim.*, precond.apply_ms and core.backup_*
/// metrics to `out`.
void probe_iteration_kernels(const rpcg::engine::Problem& problem, int phi,
                             std::span<const rpcg::NodeId> failed,
                             Tracer& tracer, Metrics& out);

/// Times the exact local solves of a workload's reconstructions: for each
/// failed node set, CsrMatrix::submatrix of its rows, ReorderedLdlt::factor
/// and ReorderedLdlt::solve. Adds the sparse.* metrics to `out`: medians over
/// `factor_reps` of the mean over the sets.
void probe_local_factorization(
    const rpcg::engine::Problem& problem,
    const std::vector<std::vector<rpcg::NodeId>>& failed_sets,
    int factor_reps, Tracer& tracer, Metrics& out);

}  // namespace perfbench
