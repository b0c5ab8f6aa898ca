// Checkpointing: the baselines that keep a copy of solver state and roll
// back to it (or copy it forward) instead of reconstructing it.
//
// One store serves every such strategy. CheckpointStore snapshots whatever
// vectors and replicated scalars it is handed — the checkpoint/restart
// baseline of resilient-pcg saves {x, r, z, p, rz, beta_prev} (Sec. 1.2 of
// the paper), the "checkpoint-recovery" solver (algorithm-based
// checkpointing à la Pachajoa et al., arXiv:2007.04066) saves the minimal
// {x, r, p, rz, beta_prev} and recomputes z on restore, and twin-pcg keeps
// its buddy mirror of {x, r, p} in one. The store is host-side only; each
// caller charges its medium's cost: storage_cost(4 * max_block) for the
// checkpoint/restart baseline, the CheckpointCostModel below for
// checkpoint-recovery, buddy messages for twin-pcg. The cost model
// distinguishes in-memory (neighbor/NVRAM at network rates) from disk
// (reliable storage rates) checkpoints.
#pragma once

#include <array>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/dist_vector.hpp"
#include "util/enum_names.hpp"

namespace rpcg {

/// Where checkpoint-recovery keeps its copies.
enum class CheckpointMedium {
  kMemory,  ///< partner memory / NVRAM, reached at network rates
  kDisk,    ///< reliable external storage, reached at storage rates
};

template <>
struct EnumNames<CheckpointMedium> {
  static constexpr const char* context = "checkpoint medium";
  static constexpr std::array<std::pair<CheckpointMedium, const char*>, 2>
      table{{{CheckpointMedium::kMemory, "memory"},
             {CheckpointMedium::kDisk, "disk"}}};
};

[[nodiscard]] std::string to_string(CheckpointMedium m);

/// Per-element/latency charges of one checkpoint access. Negative values
/// resolve to the medium's default from the cluster's CommParams:
/// kMemory -> (latency_s, per_double_s), kDisk -> (storage_latency_s,
/// 1 / storage_doubles_per_s). Explicit non-negative values override —
/// that is the knob the checkpoint-vs-ESR crossover study sweeps.
struct CheckpointCostModel {
  CheckpointMedium medium = CheckpointMedium::kMemory;
  double write_per_element_s = -1.0;
  double read_per_element_s = -1.0;
  double access_latency_s = -1.0;

  /// The model with every negative field replaced by the medium default.
  [[nodiscard]] CheckpointCostModel resolved(const CommModel& comm) const;

  [[nodiscard]] double write_cost(const CommModel& comm, Index elements) const;
  [[nodiscard]] double read_cost(const CommModel& comm, Index elements) const;
};

/// A snapshot of solver state: the given vectors (gathered to host-side
/// copies) and replicated scalars, tagged with the iteration they belong
/// to. Charges no simulated time.
class CheckpointStore {
 public:
  [[nodiscard]] int iteration() const { return iter_; }

  void save(int iteration, std::initializer_list<const DistVector*> vectors,
            std::initializer_list<double> scalars = {});

  /// Writes the snapshot back into the given vectors (every block, marking
  /// them valid) and scalars — the same number of each, in the order they
  /// were saved. Replacement nodes must already be online.
  void restore(std::initializer_list<DistVector*> vectors,
               std::initializer_list<double*> scalars = {}) const;

 private:
  int iter_ = -1;
  std::vector<std::vector<double>> vectors_;
  std::vector<double> scalars_;
};

}  // namespace rpcg
