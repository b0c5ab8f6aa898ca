// The retained redundant data: what every node keeps, beyond its own block,
// of the most recent generations of a communicated vector — the SpMV halo it
// receives anyway (retention rule) plus the designated extra sets Rc_ik.
// It is the one redundancy store of every resilient engine; only the number
// of generations differs:
//   1      the stationary iterate x^(j) (its whole state is one vector),
//   2      the paper's p^(j), p^(j-1) pair, and BiCGSTAB's p̂ and ŝ,
//   l + 1  the pipelined engine's u at depth l, so the deeper recurrence
//          window stays reconstructible.
// A node failure destroys the store entries *on* the failed node; the
// reconstruction gathers lost elements from surviving holders through a
// tailored plan (the deterministic alternative to PETSc's reverse scatter
// discussed in Sec. 6 of the paper).
#pragma once

#include <optional>
#include <vector>

// UnrecoverableFailure used to live here; it now derives from the typed
// taxonomy (core/errors.hpp) so the service layer can classify it. Kept in
// this include set because every throw site reaches it through this header.
#include "core/errors.hpp"
#include "core/redundancy.hpp"
#include "sim/cluster.hpp"
#include "sim/dist_vector.hpp"
#include "sim/scatter_plan.hpp"

namespace rpcg {

class BackupStore {
 public:
  BackupStore() = default;

  /// Lays out the retained blocks: one per ordered node pair (src, dst) with
  /// traffic, holding the union of S_{src,dst} and the extra sets Rc
  /// targeted at dst, carrying `generations` rotating copies. Values start
  /// at zero (p^(-1) = 0, consistent with the j = 0 reconstruction where
  /// beta^(-1) = 0). The paper's scheme is generations = 2; at least 1.
  void configure(const ScatterPlan& plan, const RedundancyScheme& scheme,
                 const Partition& partition, int generations = 2);

  [[nodiscard]] int generations() const { return generations_; }

  /// Called once per SpMV, after the halo exchange of p^(j): rotates the
  /// generations (gen g -> g+1, oldest dropped) and records the freshly sent
  /// values as generation 0.
  void record(const DistVector& p);

  /// A node failure destroys everything retained on node d.
  void invalidate_node(NodeId d);

  /// Looks up a surviving copy of element `global` (owned by `owner`) in
  /// generation `gen` (0 = newest, generations()-1 = oldest). Returns the
  /// holder and value, or nullopt if no alive holder has it.
  struct Found {
    NodeId holder;
    double value;
  };
  [[nodiscard]] std::optional<Found> lookup(const Cluster& cluster, NodeId owner,
                                            Index global, int gen) const;

  /// Gathers every generation of all lost elements (`rows`, sorted, owned by
  /// failed nodes). Charges the gather communication cost to
  /// Phase::kRecovery. Throws UnrecoverableFailure when an element has no
  /// surviving copy.
  struct Gathered {
    /// gens[g] holds generation g's values, aligned with rows (g = 0 newest).
    std::vector<std::vector<double>> gens;
    Index elements_transferred = 0;
  };
  [[nodiscard]] Gathered gather_lost(Cluster& cluster,
                                     std::span<const Index> rows) const;

  /// Restores the store entries hosted on replacement nodes from the
  /// (recovered) generation vectors (newest first, one per configured
  /// generation), so the full phi + 1 redundancy holds immediately after
  /// reconstruction instead of `generations` iterations later. Charges the
  /// re-send cost to Phase::kRecovery.
  void re_arm(Cluster& cluster, std::span<const NodeId> replacements,
              std::span<const DistVector* const> generation_vectors);

  /// Two-generation convenience overload (the paper's p / p_prev pair).
  void re_arm(Cluster& cluster, std::span<const NodeId> replacements,
              const DistVector& p, const DistVector& p_prev);

  /// Memory the store occupies on node d, in vector elements (for the
  /// paper's ~2n/N-per-copy overhead statement; generations * n/N here).
  [[nodiscard]] Index retained_elements_on(NodeId d) const;

 private:
  struct RetainedBlock {
    NodeId src = -1;
    NodeId dst = -1;
    std::vector<Index> indices;  // sorted global indices
    std::vector<std::vector<double>> gens;  // gens[0] newest
    bool valid = true;  // false after dst failed, until re-armed
  };

  const Partition* partition_ = nullptr;
  int generations_ = 2;
  std::vector<RetainedBlock> blocks_;
  std::vector<std::vector<int>> by_src_;  // block ids per source node
  std::vector<std::vector<int>> by_dst_;  // block ids per destination node
};

}  // namespace rpcg
