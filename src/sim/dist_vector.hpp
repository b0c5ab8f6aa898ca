// Block-row distributed vector. Each node owns one contiguous block; a node
// failure invalidates its block (the data is *gone* — any subsequent read
// throws, which is how tests catch algorithms that silently use lost data).
#pragma once

#include <span>
#include <vector>

#include "sim/partition.hpp"
#include "util/types.hpp"

namespace rpcg {

class DistVector {
 public:
  DistVector() = default;

  /// Zero-initialized distributed vector over the given partition.
  explicit DistVector(const Partition& partition);

  [[nodiscard]] Index n() const { return partition_ ? partition_->n() : 0; }
  [[nodiscard]] const Partition& partition() const { return *partition_; }

  /// Mutable access to the block owned by node i. Throws if the block was
  /// lost in a node failure and has not been restored.
  [[nodiscard]] std::span<double> block(NodeId i);
  [[nodiscard]] std::span<const double> block(NodeId i) const;

  [[nodiscard]] bool is_valid(NodeId i) const {
    return valid_[static_cast<std::size_t>(i)];
  }

  /// Simulates the loss of node i's memory: the block becomes inaccessible
  /// and its contents are destroyed (poisoned, to catch stale aliases).
  void invalidate(NodeId i);

  /// Installs reconstructed values on the replacement node and marks the
  /// block valid again.
  void restore_block(NodeId i, std::span<const double> values);

  /// Marks the block valid again with zero contents (for workspace vectors
  /// that are fully overwritten before their next read).
  void revalidate_zero(NodeId i);

  /// Element access by global index (diagnostics/tests; owner must be valid).
  [[nodiscard]] double value(Index global) const;

  /// Gathers the full vector (diagnostics/tests; all blocks must be valid).
  [[nodiscard]] std::vector<double> gather_global() const;

  /// Gathers the full vector into caller storage of size n() (snapshots
  /// that reuse their buffers).
  void gather_global(std::span<double> out) const;

  /// Scatters a full vector into the blocks (marks all blocks valid).
  void set_global(std::span<const double> values);

  void set_zero();

 private:
  const Partition* partition_ = nullptr;
  std::vector<std::vector<double>> blocks_;
  std::vector<bool> valid_;
};

}  // namespace rpcg
