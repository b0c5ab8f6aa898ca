#include "sim/dist_vector.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace rpcg {

DistVector::DistVector(const Partition& partition) : partition_(&partition) {
  const int nn = partition.num_nodes();
  blocks_.resize(static_cast<std::size_t>(nn));
  valid_.assign(static_cast<std::size_t>(nn), true);
  for (NodeId i = 0; i < nn; ++i)
    blocks_[static_cast<std::size_t>(i)].assign(
        static_cast<std::size_t>(partition.size(i)), 0.0);
}

std::span<double> DistVector::block(NodeId i) {
  RPCG_CHECK(partition_ != nullptr, "vector not initialized");
  RPCG_REQUIRE(valid_[static_cast<std::size_t>(i)],
               "access to a block lost in a node failure");
  return blocks_[static_cast<std::size_t>(i)];
}

std::span<const double> DistVector::block(NodeId i) const {
  RPCG_CHECK(partition_ != nullptr, "vector not initialized");
  RPCG_REQUIRE(valid_[static_cast<std::size_t>(i)],
               "access to a block lost in a node failure");
  return blocks_[static_cast<std::size_t>(i)];
}

void DistVector::invalidate(NodeId i) {
  RPCG_CHECK(partition_ != nullptr, "vector not initialized");
  auto& b = blocks_[static_cast<std::size_t>(i)];
  std::fill(b.begin(), b.end(), std::numeric_limits<double>::quiet_NaN());
  valid_[static_cast<std::size_t>(i)] = false;
}

void DistVector::restore_block(NodeId i, std::span<const double> values) {
  RPCG_CHECK(partition_ != nullptr, "vector not initialized");
  auto& b = blocks_[static_cast<std::size_t>(i)];
  RPCG_CHECK(values.size() == b.size(), "restored block has wrong size");
  std::copy(values.begin(), values.end(), b.begin());
  valid_[static_cast<std::size_t>(i)] = true;
}

void DistVector::revalidate_zero(NodeId i) {
  RPCG_CHECK(partition_ != nullptr, "vector not initialized");
  auto& b = blocks_[static_cast<std::size_t>(i)];
  std::fill(b.begin(), b.end(), 0.0);
  valid_[static_cast<std::size_t>(i)] = true;
}

double DistVector::value(Index global) const {
  const NodeId owner = partition_->owner(global);
  return block(owner)[static_cast<std::size_t>(global - partition_->begin(owner))];
}

std::vector<double> DistVector::gather_global() const {
  std::vector<double> out(static_cast<std::size_t>(n()));
  gather_global(out);
  return out;
}

void DistVector::gather_global(std::span<double> out) const {
  RPCG_CHECK(static_cast<Index>(out.size()) == n(), "size mismatch");
  for (NodeId i = 0; i < partition_->num_nodes(); ++i) {
    const auto b = block(i);
    std::copy(b.begin(), b.end(),
              out.begin() + static_cast<std::ptrdiff_t>(partition_->begin(i)));
  }
}

void DistVector::set_global(std::span<const double> values) {
  RPCG_CHECK(static_cast<Index>(values.size()) == n(), "size mismatch");
  for (NodeId i = 0; i < partition_->num_nodes(); ++i) {
    auto& b = blocks_[static_cast<std::size_t>(i)];
    std::copy(values.begin() + static_cast<std::ptrdiff_t>(partition_->begin(i)),
              values.begin() + static_cast<std::ptrdiff_t>(partition_->end(i)),
              b.begin());
    valid_[static_cast<std::size_t>(i)] = true;
  }
}

void DistVector::set_zero() {
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    std::fill(blocks_[i].begin(), blocks_[i].end(), 0.0);
    valid_[i] = true;
  }
}

}  // namespace rpcg
