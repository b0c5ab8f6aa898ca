#include "core/backup_store.hpp"

#include <algorithm>
#include <map>

#include "util/check.hpp"

namespace rpcg {

void BackupStore::configure(const ScatterPlan& plan,
                            const RedundancyScheme& scheme,
                            const Partition& partition, int generations) {
  RPCG_REQUIRE(generations >= 1, "a backup store needs at least 1 generation");
  partition_ = &partition;
  generations_ = generations;
  blocks_.clear();
  const int nn = partition.num_nodes();
  by_src_.assign(static_cast<std::size_t>(nn), {});
  by_dst_.assign(static_cast<std::size_t>(nn), {});

  // Union of halo traffic and designated extras per ordered pair.
  std::map<std::pair<NodeId, NodeId>, std::vector<Index>> pair_indices;
  for (const auto& m : plan.messages()) {
    auto& v = pair_indices[{m.src, m.dst}];
    v.insert(v.end(), m.indices.begin(), m.indices.end());
  }
  for (NodeId i = 0; i < nn; ++i) {
    for (const auto& round : scheme.rounds_of(i)) {
      if (round.extra.empty()) continue;
      auto& v = pair_indices[{i, round.target}];
      v.insert(v.end(), round.extra.begin(), round.extra.end());
    }
  }

  for (auto& [key, indices] : pair_indices) {
    std::sort(indices.begin(), indices.end());
    indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
    RetainedBlock b;
    b.src = key.first;
    b.dst = key.second;
    b.gens.assign(static_cast<std::size_t>(generations_),
                  std::vector<double>(indices.size(), 0.0));
    b.indices = std::move(indices);
    const int id = static_cast<int>(blocks_.size());
    by_src_[static_cast<std::size_t>(b.src)].push_back(id);
    by_dst_[static_cast<std::size_t>(b.dst)].push_back(id);
    blocks_.push_back(std::move(b));
  }
}

void BackupStore::record(const DistVector& p) {
  RPCG_REQUIRE(partition_ != nullptr, "store not configured");
  for (auto& b : blocks_) {
    if (!b.valid) continue;  // nothing is recorded on a failed node
    // Rotate: the oldest generation's buffer becomes the new generation 0.
    std::rotate(b.gens.begin(), b.gens.end() - 1, b.gens.end());
    const auto src_block = p.block(b.src);
    const Index base = partition_->begin(b.src);
    for (std::size_t k = 0; k < b.indices.size(); ++k)
      b.gens[0][k] = src_block[static_cast<std::size_t>(b.indices[k] - base)];
  }
}

void BackupStore::invalidate_node(NodeId d) {
  RPCG_REQUIRE(partition_ != nullptr, "store not configured");
  for (const int id : by_dst_[static_cast<std::size_t>(d)]) {
    auto& b = blocks_[static_cast<std::size_t>(id)];
    for (auto& gen : b.gens) std::fill(gen.begin(), gen.end(), 0.0);
    b.valid = false;
  }
}

std::optional<BackupStore::Found> BackupStore::lookup(const Cluster& cluster,
                                                      NodeId owner, Index global,
                                                      int gen) const {
  RPCG_CHECK(gen >= 0 && gen < generations_, "generation out of range");
  for (const int id : by_src_[static_cast<std::size_t>(owner)]) {
    const auto& b = blocks_[static_cast<std::size_t>(id)];
    if (!b.valid || !cluster.is_alive(b.dst)) continue;
    const auto it = std::lower_bound(b.indices.begin(), b.indices.end(), global);
    if (it == b.indices.end() || *it != global) continue;
    const auto off = static_cast<std::size_t>(it - b.indices.begin());
    return Found{b.dst, b.gens[static_cast<std::size_t>(gen)][off]};
  }
  return std::nullopt;
}

BackupStore::Gathered BackupStore::gather_lost(Cluster& cluster,
                                               std::span<const Index> rows) const {
  RPCG_REQUIRE(partition_ != nullptr, "store not configured");
  Gathered out;
  out.gens.assign(static_cast<std::size_t>(generations_),
                  std::vector<double>(rows.size(), 0.0));
  // elements each holder sends to each replacement (for the cost model)
  std::map<std::pair<NodeId, NodeId>, Index> traffic;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const Index s = rows[k];
    const NodeId owner = partition_->owner(s);
    for (int g = 0; g < generations_; ++g) {
      const auto found = lookup(cluster, owner, s, g);
      if (!found.has_value()) {
        throw UnrecoverableFailure(
            "element " + std::to_string(s) +
            " of failed node " + std::to_string(owner) +
            " has no surviving copy (more failures than phi?)");
      }
      out.gens[static_cast<std::size_t>(g)][k] = found->value;
      traffic[{found->holder, owner}] += 1;
      ++out.elements_transferred;
    }
  }
  // Serialized sends per holder; the round costs the slowest holder.
  std::vector<double> per_holder(static_cast<std::size_t>(cluster.num_nodes()), 0.0);
  for (const auto& [key, count] : traffic)
    per_holder[static_cast<std::size_t>(key.first)] +=
        cluster.comm().message_cost(count);
  cluster.charge_parallel_seconds(Phase::kRecovery, per_holder);
  return out;
}

void BackupStore::re_arm(Cluster& cluster, std::span<const NodeId> replacements,
                         std::span<const DistVector* const> generation_vectors) {
  RPCG_REQUIRE(partition_ != nullptr, "store not configured");
  RPCG_REQUIRE(static_cast<int>(generation_vectors.size()) == generations_,
               "re-arm needs one vector per configured generation");
  std::vector<double> per_src(static_cast<std::size_t>(cluster.num_nodes()), 0.0);
  for (const NodeId d : replacements) {
    for (const int id : by_dst_[static_cast<std::size_t>(d)]) {
      auto& b = blocks_[static_cast<std::size_t>(id)];
      RPCG_REQUIRE(cluster.is_alive(b.src),
                   "re-arm requires the source to be alive or already recovered");
      const Index base = partition_->begin(b.src);
      for (int g = 0; g < generations_; ++g) {
        const auto src = generation_vectors[static_cast<std::size_t>(g)]->block(b.src);
        auto& gen = b.gens[static_cast<std::size_t>(g)];
        for (std::size_t k = 0; k < b.indices.size(); ++k)
          gen[k] = src[static_cast<std::size_t>(b.indices[k] - base)];
      }
      b.valid = true;
      per_src[static_cast<std::size_t>(b.src)] += cluster.comm().message_cost(
          static_cast<Index>(generations_) * static_cast<Index>(b.indices.size()));
    }
  }
  cluster.charge_parallel_seconds(Phase::kRecovery, per_src);
}

void BackupStore::re_arm(Cluster& cluster, std::span<const NodeId> replacements,
                         const DistVector& p, const DistVector& p_prev) {
  const DistVector* gens[] = {&p, &p_prev};
  re_arm(cluster, replacements, gens);
}

Index BackupStore::retained_elements_on(NodeId d) const {
  Index total = 0;
  for (const int id : by_dst_[static_cast<std::size_t>(d)])
    total += static_cast<Index>(generations_) *
             static_cast<Index>(blocks_[static_cast<std::size_t>(id)].indices.size());
  return total;
}

}  // namespace rpcg
