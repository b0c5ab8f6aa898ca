#include "service/shared_cache.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "core/errors.hpp"
#include "util/check.hpp"

namespace rpcg::service {

SharedFactorizationCache::SharedFactorizationCache(std::size_t capacity)
    : flight_(capacity) {
  RPCG_CHECK(capacity >= 1, "shared cache capacity must be >= 1");
}

FactorizationCache::EntryPtr SharedFactorizationCache::get_or_build(
    std::string_view tag, const FactorizationCache::MatrixKey& matrix,
    std::string_view ordering, std::span<const NodeId> nodes,
    const std::function<FactorizationCache::Entry()>& build) {
  std::vector<NodeId> sorted(nodes.begin(), nodes.end());
  std::sort(sorted.begin(), sorted.end());
  Key key{std::string(tag), matrix, std::string(ordering), std::move(sorted)};
  // A failed build surfaces as the typed CacheBuildFailure with the original
  // message preserved; anything that is not a std::exception passes through.
  const auto wrap = [](std::exception_ptr failure) {
    try {
      std::rethrow_exception(failure);
    } catch (const std::exception& e) {
      return std::make_exception_ptr(CacheBuildFailure(
          "shared-cache factorization build failed: " + std::string(e.what())));
    } catch (...) {
      return failure;
    }
  };
  return flight_.get_or_build(
      key,
      [&build] {
        return std::make_shared<const FactorizationCache::Entry>(build());
      },
      wrap);
}

FactorizationCache::Upstream SharedFactorizationCache::as_upstream(
    std::string ordering) {
  return [this, ordering = std::move(ordering)](
             std::string_view tag, const FactorizationCache::MatrixKey& matrix,
             std::span<const NodeId> nodes,
             const std::function<FactorizationCache::Entry()>& build) {
    return get_or_build(tag, matrix, ordering, nodes, build);
  };
}

void SharedFactorizationCache::clear() { flight_.clear(); }

SharedFactorizationCache::Stats SharedFactorizationCache::stats() const {
  return flight_.stats();
}

}  // namespace rpcg::service
