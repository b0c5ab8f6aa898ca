// The cross-job factorization cache of the SolverService.
//
// Every Problem owns a private FactorizationCache, so within one Problem a
// recurring failed node set is factorized once — but across Problems the
// same (matrix, failed set) setup is rebuilt from scratch, and service
// batches replay the same repro matrices with the same failure schedules
// constantly. This cache sits *upstream* of the per-Problem caches (wired
// via FactorizationCache::set_upstream): a per-Problem miss consults it
// before building, so identical reconstruction setups are extracted and
// factorized once per batch, not once per job.
//
// Keying: (consumer tag, content-derived MatrixKey, ordering, sorted failed
// node set). The content key — not an object address — is what makes
// sharing sound: every job builds its own CsrMatrix copy, and two copies of
// M1 at the same scale hash identically while any value or pattern change
// separates them. The ordering slot exists because cached LDLᵀ entries bake
// in a fill-reducing permutation; today every consumer selects it
// deterministically from the pattern ("auto"), but a future explicit
// natural/RCM/AMD knob must not alias entries built under a different
// permutation.
//
// Eviction: least-recently-used by a monotonic use counter, with a fixed
// entry capacity. Coalescing, eviction and failed-build withdrawal are the
// SingleFlight core (util/single_flight.hpp) that the service's set-up cache
// shares. Like the per-Problem cache this is a host-side optimization only:
// simulated costs are charged on hits too, so reports are byte-identical
// with the cache on or off.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/factorization_cache.hpp"
#include "util/single_flight.hpp"
#include "util/types.hpp"

namespace rpcg::service {

class SharedFactorizationCache {
  struct Key {
    std::string tag;
    FactorizationCache::MatrixKey matrix;
    std::string ordering;
    std::vector<NodeId> nodes;  // sorted
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  using Flight = SingleFlight<Key, FactorizationCache::EntryPtr>;

 public:
  /// hits (coalesced waits included), misses (builds started), evictions,
  /// and the entries currently cached.
  using Stats = Flight::Stats;

  /// `capacity` bounds the number of resident entries (>= 1); the least
  /// recently used entry is evicted first. Entries handed out stay alive
  /// through their shared_ptr after eviction.
  explicit SharedFactorizationCache(std::size_t capacity = kDefaultCapacity);

  static constexpr std::size_t kDefaultCapacity = 256;

  /// Returns the entry for (tag, matrix, ordering, nodes), building it with
  /// `build` on a miss. Thread-safe; `build` runs outside the lock, and
  /// concurrent requests for one key are coalesced: the first requester
  /// builds while the rest block on its result instead of duplicating the
  /// factorization (the whole point of sharing on an oversubscribed host).
  /// If the build throws, the slot is withdrawn and the failure surfaces as
  /// a typed CacheBuildFailure (core/errors.hpp) carrying the original
  /// message — to the builder and to every coalesced waiter alike; later
  /// callers retry from scratch.
  [[nodiscard]] FactorizationCache::EntryPtr get_or_build(
      std::string_view tag, const FactorizationCache::MatrixKey& matrix,
      std::string_view ordering, std::span<const NodeId> nodes,
      const std::function<FactorizationCache::Entry()>& build);

  /// Adapter for FactorizationCache::set_upstream: per-Problem misses are
  /// served from this cache under the given ordering slot. The returned
  /// callable borrows `this`; the shared cache must outlive every Problem
  /// cache it is wired into.
  [[nodiscard]] FactorizationCache::Upstream as_upstream(
      std::string ordering = "auto");

  void clear();

  [[nodiscard]] Stats stats() const;

 private:
  Flight flight_;
};

}  // namespace rpcg::service
