// Single-flight keyed memo: the claim/publish/withdraw core shared by the
// service's cross-job caches (service/shared_cache.hpp,
// service/problem_setup.hpp).
//
// A slot exists from the moment a builder claims its key. Until the build
// finishes the slot's future is unready, and later requesters for the key
// wait on it instead of building a second copy. A build that throws
// publishes its exception (optionally translated by the caller) to the
// builder and to every coalesced waiter alike, and the poisoned slot is
// withdrawn so the next request builds afresh instead of rethrowing forever.
// Builds run outside the lock; one mutex guards the slot map and counters.
//
// Capacity 0 keeps every slot until erase()/clear(); a positive capacity
// evicts the least recently used slot by a monotonic use counter (never wall
// time — the service layer is bound by the same determinism rules as the
// simulator). Evicting or erasing an in-flight slot is harmless: waiters
// keep the shared state alive through their future copies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <utility>

namespace rpcg {

template <typename Key, typename Value>
class SingleFlight {
 public:
  struct Stats {
    std::uint64_t hits = 0;       ///< ready slots and coalesced waits
    std::uint64_t misses = 0;     ///< claims: builds started
    std::uint64_t evictions = 0;  ///< LRU evictions (capacity > 0 only)
    std::size_t entries = 0;      ///< currently resident slots
  };

  /// Maps a failed build's exception to the one published and rethrown;
  /// an empty Translate publishes the original exception.
  using Translate = std::function<std::exception_ptr(std::exception_ptr)>;

  explicit SingleFlight(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Returns the value for `key`, running `build` on a miss. A coalesced
  /// wait counts as a hit: the work was shared.
  template <typename Build>
  [[nodiscard]] Value get_or_build(const Key& key, Build&& build,
                                   const Translate& translate = {}) {
    std::promise<Value> promise;
    std::shared_future<Value> future;
    std::uint64_t claim = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = slots_.find(key);
      if (it != slots_.end()) {
        ++stats_.hits;
        it->second.last_use = ++tick_;
        future = it->second.future;
      } else {
        ++stats_.misses;
        claim = ++tick_;
        slots_.emplace(key, Slot{promise.get_future().share(), claim, claim});
        if (capacity_ > 0 && slots_.size() > capacity_) evict_locked();
      }
    }
    if (future.valid()) return future.get();  // rethrows a builder's failure

    // This thread claimed the slot: build outside the lock, then publish
    // through the promise so every coalesced waiter wakes with the result.
    try {
      Value value = std::forward<Build>(build)();
      promise.set_value(value);
      return value;
    } catch (...) {
      const std::exception_ptr failure =
          translate ? translate(std::current_exception())
                    : std::current_exception();
      promise.set_exception(failure);
      withdraw(key, claim);
      std::rethrow_exception(failure);
    }
  }

  /// Drops `key`'s slot if present. Values already handed out and waiters
  /// on an in-flight build are unaffected.
  void erase(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.erase(key);
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.clear();
  }

  [[nodiscard]] Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    Stats s = stats_;
    s.entries = slots_.size();
    return s;
  }

 private:
  struct Slot {
    std::shared_future<Value> future;
    std::uint64_t last_use = 0;
    std::uint64_t claim = 0;  ///< tick when the builder claimed the slot
  };

  /// Removes the poisoned slot a failed build claimed. The claim tick guards
  /// against erasing a successor's slot when eviction already removed ours.
  void withdraw(const Key& key, std::uint64_t claim) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = slots_.find(key);
    if (it != slots_.end() && it->second.claim == claim) slots_.erase(it);
  }

  void evict_locked() {
    auto victim = slots_.begin();
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      if (it->second.last_use < victim->second.last_use) victim = it;
    }
    slots_.erase(victim);
    ++stats_.evictions;
  }

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  std::map<Key, Slot> slots_;
  Stats stats_;
};

}  // namespace rpcg
