#pragma once
// Worker-local resource storage.
//
// In the paper, a worker that has already cloned a repository keeps it on
// its local filesystem and bids (or accepts) accordingly; a job whose
// resource is absent causes a *cache miss* — one of the paper's three
// metrics — and the resource's size is added to the *data load* metric.
//
// The cache supports unbounded storage (the paper's setting: clones are
// kept for later use) as well as LRU/FIFO eviction under a capacity, used
// by the capacity-pressure extension experiments.

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/units.hpp"

namespace dlaja::storage {

/// Identifier of a cacheable resource (e.g. a Git repository).
using ResourceId = std::uint64_t;

/// A cacheable resource and its size.
struct Resource {
  ResourceId id = 0;
  MegaBytes size_mb = 0.0;
  friend bool operator==(const Resource&, const Resource&) = default;
};

/// Eviction behaviour when a capacity is configured.
enum class EvictionPolicy {
  kUnbounded,  ///< never evict (capacity ignored)
  kLru,        ///< evict least-recently-used first
  kFifo,       ///< evict oldest-admitted first
};

/// Cache configuration.
struct CacheConfig {
  EvictionPolicy policy = EvictionPolicy::kUnbounded;
  /// Capacity in MB; only meaningful for kLru / kFifo.
  MegaBytes capacity_mb = 0.0;
};

/// Hit/miss/eviction counters.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  MegaBytes admitted_mb = 0.0;
  MegaBytes evicted_mb = 0.0;
};

/// A single worker's resource cache.
class ResourceCache {
 public:
  explicit ResourceCache(CacheConfig config = {});

  /// True if the resource is currently resident. Does not touch LRU order
  /// and does not count as a hit/miss (pure query, used when estimating
  /// bids — estimating must not perturb metrics).
  [[nodiscard]] bool contains(ResourceId id) const noexcept;

  /// Records an access: counts a hit (touching LRU order) or a miss.
  /// Returns true on hit.
  bool access(ResourceId id);

  /// Admits a resource after a miss, evicting per policy if over capacity.
  /// Admitting a resident resource only refreshes its recency.
  void admit(const Resource& resource);

  /// Removes a resource explicitly; returns true if it was resident.
  bool evict(ResourceId id);

  /// Drops all contents (stats retained).
  void clear();

  /// Sum of resident resource sizes. Internally accounted in whole bytes,
  /// so admit/evict churn can never drift the total away from the true sum
  /// (repeated double add/subtract of unequal sizes accumulates error and
  /// could leave a phantom residue that triggers spurious evictions).
  [[nodiscard]] MegaBytes used_mb() const noexcept {
    return static_cast<double>(used_bytes_) / 1048576.0;
  }

  /// Number of resident resources.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Membership version: bumped whenever the set of resident resources may
  /// have changed (admit of an absent resource, each eviction, clear,
  /// restore), never by a hit or a recency refresh. A caller that memoises
  /// answers of contains() keys them on this.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// The capacity contract: a bounded cache is over capacity when its
  /// entries exceed the capacity and there is more than one of them. A lone
  /// most-recent entry larger than the capacity stays resident (a clone in
  /// use cannot be deleted out from under its job). Eviction runs until
  /// this is false; the telemetry watchdog checks it at every sample.
  [[nodiscard]] bool over_capacity() const noexcept;

  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

  /// Zeroes the counters (e.g. between experiment iterations).
  void reset_stats() noexcept { stats_ = {}; }

  /// Resident resources in recency order (most recent first, LRU;
  /// admission order for FIFO/unbounded).
  [[nodiscard]] std::vector<Resource> snapshot() const;

  /// Replaces contents with `resources` (used to carry caches across
  /// iterations of an experiment). Stats are untouched. The capacity is
  /// enforced after the restore: carrying a snapshot into a smaller cache
  /// must not leave it silently over budget.
  void restore(std::span<const Resource> resources);

 private:
  void enforce_capacity();

  /// Exact size in whole bytes (accounting currency; see used_mb()).
  [[nodiscard]] static std::uint64_t bytes_of(MegaBytes mb) noexcept;

  CacheConfig config_;
  CacheStats stats_;
  std::uint64_t used_bytes_ = 0;
  std::uint64_t version_ = 0;
  // Recency list: front = most recently used / most recently admitted.
  std::list<Resource> order_;
  std::unordered_map<ResourceId, std::list<Resource>::iterator> entries_;
};

}  // namespace dlaja::storage
