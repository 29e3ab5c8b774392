// Unit tests for the worker-local resource cache.

#include <gtest/gtest.h>

#include <vector>

#include "storage/cache.hpp"

namespace dlaja::storage {
namespace {

TEST(Cache, StartsEmpty) {
  ResourceCache cache;
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.used_mb(), 0.0);
  EXPECT_FALSE(cache.contains(1));
}

TEST(Cache, AdmitThenContains) {
  ResourceCache cache;
  cache.admit({1, 100.0});
  EXPECT_TRUE(cache.contains(1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.used_mb(), 100.0);
  EXPECT_EQ(cache.stats().admitted_mb, 100.0);
}

TEST(Cache, AccessCountsHitsAndMisses) {
  ResourceCache cache;
  EXPECT_FALSE(cache.access(1));
  cache.admit({1, 10.0});
  EXPECT_TRUE(cache.access(1));
  EXPECT_FALSE(cache.access(2));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(Cache, ContainsDoesNotTouchStats) {
  ResourceCache cache;
  cache.admit({1, 10.0});
  (void)cache.contains(1);
  (void)cache.contains(2);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(Cache, ReAdmittingResidentResourceIsIdempotent) {
  ResourceCache cache;
  cache.admit({1, 10.0});
  cache.admit({1, 10.0});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.used_mb(), 10.0);
}

TEST(Cache, UnboundedNeverEvicts) {
  ResourceCache cache;  // default: unbounded
  for (ResourceId id = 1; id <= 1000; ++id) cache.admit({id, 100.0});
  EXPECT_EQ(cache.size(), 1000u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  CacheConfig config;
  config.policy = EvictionPolicy::kLru;
  config.capacity_mb = 30.0;
  ResourceCache cache(config);
  cache.admit({1, 10.0});
  cache.admit({2, 10.0});
  cache.admit({3, 10.0});
  EXPECT_TRUE(cache.access(1));  // 1 becomes most recent; 2 is now LRU
  cache.admit({4, 10.0});        // over capacity -> evict 2
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().evicted_mb, 10.0);
}

TEST(Cache, FifoEvictsOldestRegardlessOfAccess) {
  CacheConfig config;
  config.policy = EvictionPolicy::kFifo;
  config.capacity_mb = 30.0;
  ResourceCache cache(config);
  cache.admit({1, 10.0});
  cache.admit({2, 10.0});
  cache.admit({3, 10.0});
  EXPECT_TRUE(cache.access(1));  // access must NOT protect 1 under FIFO
  cache.admit({4, 10.0});
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(Cache, OversizedSingleResourceIsKept) {
  CacheConfig config;
  config.policy = EvictionPolicy::kLru;
  config.capacity_mb = 50.0;
  ResourceCache cache(config);
  cache.admit({1, 500.0});  // bigger than the whole capacity
  EXPECT_TRUE(cache.contains(1));
  EXPECT_EQ(cache.size(), 1u);
  cache.admit({2, 10.0});  // now 1 (LRU, back) gets evicted
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(Cache, LoneOversizeEntryIsWithinTheCapacityContract) {
  // over_capacity() is the contract eviction restores and the telemetry
  // watchdog checks: only a cache with two or more entries can break it.
  for (const EvictionPolicy policy : {EvictionPolicy::kLru, EvictionPolicy::kFifo}) {
    CacheConfig config;
    config.policy = policy;
    config.capacity_mb = 300.0;
    ResourceCache cache(config);
    cache.admit({1, 301.9});
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_GT(cache.used_mb(), config.capacity_mb);
    EXPECT_FALSE(cache.over_capacity());
    // A second entry makes two over capacity: the older one goes, even
    // though the newcomer alone would fit.
    cache.admit({2, 10.0});
    EXPECT_FALSE(cache.contains(1));
    EXPECT_TRUE(cache.contains(2));
    EXPECT_FALSE(cache.over_capacity());
    // Restoring a lone oversize snapshot keeps it, within the contract.
    const std::vector<Resource> lone = {{3, 900.0}};
    cache.restore(lone);
    EXPECT_EQ(cache.snapshot(), lone);
    EXPECT_FALSE(cache.over_capacity());
  }
  // An unbounded cache has no capacity to exceed, whatever capacity_mb says.
  ResourceCache unbounded(CacheConfig{EvictionPolicy::kUnbounded, 1.0});
  unbounded.admit({1, 10.0});
  unbounded.admit({2, 10.0});
  EXPECT_EQ(unbounded.size(), 2u);
  EXPECT_FALSE(unbounded.over_capacity());
}

TEST(Cache, ExplicitEvict) {
  ResourceCache cache;
  cache.admit({1, 10.0});
  EXPECT_TRUE(cache.evict(1));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.used_mb(), 0.0);
  EXPECT_FALSE(cache.evict(1));
}

TEST(Cache, ClearDropsContentsKeepsStats) {
  ResourceCache cache;
  cache.admit({1, 10.0});
  (void)cache.access(1);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.used_mb(), 0.0);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Cache, ResetStats) {
  ResourceCache cache;
  (void)cache.access(1);
  cache.reset_stats();
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(Cache, SnapshotRestoreRoundTrip) {
  ResourceCache cache;
  cache.admit({1, 10.0});
  cache.admit({2, 20.0});
  cache.admit({3, 30.0});
  const auto snapshot = cache.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot.front().id, 3u);  // most recent first

  ResourceCache other;
  other.restore(snapshot);
  EXPECT_EQ(other.size(), 3u);
  EXPECT_EQ(other.used_mb(), 60.0);
  EXPECT_TRUE(other.contains(1));
  EXPECT_EQ(other.snapshot(), snapshot);  // order preserved
}

TEST(Cache, RestoreReplacesPreviousContents) {
  ResourceCache cache;
  cache.admit({9, 99.0});
  const std::vector<Resource> fresh{{1, 10.0}};
  cache.restore(fresh);
  EXPECT_FALSE(cache.contains(9));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_EQ(cache.used_mb(), 10.0);
}

TEST(Cache, RestoredLruOrderGovernsEviction) {
  CacheConfig config;
  config.policy = EvictionPolicy::kLru;
  config.capacity_mb = 20.0;
  ResourceCache cache(config);
  // Snapshot order: 3 (most recent), 2, 1 (least recent).
  const std::vector<Resource> snapshot{{3, 10.0}, {2, 5.0}, {1, 5.0}};
  cache.restore(snapshot);
  cache.admit({4, 10.0});  // evicts from the back: 1 then 2
  EXPECT_FALSE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
}

// --- exact accounting regressions (integer-byte bookkeeping) -----------------

TEST(CacheChurn, AdmitEvictChurnLeavesNoPhantomResidue) {
  CacheConfig config;
  config.policy = EvictionPolicy::kLru;
  config.capacity_mb = 512.0;
  ResourceCache cache(config);
  // Sizes whose doubles don't sum exactly. Accumulating and subtracting
  // them thousands of times must land back on exactly zero — float
  // accounting drifted here and left residue that triggered spurious
  // evictions.
  const double sizes[] = {0.1, 0.3, 7.7, 123.456, 0.007};
  for (int round = 0; round < 2000; ++round) {
    for (ResourceId id = 1; id <= 5; ++id) {
      cache.admit({id, sizes[id - 1]});
    }
    for (ResourceId id = 1; id <= 5; ++id) {
      EXPECT_TRUE(cache.evict(id));
    }
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.used_mb(), 0.0);  // exactly zero, not NEAR
}

TEST(CacheChurn, NiceSizesReportExactTotals) {
  ResourceCache cache;
  cache.admit({1, 100.0});
  cache.admit({2, 50.0});
  cache.admit({3, 25.5});
  EXPECT_EQ(cache.used_mb(), 175.5);
  (void)cache.evict(2);
  EXPECT_EQ(cache.used_mb(), 125.5);
}

TEST(CacheChurn, RestoreEnforcesCapacity) {
  CacheConfig config;
  config.policy = EvictionPolicy::kLru;
  config.capacity_mb = 100.0;
  ResourceCache cache(config);
  const std::vector<Resource> snapshot = {{1, 50.0}, {2, 50.0}, {3, 50.0}};
  cache.restore(snapshot);
  // Carrying a snapshot into a smaller cache must not leave it over
  // budget: the two most recent entries stay, the oldest is evicted.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.used_mb(), 100.0);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_FALSE(cache.contains(3));
}

TEST(CacheChurn, RestoreDedupesIdsKeepingTheMostRecentCopy) {
  ResourceCache cache;
  const std::vector<Resource> snapshot = {{1, 70.0}, {2, 10.0}, {1, 50.0}};
  cache.restore(snapshot);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.used_mb(), 80.0);  // the 70 MB copy (most recent) wins
  const auto contents = cache.snapshot();
  ASSERT_EQ(contents.size(), 2u);
  EXPECT_EQ(contents[0].id, 1u);
  EXPECT_EQ(contents[0].size_mb, 70.0);
}

}  // namespace
}  // namespace dlaja::storage
