#include "serve/lru_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.h"

namespace kg::serve {
namespace {

using Value = ShardedLruCache::Value;

Value Val(const std::string& s) { return Value{s}; }

TEST(LruCacheTest, CapacityOneKeepsOnlyTheLatestEntry) {
  ShardedLruCache cache(/*capacity=*/1, /*num_shards=*/8);
  // num_shards clamps to capacity, so "1 entry total" really holds.
  EXPECT_EQ(cache.num_shards(), 1u);
  cache.Put("a", "", Val("A"));
  cache.Put("b", "", Val("B"));
  EXPECT_EQ(cache.size(), 1u);
  Value out;
  EXPECT_FALSE(cache.Get("a", "", &out));
  ASSERT_TRUE(cache.Get("b", "", &out));
  EXPECT_EQ(out, Val("B"));
  const auto c = cache.counters();
  EXPECT_EQ(c.inserts, 2u);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
}

TEST(LruCacheTest, ZeroCapacityNeverStores) {
  ShardedLruCache cache(/*capacity=*/0);
  cache.Put("a", "", Val("A"));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get("a", "", nullptr));
  EXPECT_EQ(cache.counters().misses, 1u);
  EXPECT_EQ(cache.counters().inserts, 0u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  ShardedLruCache cache(/*capacity=*/3, /*num_shards=*/1);
  cache.Put("a", "", Val("A"));
  cache.Put("b", "", Val("B"));
  cache.Put("c", "", Val("C"));
  // Touch "a": "b" becomes the LRU entry.
  EXPECT_TRUE(cache.Get("a", "", nullptr));
  cache.Put("d", "", Val("D"));
  EXPECT_FALSE(cache.Get("b", "", nullptr));
  EXPECT_TRUE(cache.Get("a", "", nullptr));
  EXPECT_TRUE(cache.Get("c", "", nullptr));
  EXPECT_TRUE(cache.Get("d", "", nullptr));
  EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(LruCacheTest, PutRefreshesRecencyAndValueWithoutInsert) {
  ShardedLruCache cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Put("a", "", Val("A"));
  cache.Put("b", "", Val("B"));
  cache.Put("a", "", Val("A2"));  // Refresh: "b" is now LRU.
  cache.Put("c", "", Val("C"));
  Value out;
  ASSERT_TRUE(cache.Get("a", "", &out));
  EXPECT_EQ(out, Val("A2"));
  EXPECT_FALSE(cache.Get("b", "", nullptr));
  EXPECT_EQ(cache.counters().inserts, 3u);  // a, b, c — not the refresh.
}

TEST(LruCacheTest, ProbeUnderRetiredTagMissesAndPutReplacesInPlace) {
  ShardedLruCache cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Put("a", "gen1", Val("A1"));
  cache.Put("b", "gen1", Val("B1"));
  Value out;
  ASSERT_TRUE(cache.Get("a", "gen1", &out));
  EXPECT_EQ(out, Val("A1"));
  // The entry's tag has been retired: the probe is a miss, not a hit
  // whose value the caller then throws away.
  EXPECT_FALSE(cache.Get("a", "gen2", &out));
  auto c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  // The next Put overwrites the entry in place: no insert, no eviction,
  // no second entry for the key.
  cache.Put("a", "gen2", Val("A2"));
  EXPECT_EQ(cache.size(), 2u);
  c = cache.counters();
  EXPECT_EQ(c.inserts, 2u);
  EXPECT_EQ(c.evictions, 0u);
  ASSERT_TRUE(cache.Get("a", "gen2", &out));
  EXPECT_EQ(out, Val("A2"));
  EXPECT_FALSE(cache.Get("a", "gen1", nullptr));
  EXPECT_TRUE(cache.Get("b", "gen1", nullptr));
}

TEST(LruCacheTest, ShardMappingIsStable) {
  ShardedLruCache a(/*capacity=*/64, /*num_shards=*/8);
  ShardedLruCache b(/*capacity=*/64, /*num_shards=*/8);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "key" + std::to_string(i);
    // The shard is a pure function of the key bytes — identical across
    // instances, runs, and platforms.
    EXPECT_EQ(a.ShardOf(key), b.ShardOf(key));
  }
}

TEST(LruCacheTest, ShardedContentsServeExactValues) {
  for (size_t shards : {1u, 4u, 8u}) {
    ShardedLruCache cache(/*capacity=*/1024, shards);
    for (int i = 0; i < 500; ++i) {
      cache.Put("k" + std::to_string(i), "", Val("v" + std::to_string(i)));
    }
    EXPECT_EQ(cache.size(), 500u);
    for (int i = 0; i < 500; ++i) {
      Value out;
      ASSERT_TRUE(cache.Get("k" + std::to_string(i), "", &out))
          << "shards=" << shards << " i=" << i;
      EXPECT_EQ(out, Val("v" + std::to_string(i)));
    }
  }
}

TEST(LruCacheTest, CapacitySplitsExactlyAcrossShards) {
  // 10 across 4 shards: 3+3+2+2 — total capacity is exact, not rounded.
  ShardedLruCache cache(/*capacity=*/10, /*num_shards=*/4);
  for (int i = 0; i < 200; ++i) {
    cache.Put("k" + std::to_string(i), "", Val("v"));
  }
  EXPECT_LE(cache.size(), 10u);
  const auto c = cache.counters();
  EXPECT_EQ(c.inserts - c.evictions, cache.size());
}

TEST(LruCacheTest, CountersExactUnderConcurrentReaders) {
  const size_t kKeys = 64;
  const size_t kThreads = 8;
  const size_t kReadsPerThread = 2000;
  ShardedLruCache cache(/*capacity=*/256, /*num_shards=*/8);
  for (size_t i = 0; i < kKeys; ++i) {
    cache.Put("k" + std::to_string(i), "", Val("v" + std::to_string(i)));
  }
  cache.ResetCounters();

  ThreadPool pool(kThreads);
  pool.ParallelFor(kThreads, [&](size_t t) {
    for (size_t i = 0; i < kReadsPerThread; ++i) {
      const size_t j = (t * kReadsPerThread + i) % (2 * kKeys);
      Value out;
      const bool hit = cache.Get("k" + std::to_string(j), "", &out);
      // Keys [0, kKeys) are resident and never evicted (capacity >
      // inserts); the rest always miss.
      EXPECT_EQ(hit, j < kKeys);
      if (hit) {
        EXPECT_EQ(out, Val("v" + std::to_string(j)));
      }
    }
  });

  const auto c = cache.counters();
  const uint64_t total = kThreads * kReadsPerThread;
  EXPECT_EQ(c.hits + c.misses, total);
  EXPECT_EQ(c.hits, total / 2);
  EXPECT_EQ(c.misses, total / 2);
  EXPECT_EQ(c.evictions, 0u);
}

}  // namespace
}  // namespace kg::serve
