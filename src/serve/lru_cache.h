#ifndef KGRAPH_SERVE_LRU_CACHE_H_
#define KGRAPH_SERVE_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace kg::serve {

/// A sharded LRU result cache for the query path. Keys are canonical query
/// strings (`Query::CacheKey`), values are rendered result rows. Each key
/// maps to one shard by a stable FNV-1a hash — the mapping never depends on
/// thread count or insertion order — and each shard is an independently
/// mutexed LRU list, so concurrent readers only contend when they collide
/// on a shard.
///
/// The cache is transparent by contract: it may only change *when* a result
/// is computed, never *what* it is. `bench_serve` and
/// `serve_property_test` enforce cached == uncached on every replay.
///
/// Counters (hits/misses/evictions/inserts) are updated under the shard
/// lock, so their totals are exact even under concurrency.
class ShardedLruCache {
 public:
  using Value = std::vector<std::string>;

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t inserts = 0;

    double HitRate() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };

  /// A cache holding at most `capacity` entries across `num_shards`
  /// shards (clamped so every shard holds at least one entry; a
  /// `capacity` of 0 disables storage — every Get misses, Put is a
  /// no-op). Capacity is split exactly: shard i holds
  /// capacity/num_shards (+1 for the first capacity%num_shards shards).
  explicit ShardedLruCache(size_t capacity, size_t num_shards = 8);

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// On a hit — `key` is present and was stored under `tag` — copies the
  /// value into `*out` (may be null to just probe), refreshes the entry's
  /// recency, and counts a hit. Anything else counts a miss, including an
  /// entry stored under another tag: that entry is retired, and the next
  /// Put of the key replaces it in place. Callers that need no
  /// generations (the serve engine) pass an empty tag throughout.
  bool Get(const std::string& key, std::string_view tag, Value* out);

  /// Inserts or refreshes `key` under `tag`, evicting the shard's
  /// least-recently-used entry when the shard is full. Re-putting an
  /// existing key replaces its tag and value in place and refreshes its
  /// recency without counting an insert.
  void Put(const std::string& key, std::string_view tag, Value value);

  /// Live entries across all shards.
  size_t size() const;

  void ResetCounters();

  /// Exact totals summed across shards.
  Counters counters() const;

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }

  /// The shard `key` maps to — a pure function of the key bytes.
  size_t ShardOf(const std::string& key) const;

 private:
  struct Entry {
    std::string key;
    std::string tag;
    Value value;
  };
  struct Shard {
    mutable std::mutex mu;
    size_t capacity = 0;
    // Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    Counters counters;
  };

  size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace kg::serve

#endif  // KGRAPH_SERVE_LRU_CACHE_H_
