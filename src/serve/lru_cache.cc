#include "serve/lru_cache.h"

#include <algorithm>

#include "common/hash.h"

namespace kg::serve {

ShardedLruCache::ShardedLruCache(size_t capacity, size_t num_shards)
    : capacity_(capacity) {
  num_shards = std::max<size_t>(1, std::min(num_shards, capacity));
  if (capacity == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity =
        capacity / num_shards + (i < capacity % num_shards ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

size_t ShardedLruCache::ShardOf(const std::string& key) const {
  return Fnv1a64(key) % shards_.size();
}

bool ShardedLruCache::Get(const std::string& key, std::string_view tag,
                          Value* out) {
  Shard& shard = *shards_[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end() || it->second->tag != tag) {
    ++shard.counters.misses;
    return false;
  }
  ++shard.counters.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  if (out != nullptr) *out = it->second->value;
  return true;
}

void ShardedLruCache::Put(const std::string& key, std::string_view tag,
                          Value value) {
  Shard& shard = *shards_[ShardOf(key)];
  if (shard.capacity == 0) return;
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->tag.assign(tag);
    it->second->value = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, std::string(tag), std::move(value)});
  shard.index.emplace(key, shard.lru.begin());
  ++shard.counters.inserts;
  while (shard.lru.size() > shard.capacity) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.counters.evictions;
  }
}

size_t ShardedLruCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

void ShardedLruCache::ResetCounters() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->counters = Counters{};
  }
}

ShardedLruCache::Counters ShardedLruCache::counters() const {
  Counters total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->counters.hits;
    total.misses += shard->counters.misses;
    total.evictions += shard->counters.evictions;
    total.inserts += shard->counters.inserts;
  }
  return total;
}

}  // namespace kg::serve
