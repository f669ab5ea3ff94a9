#include "serve/suggestion_cache.h"

#include "util/logging.h"

namespace dssddi::serve {

SuggestionCache::SuggestionCache(size_t capacity, int num_shards)
    : capacity_(capacity) {
  if (num_shards < 1) num_shards = 1;
  if (static_cast<size_t>(num_shards) > capacity && capacity > 0) {
    num_shards = static_cast<int>(capacity);
  }
  DSSDDI_CHECK(capacity > 0) << "SuggestionCache needs capacity >= 1";
  shards_.reserve(num_shards);
  const size_t per_shard = (capacity + num_shards - 1) / num_shards;
  for (int s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = per_shard;
    shards_.push_back(std::move(shard));
  }
}

SuggestionCache::Shard& SuggestionCache::ShardFor(const CacheKey& key) {
  return *shards_[CacheKeyHash{}(key) % shards_.size()];
}

bool SuggestionCache::Get(const CacheKey& key, core::Suggestion* out) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return false;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  *out = it->second->second;
  return true;
}

void SuggestionCache::Put(const CacheKey& key, core::Suggestion value) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= shard.capacity) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
  }
  shard.lru.emplace_front(key, std::move(value));
  shard.index[key] = shard.lru.begin();
}

void SuggestionCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
  }
}

uint64_t SuggestionCache::BumpGeneration() {
  // Advance first: writers racing the sweep key with the old generation,
  // so even an entry inserted after its shard was swept is unreachable
  // from post-bump readers.
  const uint64_t next = generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  Clear();
  return next;
}

}  // namespace dssddi::serve
