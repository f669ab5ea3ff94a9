#ifndef DSSDDI_SERVE_SUGGESTION_CACHE_H_
#define DSSDDI_SERVE_SUGGESTION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dssddi_system.h"

namespace dssddi::serve {

/// Cache key: which patient asked for how many drugs. Patients are
/// identified by an external id (EHR record number, cohort row, ...);
/// requests without a stable id (negative patient_id) bypass the cache.
/// `feature_hash` guards against the id outliving the patient state: a
/// query for the same patient with updated features hashes differently
/// and can never be answered from the stale entry. `generation` ties the
/// entry to one model snapshot: after a hot bundle reload the service
/// keys with the new snapshot's version, so an entry computed by the old
/// model can never answer a post-reload query even if a Put raced the
/// reload's Clear.
struct CacheKey {
  int64_t patient_id = -1;
  int k = 0;
  uint64_t feature_hash = 0;
  uint64_t generation = 0;

  bool operator==(const CacheKey& other) const {
    return patient_id == other.patient_id && k == other.k &&
           feature_hash == other.feature_hash && generation == other.generation;
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const {
    // 64-bit mix (splitmix64 finalizer) over all fields.
    uint64_t x = static_cast<uint64_t>(key.patient_id) * 0x9e3779b97f4a7c15ull +
                 static_cast<uint64_t>(key.k);
    x ^= key.feature_hash + 0x9e3779b97f4a7c15ull + (x << 6) + (x >> 2);
    x += key.generation * 0xff51afd7ed558ccdull;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

/// Sharded LRU cache of served suggestions. Keys hash to one of
/// `num_shards` independent shards, each with its own mutex, LRU list and
/// capacity slice, so concurrent lookups for different patients rarely
/// contend. Within a shard, eviction is strict LRU (Get refreshes
/// recency; Put of an existing key overwrites and refreshes). The cache
/// keeps no counts: its caller owns the one Get call site and counts
/// hits and misses there, in its metrics registry.
class SuggestionCache {
 public:
  /// `capacity` is the total entry budget across shards (each shard gets
  /// an equal slice, at least 1). With `num_shards` == 1 the cache is a
  /// single globally-ordered LRU, which unit tests rely on.
  explicit SuggestionCache(size_t capacity, int num_shards = 8);

  SuggestionCache(const SuggestionCache&) = delete;
  SuggestionCache& operator=(const SuggestionCache&) = delete;

  /// On hit copies the cached suggestion into `*out`, refreshes recency
  /// and returns true. On miss returns false.
  bool Get(const CacheKey& key, core::Suggestion* out);

  /// Inserts or overwrites `key`, evicting the least-recently-used entry
  /// of the target shard when its slice is full.
  void Put(const CacheKey& key, core::Suggestion value);

  /// Drops every entry.
  void Clear();

  /// Current generation, monotonically increasing from 0. Callers that
  /// embed it in CacheKey get automatic cross-generation isolation.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Hot-reload hook: advances the generation and drops every entry, so
  /// results computed against the previous model are both unreachable
  /// (new keys carry the new generation) and freed. Returns the new
  /// generation.
  uint64_t BumpGeneration();

  size_t capacity() const { return capacity_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Shard {
    std::mutex mutex;
    /// Front = most recently used.
    std::list<std::pair<CacheKey, core::Suggestion>> lru;
    std::unordered_map<CacheKey, decltype(lru)::iterator, CacheKeyHash> index;
    size_t capacity = 0;
  };

  Shard& ShardFor(const CacheKey& key);

  size_t capacity_;
  std::atomic<uint64_t> generation_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dssddi::serve

#endif  // DSSDDI_SERVE_SUGGESTION_CACHE_H_
