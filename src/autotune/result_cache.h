#ifndef RAW_AUTOTUNE_RESULT_CACHE_H_
#define RAW_AUTOTUNE_RESULT_CACHE_H_

#include <atomic>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "engine/executor.h"

namespace raw {
namespace autotune {

/// Read-only counters describing the result cache (see RawEngine::Stats()).
struct ResultCacheStats {
  int64_t entries = 0;
  int64_t bytes = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t inserted = 0;
  int64_t invalidated = 0;
  int64_t evictions = 0;
};

/// The semantic result cache: finished query results keyed by the query's
/// structural fingerprint plus its bound parameter values, so a repeated
/// prepared-statement execution skips planning and execution entirely.
///
/// Correctness rests on invalidation, not on key luck: every entry records
/// the tables it read, and the engine purges those entries whenever a
/// table's adaptive state is reset or its backing file changes (the catalog
/// additionally folds each table's staleness version into the key, so even
/// a missed purge cannot serve stale bytes).
///
/// Thread-safety mirrors ShredCache: sharded by key hash, per-shard mutex +
/// LRU list, one global atomic byte total so the budget is cache-wide.
///
/// Most cached results are a row or two, so an entry stores its result
/// packed into one buffer (schema, values, row ids, plan text, robustness
/// counts) rather than as a table of small heap objects, and keeps one copy
/// of its key: a daemon answering many one-off queries holds a few hundred
/// bytes per result instead of over a kilobyte. Lookup rebuilds a fresh
/// table.
class ResultCache {
 public:
  static constexpr int kDefaultNumShards = 8;

  explicit ResultCache(int64_t capacity_bytes,
                       int num_shards = kDefaultNumShards);

  /// Copies the cached result for `key` into `*out` and refreshes LRU
  /// order; false (and a miss count) when absent. Entries store no timings:
  /// a hit's plan/execute/compile seconds are 0, since it ran nothing.
  bool Lookup(const std::string& key, QueryResult* out);

  /// Caches `result` under `key`, recording `tables` for invalidation.
  /// Results larger than the whole budget are rejected silently.
  void Insert(const std::string& key, const QueryResult& result,
              const std::vector<std::string>& tables);

  /// Drops every entry that read `table`.
  void InvalidateTable(const std::string& table);

  /// Drops everything. `count_invalidated` distinguishes semantic
  /// invalidation (ResetAdaptiveState) from test housekeeping.
  void Clear(bool count_invalidated);

  ResultCacheStats Stats() const;

  int64_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Entry {
    std::string key;
    std::string packed;  // PackResult
    std::vector<std::string> tables;
    int64_t bytes = 0;
  };

  struct Shard {
    Shard() = default;
    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    /// Keyed by a view of the entry's own key (list nodes never move).
    std::map<std::string_view, std::list<Entry>::iterator> index;
    int64_t bytes_cached = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t inserted = 0;
    int64_t invalidated = 0;
    int64_t evictions = 0;
  };

  Shard& ShardFor(const std::string& key) const;

  /// Caller holds `shard.mu`. Evicts from this shard's LRU tail while the
  /// cache-wide total exceeds capacity.
  void EvictOverCapacity(Shard& shard);

  static int64_t EntryBytes(const std::string& key, const QueryResult& result);

  int64_t capacity_bytes_;
  std::atomic<int64_t> total_bytes_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace autotune
}  // namespace raw

#endif  // RAW_AUTOTUNE_RESULT_CACHE_H_
