#ifndef RAW_ENGINE_SHRED_CACHE_H_
#define RAW_ENGINE_SHRED_CACHE_H_

#include <atomic>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "columnar/column.h"
#include "common/status.h"
#include "common/statusor.h"

namespace raw {

/// Read-only counters describing one cache (see RawEngine::Stats()).
struct CacheStats {
  int64_t entries = 0;
  int64_t bytes = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
};

/// The pool of column shreds populated as a side effect of query execution
/// (§3, §5.1): per (table, column) it keeps the rows already converted from
/// the raw file. "A shred is used by an upcoming query if the values it
/// contains subsume the values requested. The replacement policy ... is LRU."
///
/// An entry is either a *full column* (row_ids empty, covers every row) or a
/// shred: sorted row ids plus the parallel values. On insert, an existing
/// entry for the same (table, column) is replaced only when the new one
/// covers at least as many rows (cheap subsumption-by-size policy; merging
/// arbitrary shreds is bookkeeping the paper also points out can become
/// costly, §5.1).
///
/// Every entry carries the file generation (TableEntry version) its values
/// were read from, and every read names the generation its query pinned: an
/// entry of another generation never matches, and an insert replaces it.
///
/// Thread-safety: the cache is *sharded* by (table, column) key hash; each
/// shard has its own mutex and LRU list, so concurrent sessions touching
/// different columns never contend on one lock. The byte budget stays
/// *global* (an atomic total): an insert evicts from its own shard's LRU
/// tail only while the whole cache is over capacity, so key skew cannot
/// evict warm columns while most of the budget sits unused. Returned
/// columns are shared, immutable snapshots — safe to read after eviction
/// or Clear().
class ShredCache {
 public:
  static constexpr int kDefaultNumShards = 16;

  /// `num_shards` mainly exists for tests that want the classic single-LRU
  /// behaviour; the capacity is a cache-wide budget regardless.
  explicit ShredCache(int64_t capacity_bytes = 1ll << 30,
                      int num_shards = kDefaultNumShards);

  /// Inserts values for `row_ids` (nullptr => full column starting at row 0).
  /// `row_ids` must be strictly increasing when present.
  Status Insert(const std::string& table, int column, const int64_t* row_ids,
                const Column& values, int64_t version = 0);

  /// Same, taking ownership instead of copying: the cache keeps `values`
  /// itself (the caller must not modify it afterwards) and shares `row_ids`
  /// (null => full column), so the shreds of several columns fetched by one
  /// scan hold one row-id vector.
  Status Insert(const std::string& table, int column,
                std::shared_ptr<const std::vector<int64_t>> row_ids,
                ColumnPtr values, int64_t version = 0);

  /// Returns the cached values for exactly `rows` (in order), or nullopt if
  /// no entry subsumes the request. A hit refreshes LRU order.
  StatusOr<ColumnPtr> Lookup(const std::string& table, int column,
                             const std::vector<int64_t>& rows,
                             int64_t version = 0);

  /// True when an entry subsumes `rows` without materializing the result.
  bool Covers(const std::string& table, int column,
              const std::vector<int64_t>& rows, int64_t version = 0);

  /// Full-column fast path: the complete cached column when the entry is
  /// full-length, else NotFound.
  StatusOr<ColumnPtr> LookupFull(const std::string& table, int column,
                                 int64_t version = 0);

  /// Side-effect-free introspection: true when a *full* column is cached for
  /// (table, column). Unlike LookupFull this neither refreshes LRU order nor
  /// counts a hit/miss — it exists for stats surfaces and tests.
  bool ContainsFull(const std::string& table, int column,
                    int64_t version = 0) const;

  void Clear();

  /// Drops every entry belonging to `table` (all columns, full or shredded) —
  /// the invalidation path when the table's backing file changed.
  void EraseTable(const std::string& table);

  int64_t capacity_bytes() const { return capacity_bytes_; }

  /// Aggregated counters across all shards (a consistent-enough snapshot for
  /// introspection; shards are summed one lock at a time).
  CacheStats Stats() const;

  int64_t bytes_cached() const { return Stats().bytes; }
  int64_t hits() const { return Stats().hits; }
  int64_t misses() const { return Stats().misses; }
  int64_t evictions() const { return Stats().evictions; }
  int64_t num_entries() const { return Stats().entries; }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const std::vector<int64_t>> row_ids;  // null => full
    ColumnPtr values;
    int64_t version = 0;  // file generation the values were read from
    int64_t bytes = 0;

    bool full() const { return row_ids == nullptr; }
  };

  struct Shard {
    Shard() = default;
    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::map<std::string, std::list<Entry>::iterator> index;
    int64_t bytes_cached = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
  };

  static std::string MakeKey(const std::string& table, int column) {
    return table + "#" + std::to_string(column);
  }

  Shard& ShardFor(const std::string& key) const;

  /// The entry for `key` read from generation `version`, or null. Caller
  /// holds `shard.mu`.
  static Entry* Find(Shard& shard, const std::string& key, int64_t version,
                     bool refresh_lru);
  void EvictOverCapacity(Shard& shard);

  int64_t capacity_bytes_;
  std::atomic<int64_t> total_bytes_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace raw

#endif  // RAW_ENGINE_SHRED_CACHE_H_
