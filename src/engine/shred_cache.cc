#include "engine/shred_cache.h"

#include <algorithm>

#include "common/hash.h"

namespace raw {

ShredCache::ShredCache(int64_t capacity_bytes, int num_shards)
    : capacity_bytes_(std::max<int64_t>(capacity_bytes, 1)) {
  num_shards = std::max(num_shards, 1);
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ShredCache::Shard& ShredCache::ShardFor(const std::string& key) const {
  return *shards_[static_cast<size_t>(
      Fnv1a64(key) % static_cast<uint64_t>(shards_.size()))];
}

ShredCache::Entry* ShredCache::Find(Shard& shard, const std::string& key,
                                    int64_t version, bool refresh_lru) {
  auto it = shard.index.find(key);
  if (it == shard.index.end() || it->second->version != version) {
    return nullptr;
  }
  if (refresh_lru) shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return &*it->second;
}

Status ShredCache::Insert(const std::string& table, int column,
                          const int64_t* row_ids, const Column& values,
                          int64_t version) {
  std::shared_ptr<const std::vector<int64_t>> ids;
  if (row_ids != nullptr) {
    ids = std::make_shared<const std::vector<int64_t>>(
        row_ids, row_ids + values.length());
  }
  return Insert(table, column, std::move(ids),
                std::make_shared<Column>(values), version);
}

Status ShredCache::Insert(const std::string& table, int column,
                          std::shared_ptr<const std::vector<int64_t>> row_ids,
                          ColumnPtr values, int64_t version) {
  const int64_t new_rows = values->length();
  if (row_ids != nullptr) {
    if (static_cast<int64_t>(row_ids->size()) != new_rows) {
      return Status::InvalidArgument(
          "shred cache insert: one row id per value required");
    }
    for (size_t i = 1; i < row_ids->size(); ++i) {
      if ((*row_ids)[i] <= (*row_ids)[i - 1]) {
        return Status::InvalidArgument(
            "shred cache insert: row ids must be strictly increasing");
      }
    }
  }
  std::string key = MakeKey(table, column);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto found = shard.index.find(key);
  if (found != shard.index.end()) {
    const Entry* existing = &*found->second;
    int64_t old_rows = existing->full()
                           ? existing->values->length()
                           : static_cast<int64_t>(existing->row_ids->size());
    if (existing->version == version &&
        (existing->full() || old_rows >= new_rows)) {
      return Status::OK();  // keep the (at least as large) existing entry
    }
    shard.bytes_cached -= existing->bytes;
    total_bytes_.fetch_sub(existing->bytes, std::memory_order_relaxed);
    shard.lru.erase(found->second);
    shard.index.erase(found);
  }
  Entry entry;
  entry.key = key;
  entry.bytes = values->MemoryBytes();
  if (row_ids != nullptr) {
    entry.bytes += static_cast<int64_t>(row_ids->size() * sizeof(int64_t));
  }
  entry.values = std::move(values);
  entry.row_ids = std::move(row_ids);
  entry.version = version;
  shard.bytes_cached += entry.bytes;
  total_bytes_.fetch_add(entry.bytes, std::memory_order_relaxed);
  shard.lru.push_front(std::move(entry));
  shard.index[key] = shard.lru.begin();
  EvictOverCapacity(shard);
  return Status::OK();
}

void ShredCache::EvictOverCapacity(Shard& shard) {
  // The budget is cache-wide; an over-budget insert evicts from its own
  // shard's LRU tail (down to one surviving entry — the same oversized-entry
  // guard the single-LRU always had). Other shards shed their own tails on
  // their own next inserts, so the total converges onto the budget without
  // any cross-shard locking.
  while (total_bytes_.load(std::memory_order_relaxed) > capacity_bytes_ &&
         shard.lru.size() > 1) {
    Entry& victim = shard.lru.back();
    shard.bytes_cached -= victim.bytes;
    total_bytes_.fetch_sub(victim.bytes, std::memory_order_relaxed);
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

bool ShredCache::Covers(const std::string& table, int column,
                        const std::vector<int64_t>& rows, int64_t version) {
  std::string key = MakeKey(table, column);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry* entry = Find(shard, key, version, /*refresh_lru=*/false);
  if (entry == nullptr) return false;
  if (entry->full()) {
    for (int64_t r : rows) {
      if (r < 0 || r >= entry->values->length()) return false;
    }
    return true;
  }
  const auto& ids = *entry->row_ids;
  for (int64_t r : rows) {
    if (!std::binary_search(ids.begin(), ids.end(), r)) return false;
  }
  return true;
}

StatusOr<ColumnPtr> ShredCache::Lookup(const std::string& table, int column,
                                       const std::vector<int64_t>& rows,
                                       int64_t version) {
  std::string key = MakeKey(table, column);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry* entry = Find(shard, key, version, /*refresh_lru=*/true);
  if (entry == nullptr) {
    ++shard.misses;
    return Status::NotFound("no cached shred");
  }
  auto out = std::make_shared<Column>(entry->values->type());
  out->Reserve(static_cast<int64_t>(rows.size()));
  if (entry->full()) {
    for (int64_t r : rows) {
      if (r < 0 || r >= entry->values->length()) {
        ++shard.misses;
        return Status::NotFound("row outside cached column");
      }
    }
    ++shard.hits;
    return std::make_shared<Column>(entry->values->Gather(
        rows.data(), static_cast<int64_t>(rows.size())));
  }
  const auto& ids = *entry->row_ids;
  std::vector<int64_t> indices;
  indices.reserve(rows.size());
  for (int64_t r : rows) {
    auto it = std::lower_bound(ids.begin(), ids.end(), r);
    if (it == ids.end() || *it != r) {
      ++shard.misses;
      return Status::NotFound("requested row not in cached shred");
    }
    indices.push_back(static_cast<int64_t>(it - ids.begin()));
  }
  ++shard.hits;
  return std::make_shared<Column>(entry->values->Gather(
      indices.data(), static_cast<int64_t>(indices.size())));
}

StatusOr<ColumnPtr> ShredCache::LookupFull(const std::string& table,
                                           int column, int64_t version) {
  std::string key = MakeKey(table, column);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry* entry = Find(shard, key, version, /*refresh_lru=*/true);
  if (entry == nullptr || !entry->full()) {
    ++shard.misses;
    return Status::NotFound("no cached full column");
  }
  ++shard.hits;
  return entry->values;
}

bool ShredCache::ContainsFull(const std::string& table, int column,
                              int64_t version) const {
  std::string key = MakeKey(table, column);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry* entry = Find(shard, key, version, /*refresh_lru=*/false);
  return entry != nullptr && entry->full();
}

void ShredCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total_bytes_.fetch_sub(shard->bytes_cached, std::memory_order_relaxed);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes_cached = 0;
  }
}

void ShredCache::EraseTable(const std::string& table) {
  const std::string prefix = table + "#";
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->index.begin(); it != shard->index.end();) {
      if (it->first.compare(0, prefix.size(), prefix) == 0) {
        total_bytes_.fetch_sub(it->second->bytes, std::memory_order_relaxed);
        shard->bytes_cached -= it->second->bytes;
        shard->lru.erase(it->second);
        it = shard->index.erase(it);
      } else {
        ++it;
      }
    }
  }
}

CacheStats ShredCache::Stats() const {
  CacheStats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.entries += static_cast<int64_t>(shard->index.size());
    stats.bytes += shard->bytes_cached;
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.evictions += shard->evictions;
  }
  return stats;
}

}  // namespace raw
