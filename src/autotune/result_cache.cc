#include "autotune/result_cache.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <string_view>

#include "common/types.h"

namespace raw {
namespace autotune {

ResultCache::ResultCache(int64_t capacity_bytes, int num_shards)
    : capacity_bytes_(std::max<int64_t>(capacity_bytes, 0)) {
  if (num_shards < 1) num_shards = 1;
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) const {
  size_t h = std::hash<std::string>{}(key);
  return *shards_[h % shards_.size()];
}

namespace {

/// Appends the raw bytes of `value`.
template <typename T>
void Put(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void PutBytes(std::string* out, const void* data, size_t size) {
  Put(out, static_cast<uint64_t>(size));
  out->append(static_cast<const char*>(data), size);
}

/// Reads what Put/PutBytes wrote, in order.
class Reader {
 public:
  explicit Reader(const std::string& in) : pos_(in.data()) {}
  template <typename T>
  T Get() {
    T value;
    std::memcpy(&value, pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }
  std::string_view GetBytes() {
    const size_t size = Get<uint64_t>();
    std::string_view out(pos_, size);
    pos_ += size;
    return out;
  }

 private:
  const char* pos_;
};

/// Packs `result` into one buffer; false for results it cannot represent
/// (partially loaded columns), which are then not cached.
bool PackResult(const QueryResult& result, std::string* out) {
  const ColumnBatch& table = result.table;
  Put(out, static_cast<uint32_t>(table.num_columns()));
  Put(out, table.num_rows());
  for (int c = 0; c < table.num_columns(); ++c) {
    const Field& field = table.schema().field(c);
    const Column& column = *table.column(c);
    if (!column.fully_loaded() || column.type() != field.type) return false;
    Put(out, field.type);
    PutBytes(out, field.name.data(), field.name.size());
    if (field.type == DataType::kString) {
      for (int64_t r = 0; r < column.length(); ++r) {
        const std::string& v = column.StringValue(r);
        PutBytes(out, v.data(), v.size());
      }
    } else {
      PutBytes(out, column.raw_data(),
               static_cast<size_t>(column.length()) *
                   static_cast<size_t>(FixedWidth(field.type)));
    }
  }
  PutBytes(out, table.row_ids().data(),
           table.row_ids().size() * sizeof(int64_t));
  PutBytes(out, result.plan_description.data(),
           result.plan_description.size());
  Put(out, result.rows_skipped);
  Put(out, result.rows_nulled);
  Put(out, result.io_faults);
  out->shrink_to_fit();
  return true;
}

QueryResult UnpackResult(const std::string& packed) {
  Reader in(packed);
  const uint32_t num_columns = in.Get<uint32_t>();
  const int64_t num_rows = in.Get<int64_t>();
  Schema schema;
  std::vector<ColumnPtr> columns;
  for (uint32_t c = 0; c < num_columns; ++c) {
    const DataType type = in.Get<DataType>();
    schema.AddField(std::string(in.GetBytes()), type);
    auto column = std::make_shared<Column>(type);
    if (type == DataType::kString) {
      for (int64_t r = 0; r < num_rows; ++r) {
        column->AppendString(std::string(in.GetBytes()));
      }
    } else {
      *column = Column::Zeroed(type, num_rows);
      const std::string_view bytes = in.GetBytes();
      std::memcpy(column->raw_data(), bytes.data(), bytes.size());
    }
    columns.push_back(std::move(column));
  }
  QueryResult result;
  result.table = ColumnBatch(std::move(schema));
  for (ColumnPtr& column : columns) result.table.AddColumn(std::move(column));
  result.table.SetNumRows(num_rows);
  const std::string_view ids = in.GetBytes();
  if (!ids.empty()) {
    std::vector<int64_t> row_ids(ids.size() / sizeof(int64_t));
    std::memcpy(row_ids.data(), ids.data(), ids.size());
    result.table.SetRowIds(std::move(row_ids));
  }
  result.plan_description = std::string(in.GetBytes());
  result.rows_skipped = in.Get<int64_t>();
  result.rows_nulled = in.Get<int64_t>();
  result.io_faults = in.Get<int64_t>();
  return result;
}

}  // namespace

int64_t ResultCache::EntryBytes(const std::string& key,
                                const QueryResult& result) {
  int64_t bytes = static_cast<int64_t>(key.size()) +
                  static_cast<int64_t>(result.plan_description.size()) + 128;
  for (const ColumnPtr& col : result.table.columns()) {
    if (col != nullptr) bytes += col->MemoryBytes();
  }
  bytes += static_cast<int64_t>(result.table.row_ids().size()) * 8;
  return bytes;
}

bool ResultCache::Lookup(const std::string& key, QueryResult* out) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  *out = UnpackResult(it->second->packed);
  return true;
}

void ResultCache::Insert(const std::string& key, const QueryResult& result,
                         const std::vector<std::string>& tables) {
  const int64_t bytes = EntryBytes(key, result);
  if (capacity_bytes_ == 0 || bytes > capacity_bytes_) return;
  Entry entry;
  if (!PackResult(result, &entry.packed)) return;
  entry.key = key;
  entry.tables = tables;
  entry.bytes = bytes;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Refresh in place (same key => same semantic result).
    total_bytes_.fetch_sub(it->second->bytes, std::memory_order_relaxed);
    shard.bytes_cached -= it->second->bytes;
    auto node = it->second;
    shard.index.erase(it);
    shard.lru.erase(node);
  }
  shard.lru.push_front(std::move(entry));
  shard.index[shard.lru.front().key] = shard.lru.begin();
  shard.bytes_cached += bytes;
  total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  ++shard.inserted;
  EvictOverCapacity(shard);
}

void ResultCache::EvictOverCapacity(Shard& shard) {
  while (total_bytes_.load(std::memory_order_relaxed) > capacity_bytes_ &&
         shard.lru.size() > 1) {
    Entry& victim = shard.lru.back();
    total_bytes_.fetch_sub(victim.bytes, std::memory_order_relaxed);
    shard.bytes_cached -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

void ResultCache::InvalidateTable(const std::string& table) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      bool reads_table =
          std::find(it->tables.begin(), it->tables.end(), table) !=
          it->tables.end();
      if (reads_table) {
        total_bytes_.fetch_sub(it->bytes, std::memory_order_relaxed);
        shard->bytes_cached -= it->bytes;
        shard->index.erase(it->key);
        it = shard->lru.erase(it);
        ++shard->invalidated;
      } else {
        ++it;
      }
    }
  }
}

void ResultCache::Clear(bool count_invalidated) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total_bytes_.fetch_sub(shard->bytes_cached, std::memory_order_relaxed);
    if (count_invalidated) {
      shard->invalidated += static_cast<int64_t>(shard->index.size());
    }
    shard->lru.clear();
    shard->index.clear();
    shard->bytes_cached = 0;
  }
}

ResultCacheStats ResultCache::Stats() const {
  ResultCacheStats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.entries += static_cast<int64_t>(shard->index.size());
    stats.bytes += shard->bytes_cached;
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.inserted += shard->inserted;
    stats.invalidated += shard->invalidated;
    stats.evictions += shard->evictions;
  }
  return stats;
}

}  // namespace autotune
}  // namespace raw
