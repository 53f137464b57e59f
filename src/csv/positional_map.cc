#include "csv/positional_map.h"

#include <algorithm>

namespace raw {

PositionalMap PositionalMap::WithStride(int num_columns, int stride) {
  std::vector<int> tracked;
  if (stride < 1) stride = 1;
  for (int c = 0; c < num_columns; c += stride) tracked.push_back(c);
  return PositionalMap(num_columns, std::move(tracked));
}

PositionalMap PositionalMap::TrackingColumns(int num_columns,
                                             std::vector<int> columns) {
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  return PositionalMap(num_columns, std::move(columns));
}

int PositionalMap::SlotFor(int column) const {
  auto it = std::lower_bound(tracked_.begin(), tracked_.end(), column);
  if (it == tracked_.end() || *it != column) return -1;
  return static_cast<int>(it - tracked_.begin());
}

int PositionalMap::NearestTrackedAtOrBefore(int column) const {
  auto it = std::upper_bound(tracked_.begin(), tracked_.end(), column);
  if (it == tracked_.begin()) return -1;
  return static_cast<int>(it - tracked_.begin()) - 1;
}

void PositionalMap::AppendRow(uint64_t row_start, const uint64_t* positions) {
  row_starts_.push_back(row_start);
  positions_.insert(positions_.end(), positions, positions + tracked_.size());
  ++num_rows_;
}

Status PositionalMap::AppendFrom(const PositionalMap& other) {
  if (other.num_columns_ != num_columns_ || other.tracked_ != tracked_) {
    return Status::InvalidArgument(
        "cannot append positional map with different tracking configuration");
  }
  row_starts_.insert(row_starts_.end(), other.row_starts_.begin(),
                     other.row_starts_.end());
  positions_.insert(positions_.end(), other.positions_.begin(),
                    other.positions_.end());
  num_rows_ += other.num_rows_;
  keys_in_schema_order_ = keys_in_schema_order_ && other.keys_in_schema_order_;
  return Status::OK();
}

int64_t PositionalMap::MemoryBytes() const {
  return static_cast<int64_t>((row_starts_.size() + positions_.size()) *
                              sizeof(uint64_t));
}

void PositionalMap::Reserve(int64_t rows) {
  row_starts_.reserve(static_cast<size_t>(rows));
  positions_.reserve(static_cast<size_t>(rows) * tracked_.size());
}

Status PositionalMap::CheckConsistency() const {
  if (row_starts_.size() != static_cast<size_t>(num_rows_)) {
    return Status::Internal("positional map row_starts size mismatch");
  }
  if (positions_.size() != static_cast<size_t>(num_rows_) * tracked_.size()) {
    return Status::Internal("positional map positions size mismatch");
  }
  for (size_t i = 1; i < tracked_.size(); ++i) {
    if (tracked_[i] <= tracked_[i - 1]) {
      return Status::Internal("positional map tracked columns not sorted");
    }
  }
  return Status::OK();
}

}  // namespace raw
